#!/usr/bin/env python3
"""Compare what two source trees of gaussmatch print and write on the benchmark workloads.

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/compare_outputs.py /tmp/parent/src src --workloads image-report small-cli \
        --seeds 1 2

For each workload and seed, the inputs are made by ``bench/workloads.build``
and the workload's argument lists run in order as ``python -m
gaussmatch.cli`` with the first tree on ``PYTHONPATH``; then the inputs are
made again in the same, emptied directory and the lists run with the
second tree. The argument lists, and so every path in them, are the same
for both trees. Each command's exit code, stdout and stderr and every
output file it names are hashed with SHA-256, and one line per output gives
both hashes and whether they agree. BLAS runs on one thread, as in the
benchmark.

Then ``report`` runs on seven damaged copies of each points CSV the
workload reads: one with a bad field in its last row, one with a ragged
row at the first boundary between the pieces the reader decodes (the
first row that ends past 64 KiB), or at its last row when the file is
shorter, one with ``nan`` in its middle row, one with CRLF line ends,
one with lone CR line ends, one with a UTF-8 byte-order mark and one
with a byte that is not UTF-8 in its last row.  So two trees are shown
to agree on error text and exit code too.

Every command is started by ``bench/spawn.py``, a small launcher, so that
its peak resident set (``ru_maxrss``) is its own and not that of this
process.  With ``--peak-rss`` each command's peak is printed for both
trees, and then, for each workload and seed, the largest peak of the
workload's own commands (the damaged copies left out) in each tree: the
figure the benchmark reports as ``peak_rss_mb``.  Peaks are reported, not
compared.

Exit status: 0 when every output and exit code agrees, 1 otherwise.
``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is

import workloads  # noqa: E402  (bench/workloads.py)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _damaged(text: str) -> dict[str, bytes]:
    """Damaged copies of the text of a points CSV with no header, by kind, as bytes."""
    lines = text.splitlines()
    ends = itertools.accumulate(len(line.encode("utf-8")) + 1 for line in lines)
    boundary = next((index for index, end in enumerate(ends) if end > 2**16), len(lines) - 1)

    def edit(index: int, change) -> bytes:
        copy = list(lines)
        copy[index] = change(copy[index])
        return ("\n".join(copy) + "\n").encode("utf-8")

    data = ("\n".join(lines) + "\n").encode("utf-8")
    return {
        "bad-last": edit(-1, lambda row: row + "x"),
        "ragged-block": edit(boundary, lambda row: row + ",0"),
        "nan-middle": edit(len(lines) // 2, lambda row: "nan" + row[len(row.split(",")[0]):]),
        "crlf": data.replace(b"\n", b"\r\n"),
        "cr": data.replace(b"\n", b"\r"),
        "bom": b"\xef\xbb\xbf" + data,
        "not-utf8-last": data[:-1] + b"\xff\n",
    }


def run_tree(tree: Path, name: str, seed: int, work: Path):
    """(label, digest) of each exit code, stdout, stderr and output file, in command
    order, (label, peak RSS in MB) of each command, and the largest peak of the
    workload's own commands."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, seed, work)
    env = dict(os.environ, PYTHONPATH=str(tree))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    launcher = subprocess.Popen([sys.executable, str(ROOT / "bench" / "spawn.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                env=env, cwd=work)
    stdout, stderr = work / "stdout.txt", work / "stderr.txt"
    outputs, peaks = [], []

    def run(label: str, argv: list[str], files=()) -> None:
        request = [[sys.executable, "-m", "gaussmatch.cli", *argv], str(stdout), str(stderr)]
        launcher.stdin.write(json.dumps(request) + "\n")
        launcher.stdin.flush()
        code, _, peak = json.loads(launcher.stdout.readline())
        outputs.append((f"{label} exit", str(code)))
        outputs.append((f"{label} stdout", _digest(stdout.read_bytes())))
        outputs.append((f"{label} stderr", _digest(stderr.read_bytes())))
        for path in files:
            digest = _digest(path.read_bytes()) if path.exists() else "missing"
            outputs.append((f"{label} {path.name}", digest))
        peaks.append((label, peak))

    with launcher:  # closes its pipes, which ends it, and waits for it
        inputs = []
        for index, op in enumerate(workload.operations, start=1):
            run(f"{index}:{op.argv[0]}", op.argv, op.outputs)
            if "--input" in op.argv:
                inputs.append(Path(op.argv[op.argv.index("--input") + 1]))
        workload_peak = max(peak for _, peak in peaks)
        for path in dict.fromkeys(p for p in inputs if p.suffix == ".csv" and p.exists()):
            for kind, data in _damaged(path.read_text(encoding="utf-8")).items():
                copy = work / f"{kind}-{path.name}"
                copy.write_bytes(data)
                run(f"{kind} {path.name}", ["report", "--input", str(copy), "--format", "csv"])
    return outputs, peaks, workload_peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="source tree holding the gaussmatch package")
    parser.add_argument("second", type=Path, help="source tree to compare with the first")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--peak-rss", action="store_true",
                        help="print each command's peak resident set for both trees")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.first, args.second)]
    for tree in trees:
        if not (tree / "gaussmatch" / "__init__.py").is_file():
            parser.error(f"{tree} holds no gaussmatch package")

    differences = 0
    with tempfile.TemporaryDirectory(prefix="gaussmatch-compare-") as scratch:
        work = Path(scratch) / "work"
        for name in args.workloads:
            for seed in args.seeds:
                (first, first_peaks, first_max), (second, second_peaks, second_max) = (
                    run_tree(tree, name, seed, work) for tree in trees)
                for (label, a), (_, b) in zip(first, second):
                    verdict = "same" if a == b else "DIFFERS"
                    differences += a != b
                    print(f"{verdict:8} {name} seed {seed} {label:40} {a[:16]} {b[:16]}")
                if args.peak_rss:
                    for (label, a), (_, b) in zip(first_peaks, second_peaks):
                        print(f"peak-rss {name} seed {seed} {label:40} {a:7.1f} MB {b:7.1f} MB")
                    print(f"peak-rss {name} seed {seed} {'workload':40} "
                          f"{first_max:7.1f} MB {second_max:7.1f} MB")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
