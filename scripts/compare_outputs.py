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

When an output differs and both are UTF-8 texts that agree outside their
numbers, a ``drift`` line follows: how many numbers they hold, how many of
them are bit-identical, the largest absolute and relative difference of a
pair of numbers, each with its line and column in the first tree's text,
and the largest magnitude of a number, against which a difference in a
covariance entry is read.

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
process.  With ``--peak-rss`` each tree's import-only peak (a fresh
``python -c "import gaussmatch.cli"``) is printed first, then each
command's peak for both trees, and then, for each workload and seed, the
largest peak of the workload's own commands (the damaged copies left out)
in each tree: the figure the benchmark reports as ``peak_rss_mb``.  So how
far a command lies above the import is read from one run.  Peaks are
reported, not compared.

Exit status: 0 when every output and exit code agrees, 1 otherwise.
``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is

import workloads  # noqa: E402  (bench/workloads.py)


# A decimal number as the package writes it: an int or a float repr.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def drift(first: bytes, second: bytes) -> str | None:
    """How far the numbers of two outputs lie apart, as the text of a drift
    line; None unless both are UTF-8 and agree outside their numbers."""
    try:
        texts = first.decode("utf-8"), second.decode("utf-8")
    except UnicodeDecodeError:
        return None
    count = same = 0
    largest, worst_abs, worst_rel = 0.0, (0.0, 0), (0.0, 0)
    ends = (0, 0)
    for pair in itertools.zip_longest(*map(_NUMBER.finditer, texts)):
        if None in pair or texts[0][ends[0]:pair[0].start()] != texts[1][ends[1]:pair[1].start()]:
            return None
        ends = pair[0].end(), pair[1].end()
        a, b = (float(match.group()) for match in pair)
        count += 1
        same += a.hex() == b.hex()
        largest = max(largest, abs(a), abs(b))
        difference = abs(a - b)
        relative = difference / max(abs(a), abs(b)) if difference else 0.0
        if difference > worst_abs[0]:
            worst_abs = difference, pair[0].start()
        if relative > worst_rel[0]:
            worst_rel = relative, pair[0].start()
    if texts[0][ends[0]:] != texts[1][ends[1]:]:
        return None

    def at(offset: int) -> str:
        line = texts[0].count("\n", 0, offset) + 1
        column = offset - texts[0].rfind("\n", 0, offset)
        return f"line {line} col {column}"

    return (f"{count} numbers, {same} bit-identical, largest abs difference {worst_abs[0]:.3g} "
            f"at {at(worst_abs[1])}, largest rel difference {worst_rel[0]:.3g} "
            f"at {at(worst_rel[1])}, largest magnitude {largest:.6g}")


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


def _launcher(tree: Path, work: Path) -> subprocess.Popen:
    """``bench/spawn.py`` in ``work``, with ``tree`` on PYTHONPATH and BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(tree))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.Popen([sys.executable, str(ROOT / "bench" / "spawn.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=work)


def _launch(launcher: subprocess.Popen, argv: list[str], stdout: Path, stderr: Path):
    """(exit code, peak RSS in MB) of ``argv`` run to its end by the launcher."""
    launcher.stdin.write(json.dumps([argv, str(stdout), str(stderr)]) + "\n")
    launcher.stdin.flush()
    code, _, peak = json.loads(launcher.stdout.readline())
    return code, peak


def import_peak(tree: Path, work: Path) -> float:
    """Peak RSS in MB of a fresh interpreter that imports ``gaussmatch.cli`` from ``tree``."""
    work.mkdir(parents=True, exist_ok=True)
    with _launcher(tree, work) as launcher:
        code, peak = _launch(launcher, [sys.executable, "-c", "import gaussmatch.cli"],
                             work / "stdout.txt", work / "stderr.txt")
    if code:
        raise RuntimeError(f"{tree}: gaussmatch.cli does not import")
    return peak


def run_tree(tree: Path, name: str, seed: int, work: Path):
    """(label, bytes) of each exit code, stdout, stderr and output file, in command
    order, (label, peak RSS in MB) of each command, and the largest peak of the
    workload's own commands."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, seed, work)
    launcher = _launcher(tree, work)
    stdout, stderr = work / "stdout.txt", work / "stderr.txt"
    outputs, peaks = [], []

    def run(label: str, argv: list[str], files=()) -> None:
        code, peak = _launch(launcher, [sys.executable, "-m", "gaussmatch.cli", *argv],
                             stdout, stderr)
        outputs.append((f"{label} exit", str(code).encode()))
        outputs.append((f"{label} stdout", stdout.read_bytes()))
        outputs.append((f"{label} stderr", stderr.read_bytes()))
        for path in files:
            outputs.append((f"{label} {path.name}", path.read_bytes() if path.exists() else None))
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
        if args.peak_rss:
            first, second = (import_peak(tree, work) for tree in trees)
            print(f"peak-rss {'import':58} {first:7.1f} MB {second:7.1f} MB")
        for name in args.workloads:
            for seed in args.seeds:
                (first, first_peaks, first_max), (second, second_peaks, second_max) = (
                    run_tree(tree, name, seed, work) for tree in trees)
                for (label, a), (_, b) in zip(first, second):
                    verdict = "same" if a == b else "DIFFERS"
                    differences += a != b
                    hashes = ("missing" if data is None else _digest(data)[:16] for data in (a, b))
                    print(f"{verdict:8} {name} seed {seed} {label:40} {' '.join(hashes)}")
                    if a != b and None not in (a, b) and (report := drift(a, b)):
                        print(f"{'drift':8} {name} seed {seed} {label:40} {report}")
                if args.peak_rss:
                    for (label, a), (_, b) in zip(first_peaks, second_peaks):
                        print(f"peak-rss {name} seed {seed} {label:40} {a:7.1f} MB {b:7.1f} MB")
                    print(f"peak-rss {name} seed {seed} {'workload':40} "
                          f"{first_max:7.1f} MB {second_max:7.1f} MB")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
