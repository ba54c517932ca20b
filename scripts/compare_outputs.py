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

Then ``report`` runs on three damaged copies of each points CSV the
workload reads: one with a bad field in its last row, one with a ragged
row at the first block boundary of the reader (2**14 cells), or at its
last row when the file is shorter, and one with ``nan`` in its middle
row.  So two trees are shown to agree on error text and exit code too.

Exit status: 0 when every output and exit code agrees, 1 otherwise.
``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
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


def _damaged(text: str) -> dict[str, str]:
    """Damaged copies of the text of a points CSV with no header, by kind."""
    lines = text.splitlines()
    width = lines[0].count(",") + 1

    def edit(index: int, change) -> str:
        copy = list(lines)
        copy[index] = change(copy[index])
        return "\n".join(copy) + "\n"

    return {
        "bad-last": edit(-1, lambda row: row + "x"),
        "ragged-block": edit(min(2**14 // width, len(lines) - 1), lambda row: row + ",0"),
        "nan-middle": edit(len(lines) // 2, lambda row: "nan" + row[len(row.split(",")[0]):]),
    }


def run_tree(tree: Path, name: str, seed: int, work: Path) -> list[tuple[str, str]]:
    """(label, digest) of each exit code, stdout, stderr and output file, in command order."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, seed, work)
    env = dict(os.environ, PYTHONPATH=str(tree))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    outputs = []

    def run(label: str, argv: list[str], files=()) -> None:
        proc = subprocess.run([sys.executable, "-m", "gaussmatch.cli", *argv],
                              capture_output=True, env=env, cwd=work)
        outputs.append((f"{label} exit", str(proc.returncode)))
        outputs.append((f"{label} stdout", _digest(proc.stdout)))
        outputs.append((f"{label} stderr", _digest(proc.stderr)))
        for path in files:
            digest = _digest(path.read_bytes()) if path.exists() else "missing"
            outputs.append((f"{label} {path.name}", digest))

    inputs = []
    for index, op in enumerate(workload.operations, start=1):
        run(f"{index}:{op.argv[0]}", op.argv, op.outputs)
        if "--input" in op.argv:
            inputs.append(Path(op.argv[op.argv.index("--input") + 1]))
    for path in dict.fromkeys(p for p in inputs if p.suffix == ".csv" and p.exists()):
        for kind, text in _damaged(path.read_text(encoding="utf-8")).items():
            copy = work / f"{kind}-{path.name}"
            copy.write_text(text, encoding="utf-8")
            run(f"{kind} {path.name}", ["report", "--input", str(copy), "--format", "csv"])
    return outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="source tree holding the gaussmatch package")
    parser.add_argument("second", type=Path, help="source tree to compare with the first")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = parser.parse_args()
    trees = [tree.resolve() for tree in (args.first, args.second)]
    for tree in trees:
        if not (tree / "gaussmatch" / "__init__.py").is_file():
            parser.error(f"{tree} holds no gaussmatch package")

    differences = 0
    with tempfile.TemporaryDirectory(prefix="gaussmatch-compare-") as scratch:
        work = Path(scratch) / "work"
        for name in args.workloads:
            for seed in args.seeds:
                first, second = (run_tree(tree, name, seed, work) for tree in trees)
                for (label, a), (_, b) in zip(first, second):
                    verdict = "same" if a == b else "DIFFERS"
                    differences += a != b
                    print(f"{verdict:8} {name} seed {seed} {label:40} {a[:16]} {b[:16]}")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
