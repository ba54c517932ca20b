"""Run bench/run.py over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads image-report small-cli --seeds 1-10 --tag set1
    python3 bench/spread.py --compare set1 set2

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
and the share of failed operations. Runs go one after another. The raw
results are written to bench/results/spread-<tag>.json. ``--compare``
reads two such files and prints, per metric, how much the second median
is above the first, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--tag", default="spread")
    parser.add_argument("--compare", nargs=2, metavar="TAG")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare, bounds={m["name"]: m["bound"] for m in spec["end_to_end"]})

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            begin = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            elapsed = time.perf_counter() - begin
            for line in proc.stderr.splitlines():  # wall times before the speed scaling
                if line.strip().startswith("as measured:"):
                    for item in line.split(":", 1)[1].split(";")[0].split(","):
                        key, value = item.split()
                        result["metrics"][f"{key}@measured"] = {"value": float(value)}
            raw.setdefault(workload, []).append({"seed": seed, "run_s": elapsed, **result})
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)

    print(f"\n{'workload':<14} {'metric':<20} {'median':>10} {'IQR/median':>11} {'bound':>6}"
          f" {'failed/attempted':>17}")
    summary = {}
    for workload, runs in raw.items():
        failed_share = sorted({r["failed"] / r["attempted"] for r in runs})
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[f"{workload}/{metric}"] = {"median": median, "spread": spread}
            print(f"{workload:<14} {metric:<20} {median:>10.5g} {spread:>11.4f}"
                  f" {bounds.get(metric) or '-':>6} {str(failed_share):>17}")
        if not all(r["correct"] for r in runs):
            print(f"{workload}: some runs reported correct=false")
    out = BENCH / "results" / f"spread-{args.tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"summary": summary, "runs": raw}, indent=1) + "\n",
                   encoding="utf-8")
    return 0


def compare(first: str, second: str, bounds: dict) -> int:
    a, b = (json.loads((BENCH / "results" / f"spread-{tag}.json").read_text(encoding="utf-8"))
            ["summary"] for tag in (first, second))
    print(f"{'workload/metric':<34} {first:>10} {second:>10} {'gap':>8} {'bound':>6}")
    for key in a:
        if key in b:
            gap = b[key]["median"] / a[key]["median"] - 1.0
            print(f"{key:<34} {a[key]['median']:>10.5g} {b[key]['median']:>10.5g} {gap:>+8.3f}"
                  f" {bounds.get(key.split('/')[1], '-'):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
