"""End-to-end and per-layer benchmark of gaussmatch on three workloads.

Run from the repository root:

    python3 bench/run.py --workload image-report --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures, with tracing off, the four end-to-end
metrics (``cli_wall_s``, ``lib_wall_s``, ``setup_s``, ``peak_rss_mb``);
with ``--trace 1`` it makes a separate traced run and reports the
per-layer metrics. Every operation's output is checked (see workloads.py).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every process it starts, set before
# numpy loads: the machine has two cores, and threads that compete with
# the measured process make the timings wander.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from spans import Counters, Tracer, import_profile, patch_cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # per round
IMPORT_PROFILES = 3
PROCESS_TIMEOUT_S = 120.0
# Start no new round after this long, so that a run ends well within 180 s.
RUN_LIMIT_S = 140.0

# This machine's speed swings by 20-40 % within a minute, and every timing
# of a run moves with it. Beside each set-up the run times a fresh
# interpreter importing numpy and scipy.optimize, which runs no gaussmatch
# code, and reports the three times at the speed where that import takes
# REFERENCE_S: measured * REFERENCE_S / median(reference).
REFERENCE = "numpy, scipy.optimize"
REFERENCE_S = 0.5

CLI_COMMANDS = ("image-blocks", "report", "fit", "transform", "score", "synth", "verify")
LAYERS = ("cli", "ingest", "gaussians", "linalg", "families", "oracle")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Spawner:
    """Starts processes through bench/spawn.py, which says why."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout_path, stderr_path) -> tuple[int, float, float]:
        """Run a process to its end: (exit code, wall seconds, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps([argv, str(stdout_path), str(stderr_path)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher stopped")
        code, wall, rss = json.loads(reply)
        return code, wall, rss

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=PROCESS_TIMEOUT_S)


def digest(stdout: str, outputs) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


class Session:
    """Runs operations, checks their outputs and counts them."""

    def __init__(self, cli, work: Path, spawner: Spawner):
        self.cli = cli
        self.work = work
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # wrong outputs
        self.failures: list[str] = []  # operations that exited with an error
        self.reference: dict[tuple[str, int], str] = {}

    def _verify(self, key, op, code: int, stdout: str, stderr: str) -> None:
        """The first successful output of an operation gets the full check;
        later ones must match it byte for byte."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"{op.argv[0]} exited {code}: {stderr.strip()[-300:]}")
            return
        got = digest(stdout, op.outputs)
        if key not in self.reference:
            try:
                op.check(stdout)
            except wl.CheckError as exc:
                self.errors.append(f"{op.argv[0]}: {exc}")
                return
            self.reference[key] = got
        elif got != self.reference[key]:
            self.errors.append(f"{op.argv[0]}: output differs from the checked output")

    def cli_op(self, key, op) -> tuple[float, float]:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        code, wall, rss = self.spawner.run([sys.executable, "-m", "gaussmatch.cli", *op.argv],
                                           out_path, err_path)
        self._verify(key, op, code, out_path.read_text(encoding="utf-8"),
                     err_path.read_text(encoding="utf-8", errors="replace"))
        return wall, rss

    def lib_op(self, key, op) -> float:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.run(op.argv)
            wall = time.perf_counter() - start
        self._verify(key, op, code, out.getvalue(), err.getvalue())
        return wall

    def lib_pass(self, workload) -> float:
        return sum(self.lib_op((workload.name, i), op) for i, op in enumerate(workload.operations))


def import_time(spawner: Spawner, modules: str) -> float:
    """Wall time of a fresh interpreter that imports ``modules`` and exits."""
    code, wall, _ = spawner.run([sys.executable, "-c", f"import {modules}"], os.devnull, os.devnull)
    if code != 0:
        raise RuntimeError(f"a fresh interpreter could not import {modules}")
    return wall


def keep_going(started: float, measuring: float, seconds: int, round_s: float) -> bool:
    now = time.perf_counter()
    return now - measuring < seconds and now - started + round_s < RUN_LIMIT_S


def spread_evenly(count: int, slots: int) -> list[int]:
    """How many of ``count`` samples to take after each of ``slots`` steps."""
    return [(i + 1) * count // slots - i * count // slots for i in range(slots)]


def end_to_end(session, workload, seconds: int, started: float) -> dict:
    for modules in ("gaussmatch", REFERENCE):  # fill caches, compile bytecode; not counted
        import_time(session.spawner, modules)
    session.lib_pass(workload)  # warm-up: fills caches and runs the full checks
    ops = workload.operations
    lib_after = spread_evenly(workload.lib_repeats, len(ops))
    setup_after = spread_evenly(SETUP_SAMPLES, len(ops))
    cli_walls, peaks, lib_walls, setups, refs, op_walls = [], [], [], [], [], []
    measuring = time.perf_counter()
    round_s = 0.0
    # A round is one CLI pass with the in-process passes and set-ups spread
    # between its calls, so that every median spans the whole run: this
    # machine's speed drifts within seconds.
    while not cli_walls or keep_going(started, measuring, seconds, round_s):
        begin = time.perf_counter()
        walls, peak = [], 0.0
        for i, op in enumerate(ops):
            wall, rss = session.cli_op((workload.name, i), op)
            walls.append(wall)
            peak = max(peak, rss)
            for _ in range(lib_after[i]):
                gc.collect()
                lib_walls.append(session.lib_pass(workload))
            for _ in range(setup_after[i]):
                setups.append(import_time(session.spawner, "gaussmatch"))
                refs.append(import_time(session.spawner, REFERENCE))
        op_walls.append(walls)
        cli_walls.append(sum(walls))
        peaks.append(peak)
        round_s = time.perf_counter() - begin
    print(f"{workload.name}: {len(cli_walls)} rounds, {len(lib_walls)} library passes, "
          f"{len(setups)} set-ups", file=sys.stderr)
    for op, walls in zip(ops, zip(*op_walls)):
        family = op.argv[op.argv.index("--family") + 1] if "--family" in op.argv else ""
        label = f"{op.argv[0]} {family}".strip()
        print(f"  CLI {label:<28} median {statistics.median(walls):.3f} s", file=sys.stderr)
    measured = {"cli_wall_s": statistics.median(cli_walls),
                "lib_wall_s": statistics.median(lib_walls),
                "setup_s": statistics.median(setups)}
    slowness = statistics.median(refs) / REFERENCE_S
    print("  as measured: " + ", ".join(f"{k} {v:.4f}" for k, v in measured.items())
          + f"; reference import {statistics.median(refs):.4f} s, slowness {slowness:.3f}",
          file=sys.stderr)
    metrics = {key: (value / slowness, "s") for key, value in measured.items()}
    metrics["peak_rss_mb"] = (statistics.median(peaks), "MB")
    return metrics


def per_layer(session, workloads, name, seed, counters, env, seconds, started) -> dict:
    import gaussmatch as gm

    profiles = []
    for _ in range(IMPORT_PROFILES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gaussmatch.cli"],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S)
        profiles.append(import_profile(proc.stderr))
    for workload in workloads.values():  # warm-up, with the full checks
        session.lib_pass(workload)

    moments = gm.estimate_moments(wl.cut_tiles(wl.synthetic_photo(seed), 8))
    means = [moments.mean, np.full(moments.dim, 0.5), np.zeros(moments.dim)]
    oracle_rng = np.random.default_rng([seed, 4])
    oracle_points = oracle_rng.normal(0.0, 1.0, (70, 4)) @ np.diag([1.0, 0.8, 1.3, 0.6])
    oracle_model = gm.GaussianModel(oracle_points.mean(axis=0), np.cov(oracle_points.T, bias=True))
    oracle_calls = 500

    tracer = Tracer()

    def traced_pass(workload) -> float:
        tracer.trace_id = workload.name
        root = len(tracer.spans)
        with tracer.span(f"workload.{workload.name}"):
            for i, op in enumerate(workload.operations):
                with tracer.span(f"cli.{op.argv[0]}"):
                    session.lib_op((workload.name, i), op)
        return tracer.spans[root][2] - tracer.spans[root][1]

    chosen = workloads[name]
    rounds = []
    measuring = time.perf_counter()
    round_s = 0.0
    while not rounds or keep_going(started, measuring, seconds, round_s):
        begin = time.perf_counter()
        untraced, traced = [], []
        for _ in range(chosen.lib_repeats):
            gc.collect()
            untraced.append(session.lib_pass(chosen))
        first = len(tracer.spans)
        csv_bytes = [0]
        before = counters.snapshot()
        with patch_cli(tracer, session.cli, gm.families, csv_bytes):
            # The chosen workload's traced passes run next to its untraced
            # ones, for a fair overhead; only the last one's spans are kept.
            for _ in range(chosen.lib_repeats):
                del tracer.spans[first:]
                csv_bytes[0] = 0
                gc.collect()
                traced.append(traced_pass(chosen))
            for workload in workloads.values():
                if workload is not chosen:
                    traced_pass(workload)
        after_commands = counters.snapshot()
        tracer.trace_id = "probes"
        with tracer.span("families.family_report"):
            rows = gm.family_report(moments, means)
        eigh_calls = counters.snapshot()[0] - after_commands[0]
        if len(rows) != 12:
            session.errors.append(f"family_report gave {len(rows)} rows, expected 12")
        model = gm.fit(moments, gm.FamilySpec(gm.Family.FIXED_MEAN, means[1])).model
        for span_name, fn, arg in (("linalg.sym_eigen", gm.sym_eigen, (moments.cov,)),
                                   ("linalg.spd_power", gm.spd_power, (moments.cov, -0.5)),
                                   ("gaussians.match_score", gm.match_score, (moments, model)),
                                   ("gaussians.cross_entropy", gm.cross_entropy, (moments, model))):
            with tracer.span(span_name):
                fn(*arg)
        with tracer.span("oracle.empirical_cross_entropy"):
            for _ in range(oracle_calls):
                gm.empirical_cross_entropy(oracle_points, oracle_model)
        rounds.append(layer_metrics(
            tracer.totals(first), csv_bytes[0], eigh_calls,
            [a - b for a, b in zip(after_commands, before)][1:], oracle_calls,
            statistics.median(untraced), statistics.median(traced)))
        round_s = time.perf_counter() - begin

    counts = {key: {r[key][0] for r in rounds}
              for key in ("linalg.eigh_calls", "oracle.nm_evaluations", "oracle.nm_iterations")}
    for key, seen in counts.items():
        if len(seen) != 1:
            print(f"warning: {key} changed between rounds: {sorted(seen)}", file=sys.stderr)
    metrics = {key: (statistics.median(r[key][0] for r in rounds), rounds[0][key][1])
               for key in rounds[0]}
    metrics["cli.import_s"] = (statistics.median(p.get("gaussmatch", 0.0) for p in profiles), "s")
    metrics["cli.import_scipy_s"] = (statistics.median(p.get("scipy", 0.0) for p in profiles), "s")
    tracer.dump(BENCH / "results" / f"trace-{name}-seed{seed}.json",
                {"workload": name, "seed": seed, "rounds": len(rounds),
                 "metrics": {k: v[0] for k, v in metrics.items()}})
    print(f"traced run: {len(rounds)} rounds", file=sys.stderr)
    return metrics


def layer_metrics(totals, csv_bytes, eigh_calls, nm, oracle_calls, untraced, traced) -> dict:
    def total(span):
        return totals.get(span, {}).get("total_s", 0.0)

    out = {f"cli.{cmd}_s": (total(f"cli.{cmd}"), "s") for cmd in CLI_COMMANDS}
    for span in ("ingest.read_ppm", "ingest.image_to_blocks", "ingest.read_points_csv",
                 "ingest.write_points_csv", "ingest.sample_gaussian",
                 "gaussians.estimate_moments", "gaussians.match_score",
                 "gaussians.cross_entropy", "linalg.sym_eigen", "linalg.spd_power",
                 "families.family_report", "families.whitening_transform",
                 "families.transform_apply", "oracle.verify_families"):
        out[f"{span}_s"] = (total(span), "s")
    for kind in ("full", "fixed-mean", "isotropic", "fixed-mean-isotropic", "diagonal",
                 "fixed-mean-diagonal"):
        out[f"families.fit.{kind}_s"] = (total(f"families.fit.{kind}"), "s")
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in totals.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (self_s, "s")
    out["ingest.csv_mb"] = (csv_bytes / 1e6, "MB")
    out["linalg.eigh_calls"] = (eigh_calls, "count")
    out["oracle.nm_evaluations"] = (nm[0], "count")
    out["oracle.nm_iterations"] = (nm[1], "count")
    out["oracle.us_per_evaluation"] = (1e6 * total("oracle.verify_families") / max(nm[0], 1), "us")
    out["oracle.empirical_cross_entropy_us"] = (
        1e6 * total("oracle.empirical_cross_entropy") / oracle_calls, "us")
    out["trace.lib_wall_s"] = (traced, "s")
    out["trace.untraced_lib_wall_s"] = (untraced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "gaussmatch" / "__init__.py").is_file():
        print(f"error: no gaussmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    counters = None
    if args.trace:
        counters = Counters()
        counters.install()
    import gaussmatch
    import gaussmatch.cli

    if Path(gaussmatch.__file__).resolve().parent != SRC / "gaussmatch":
        print(f"error: imported gaussmatch from {gaussmatch.__file__}", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    session = Session(gaussmatch.cli, work, Spawner(env))
    try:
        if args.trace:
            workloads = {}
            for name in wl.WORKLOADS:
                (work / name).mkdir()
                workloads[name] = wl.build(name, args.seed, work / name)
            metrics = per_layer(session, workloads, args.workload, args.seed, counters, env,
                                args.seconds, started)
        else:
            workload = wl.build(args.workload, args.seed, work)
            metrics = end_to_end(session, workload, args.seconds, started)
    finally:
        session.spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    for failure in session.failures[:5]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for error in session.errors[:5]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:<14} {key:<38} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
