"""Inputs, command lines and output checks of the three benchmark workloads.

A workload turns the benchmark seed into input files and a list of
operations. An operation is one ``gaussmatch`` argument list together with
the check of what it printed and wrote. The checks never call gaussmatch:
they recompute the expected output with numpy (``loadtxt``, ``slogdet``,
``solve``) or plain Python, or test properties the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("image-report", "oracle-verify", "small-cli")

FAMILIES = (
    "full",
    "fixed-mean",
    "isotropic",
    "fixed-mean-isotropic",
    "diagonal",
    "fixed-mean-diagonal",
)
FIXED_MEAN = frozenset({"fixed-mean", "fixed-mean-isotropic", "fixed-mean-diagonal"})

LOG_TWO_PI = math.log(2.0 * math.pi)
EPS = np.finfo(float).eps

# The verify arguments are fixed, not drawn from the seed: the oracle's
# Nelder-Mead work varies by about 3 % between dataset seeds, and its
# evaluation counts must repeat exactly for the traced run.
VERIFY_TRIALS = 5
VERIFY_SEED = 0


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass
class Operation:
    """One gaussmatch argument list and the check of its output."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[str], None]  # gets the command's stdout; raises CheckError


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    lib_repeats: int  # in-process passes per CLI pass; more for short sessions


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- reference algebra, independent of gaussmatch ----------------------------


def sample_moments(points: np.ndarray):
    """Mean and covariance with divisor n, as the paper defines them."""
    mean = points.mean(axis=0)
    centered = points - mean
    return mean, centered.T @ centered / points.shape[0]


def entropy(cov: np.ndarray) -> float:
    """Hx of the data against its moment-matched Gaussian."""
    sign, logdet = np.linalg.slogdet(cov)
    _require(sign > 0, "reference covariance is not positive definite")
    return 0.5 * (cov.shape[0] * (LOG_TWO_PI + 1.0) + logdet)


def optimal_model(kind: str, mean_y, cov_y, pinned=None):
    """The closed-form optimum of a family: (mean, covariance, M)."""
    n = mean_y.size
    logdet = np.linalg.slogdet(cov_y)[1]
    d = None if pinned is None else pinned - mean_y
    if kind == "full":
        return mean_y, cov_y, 0.0
    if kind == "fixed-mean":
        q = float(d @ np.linalg.solve(cov_y, d))
        return pinned, cov_y + np.outer(d, d), 0.5 * math.log1p(q)
    if kind in ("isotropic", "fixed-mean-isotropic"):
        spread = float(np.trace(cov_y)) + (0.0 if d is None else float(d @ d))
        scale = spread / n
        centre = mean_y if d is None else pinned
        return centre, scale * np.eye(n), 0.5 * (n * math.log(scale) - logdet)
    variances = np.diag(cov_y) + (0.0 if d is None else d * d)
    centre = mean_y if d is None else pinned
    return centre, np.diag(variances), 0.5 * (float(np.log(variances).sum()) - logdet)


def general_match(mean_y, cov_y, mean, cov) -> float:
    """M(Y | m, S) = 1/2 (|m - m_Y|^2_S + tr(S^-1 S_Y) - ln det(S^-1 S_Y) - N)."""
    d = mean - mean_y
    maha = float(d @ np.linalg.solve(cov, d))
    trace = float(np.trace(np.linalg.solve(cov, cov_y)))
    log_ratio = np.linalg.slogdet(cov_y)[1] - np.linalg.slogdet(cov)[1]
    return 0.5 * (maha + trace - log_ratio - mean_y.size)


# The program's eigendecompositions and numpy's LU factors agree to about
# 1e-13 of (|H| + N) on the 192-dim image covariance (condition about 2e3).
REL_TOL = 1e-11


def _close(actual: float, expected: float, scale: float, what: str) -> None:
    tol = REL_TOL * max(1.0, scale)
    _require(
        math.isfinite(actual) and abs(actual - expected) <= tol,
        f"{what}: got {actual!r}, expected {float(expected)!r} (tolerance {tol:.1e})",
    )


def _load_points(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_whitened(path: Path, dim: int, count: int) -> None:
    """Whitened points have mean about 0 and covariance about I."""
    white = _load_points(path)
    _require(white.shape == (count, dim), f"{path.name}: shape {white.shape}")
    mean, cov = sample_moments(white)
    _require(float(np.abs(mean).max()) < 1e-9, f"{path.name}: mean {np.abs(mean).max():.2e}")
    worst = float(np.abs(cov - np.eye(dim)).max())
    _require(worst < 1e-8, f"{path.name}: covariance differs from I by {worst:.2e}")


def check_report(text: str, mean_y, cov_y, pinned: dict[str, np.ndarray]) -> None:
    """Every report row against the formulas, plus the properties of M."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[:1] == [["family", "mean", "match", "cross_entropy"]], "report header")
    table = {}
    for family, label, match, ce in rows[1:]:
        table[(family, label)] = (float(match), float(ce))
    expected_keys = {
        (kind, label)
        for kind in FAMILIES
        for label in (pinned if kind in FIXED_MEAN else ["-"])
    }
    _require(set(table) == expected_keys and len(rows) - 1 == len(expected_keys),
             f"report rows {sorted(table)}")
    h_y = entropy(cov_y)
    scale = abs(h_y) + mean_y.size
    for (kind, label), (match, ce) in table.items():
        _, _, expected = optimal_model(kind, mean_y, cov_y, pinned.get(label))
        _close(match, expected, scale, f"report M {kind}/{label}")
        _close(ce - match, h_y, scale, f"report Hx - M {kind}/{label}")
        _require(match >= 0.0, f"report M {kind}/{label} is negative: {match!r}")
    _require(table[("full", "-")][0] == 0.0, "report M of the full family is not 0")
    gaps = [ce - match for match, ce in table.values()]
    slack = REL_TOL * scale
    _require(max(gaps) - min(gaps) <= slack, "Hx - M differs between rows")
    for label in pinned:
        m = {kind: table[(kind, label)][0] for kind in FIXED_MEAN}
        _require(m["fixed-mean"] <= m["fixed-mean-diagonal"] + slack
                 and m["fixed-mean-diagonal"] <= m["fixed-mean-isotropic"] + slack,
                 f"fixed-mean nesting fails at mean {label}")
        for free, fixed in (("full", "fixed-mean"), ("isotropic", "fixed-mean-isotropic"),
                            ("diagonal", "fixed-mean-diagonal")):
            _require(table[(free, "-")][0] <= m[fixed] + slack,
                     f"pinning the mean at {label} lowered M of {free}")
    free = {kind: table[(kind, "-")][0] for kind in ("full", "diagonal", "isotropic")}
    _require(free["full"] <= free["diagonal"] + slack
             and free["diagonal"] <= free["isotropic"] + slack, "free-mean nesting fails")


def check_model(path: Path, kind: str, mean_y, cov_y, pinned=None) -> None:
    """A fit JSON against the closed-form optimum recomputed with numpy."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    _require(doc.get("schema_version") == "1", f"{path.name}: schema_version")
    _require(doc.get("family") == kind, f"{path.name}: family {doc.get('family')!r}")
    if pinned is None:
        _require(doc.get("fixed_mean") is None, f"{path.name}: unexpected fixed_mean")
    else:
        _require(np.array_equal(np.asarray(doc["fixed_mean"]), pinned),
                 f"{path.name}: fixed_mean is not the requested one")
    mean, cov, match = optimal_model(kind, mean_y, cov_y, pinned)
    size = float(np.abs(cov).max())
    _require(np.allclose(doc["mean"], mean, rtol=1e-12, atol=1e-12 * float(np.abs(mean).max())),
             f"{path.name}: mean")
    _require(np.allclose(doc["covariance"], cov, rtol=0.0, atol=1e-11 * size),
             f"{path.name}: covariance")
    h_y = entropy(cov_y)
    scale = abs(h_y) + mean_y.size
    _close(doc["match"], match, scale, f"{path.name}: match")
    _close(doc["cross_entropy"], match + h_y, scale, f"{path.name}: cross_entropy")
    if kind == "full":
        _require(doc["match"] == 0.0, f"{path.name}: M of the full family is not 0")


# --- image-report --------------------------------------------------------------


def synthetic_photo(seed: int, size: int = 512) -> np.ndarray:
    """Smooth colour gradients plus texture noise, 8-bit (tests/test_pipeline.py)."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / (size - 1)
    channels = [
        0.55 + 0.3 * np.sin(2 * np.pi * (1.5 * x + 0.3)) * np.cos(2 * np.pi * y),
        0.45 + 0.35 * x * y,
        0.5 + 0.25 * np.cos(2 * np.pi * (x - 2.0 * y)),
    ]
    stack = np.stack(channels, axis=-1) + rng.normal(0.0, 0.04, (size, size, 3))
    return np.clip(np.rint(stack * 255.0), 0, 255).astype(np.uint8)


def cut_tiles(pixels: np.ndarray, block: int) -> np.ndarray:
    """Tiles row-major, each flattened pixel-major and channel-minor, scaled by 1/255."""
    height, width = pixels.shape[:2]
    tiles = [
        pixels[ty : ty + block, tx : tx + block, :].reshape(-1)
        for ty in range(0, height - block + 1, block)
        for tx in range(0, width - block + 1, block)
    ]
    return np.array(tiles, dtype=np.float64) / 255.0


def image_report(seed: int, work: Path) -> Workload:
    pixels = synthetic_photo(seed)
    photo = work / "photo.ppm"
    photo.write_bytes(b"P6\n512 512\n255\n" + pixels.tobytes())
    tiles = cut_tiles(pixels, 8)
    mean_y, cov_y = sample_moments(tiles)
    blocks, report, model, white = (work / n for n in ("blocks.csv", "report.csv", "full.json",
                                                      "white.csv"))
    pinned = {"mean": mean_y, "0.5": np.full(192, 0.5), "0": np.zeros(192)}

    def check_blocks(_stdout: str) -> None:
        got = _load_points(blocks)
        _require(got.shape == tiles.shape and np.array_equal(got, tiles),
                 "blocks CSV differs from the tiles cut from the raster")

    ops = [
        Operation(["image-blocks", "--input", str(photo), "--block", "8", "--output", str(blocks)],
                  [blocks], check_blocks),
        Operation(["report", "--input", str(blocks), "--means", "mean;0.5;0", "--format", "csv",
                   "--output", str(report)],
                  [report],
                  lambda _s: check_report(report.read_text(encoding="utf-8"), mean_y, cov_y,
                                          pinned)),
        Operation(["fit", "--input", str(blocks), "--family", "full", "--output", str(model)],
                  [model], lambda _s: check_model(model, "full", mean_y, cov_y)),
        Operation(["transform", "--input", str(blocks), "--model", str(model),
                   "--output", str(white)],
                  [white], lambda _s: check_whitened(white, 192, 4096)),
    ]
    return Workload("image-report", ops, lib_repeats=2)


# --- oracle-verify -------------------------------------------------------------

_VERIFY_LINE = re.compile(
    r"^(\S+)\s+trials=(\d+)\s+max\|dM\|=\s*(\S+)\s+worst_margin=\s*(\S+)\s+(ok|FAIL)$"
)


def check_verify(stdout: str) -> None:
    """Every family within |dM| <= 1e-4 and margin >= -1e-6, and a passing verdict."""
    lines = stdout.strip().splitlines()
    _require(lines[-1:] == ["verification passed"], f"verify verdict {lines[-1:]}")
    seen = set()
    for line in lines[:-1]:
        match = _VERIFY_LINE.match(line)
        _require(match is not None, f"unparsed verify line {line!r}")
        family, trials, diff, margin, status = match.groups()
        _require(int(trials) == VERIFY_TRIALS, f"{family}: trials={trials}")
        _require(float(diff) <= 1e-4 and float(margin) >= -1e-6 and status == "ok",
                 f"{family}: max|dM|={diff} worst_margin={margin} {status}")
        seen.add(family)
    _require(seen == set(FAMILIES), f"verify families {sorted(seen)}")


def oracle_verify(seed: int, work: Path) -> Workload:
    argv = ["verify", "--dims", "1..4", "--trials", str(VERIFY_TRIALS), "--seed", str(VERIFY_SEED)]
    return Workload("oracle-verify", [Operation(argv, [], check_verify)], lib_repeats=1)


# --- small-cli -----------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def readme_normals(count: int, seed: int) -> list[float]:
    """The README's SplitMix64 + Box-Muller recipe in Python integers and math."""
    out = []
    for k in range((count + 1) // 2):
        w0 = _splitmix64((seed + (2 * k + 1) * 0x9E3779B97F4A7C15) & _MASK64)
        w1 = _splitmix64((seed + (2 * k + 2) * 0x9E3779B97F4A7C15) & _MASK64)
        u1 = ((w0 >> 11) + 1) * 2.0**-53
        u2 = (w1 >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        out += [radius * math.cos(angle), radius * math.sin(angle)]
    return out[:count]


def check_sample(path: Path, mean, sigma, seed: int, count: int) -> None:
    """Synth output against the README recipe.

    The covariance is diagonal with exact square roots, so the symmetric
    root is exact and each point is mean + z * sigma. numpy's vectorised
    log and Python's libm log disagree in the last bit on about 0.3 % of
    inputs, so a few values may differ by an ulp; anything beyond that is
    an error.
    """
    got = _load_points(path)
    z = np.array(readme_normals(count * mean.size, seed)).reshape(count, mean.size)
    expected = mean + z * sigma
    _require(got.shape == expected.shape, f"{path.name}: shape {got.shape}")
    tol = 4 * EPS * (np.abs(mean) + np.abs(z * sigma))
    worst = float(np.max(np.abs(got - expected) - tol))
    _require(worst <= 0.0, f"{path.name}: sample differs from the README recipe")


def check_score(stdout: str, model_path: Path, mean_y, cov_y) -> None:
    lines = stdout.splitlines()
    _require(len(lines) == 2 and lines[0].startswith("M ") and lines[1].startswith("Hx "),
             f"score output {lines}")
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    match = general_match(mean_y, cov_y, np.asarray(doc["mean"]), np.asarray(doc["covariance"]))
    scale = abs(entropy(cov_y)) + mean_y.size
    _close(float(lines[0][2:]), match, scale, "score M")
    _close(float(lines[1][3:]), match + entropy(cov_y), scale, "score Hx")


def small_cli(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    count = 200
    mean = np.round(rng.uniform(-3.0, 3.0, 2), 3)
    sigma = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], 2)  # exact squares and roots
    pinned = np.round(mean + rng.normal(0.0, 1.0, 2), 3)
    vec = ",".join(repr(float(v)) for v in mean)
    pin = ",".join(repr(float(v)) for v in pinned)
    cov = f"{float(sigma[0]) ** 2!r},0;0,{float(sigma[1]) ** 2!r}"
    points = work / "points.csv"
    white = work / "white.csv"
    models = {kind: work / f"{kind}.json" for kind in FAMILIES}
    moments = {}

    def check_synth(_stdout: str) -> None:
        moments["y"] = sample_moments(_load_points(points))
        check_sample(points, mean, sigma, seed, count)

    def fit_op(kind: str) -> Operation:
        argv = ["fit", "--input", str(points), "--family", kind, "--output", str(models[kind])]
        if kind in FIXED_MEAN:
            argv.append(f"--mean={pin}")  # '=' keeps a leading '-' from reading as an option
        return Operation(argv, [models[kind]], lambda _s: check_model(
            models[kind], kind, *moments["y"], pinned if kind in FIXED_MEAN else None))

    ops = [Operation(["synth", f"--mean={vec}", f"--cov={cov}", "--count", str(count), "--seed",
                      str(seed), "--output", str(points)], [points], check_synth)]
    ops += [fit_op(kind) for kind in FAMILIES]
    ops += [
        Operation(["score", "--input", str(points), "--model", str(models["isotropic"])], [],
                  lambda s: check_score(s, models["isotropic"], *moments["y"])),
        Operation(["transform", "--input", str(points), "--model", str(models["full"]),
                   "--output", str(white)], [white], lambda _s: check_whitened(white, 2, count)),
        Operation(["report", "--input", str(points), f"--means=mean;{pin}", "--format", "csv"],
                  [], lambda s: check_report(s, *moments["y"],
                                             {"mean": moments["y"][0], pin: pinned})),
    ]
    return Workload("small-cli", ops, lib_repeats=20)


def build(name: str, seed: int, work: Path) -> Workload:
    makers = {"image-report": image_report, "oracle-verify": oracle_verify, "small-cli": small_cli}
    return makers[name](seed, work)
