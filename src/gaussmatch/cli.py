"""Command-line interface.

Subcommands:

    fit           fit the optimal Gaussian of a family to CSV points
    score         evaluate a stored model against a dataset
    transform     apply the model's whitening map to a dataset
    report        fit every family and tabulate M and Hx
    image-blocks  turn a PPM image into a CSV of flattened tiles
    synth         draw a reproducible Gaussian sample
    verify        compare closed-form fits against the numerical oracle

Exit codes: 0 success, 1 usage error, 2 data or numerical error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys

import numpy as np

from .errors import GaussMatchError, InvalidInputError, ParseError
from .families import (
    FAMILY_ORDER,
    FIXED_MEAN_FAMILIES,
    Family,
    FamilySpec,
    FitResult,
    family_report,
    fit,
    whitening_transform,
)
from .gaussians import GaussianModel, cross_entropy, estimate_moments, match_score
from .ingest import image_to_blocks, read_points_csv, read_ppm, sample_gaussian, write_points_csv
from .oracle import MAX_ORACLE_DIM, verify_families

MODEL_SCHEMA_VERSION = "1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exceptions.

    An argument that starts with '-' and a digit, such as the vector
    '-1,2' or the means '-0.5;mean', is a value, not an option.  Stock
    argparse reads only plain negative numbers that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _floats(text: str, error: Exception) -> list[float]:
    """The comma-separated numbers of ``text``; raises ``error`` when one is not a number."""
    try:
        return [float(f) for f in text.split(",")]
    except ValueError:
        raise error from None


def _vector(text: str) -> np.ndarray:
    return np.asarray(_floats(text, argparse.ArgumentTypeError(f"invalid vector {text!r}")))


def _matrix(text: str) -> np.ndarray:
    error = argparse.ArgumentTypeError(f"invalid matrix {text!r}")
    rows = [_floats(row, error) for row in text.split(";")]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise argparse.ArgumentTypeError(f"ragged matrix {text!r}")
    return np.asarray(rows, dtype=float)


def _dims(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            # Clamped so that a bound out of range still yields an entry out of range.
            lo, hi = (min(max(v, 0), MAX_ORACLE_DIM + 1) for v in (lo, hi))
            return tuple(range(lo, hi + 1))
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid dimension list {text!r} (use e.g. '1..4' or '2,3')"
        ) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="gaussmatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one family to a CSV dataset")
    p_fit.add_argument("--input", required=True, help="CSV file of points")
    p_fit.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in FAMILY_ORDER],
        help="Gaussian family to fit",
    )
    p_fit.add_argument("--mean", type=_vector, help="fixed mean, e.g. '3,4'")
    p_fit.add_argument("--output", required=True, help="model JSON to write")
    p_fit.set_defaults(handler=_cmd_fit)

    p_score = sub.add_parser("score", help="match score of a stored model on a dataset")
    p_score.add_argument("--input", required=True, help="CSV file of points")
    p_score.add_argument("--model", required=True, help="model JSON from 'fit'")
    p_score.set_defaults(handler=_cmd_score)

    p_tr = sub.add_parser("transform", help="whiten a dataset with a stored model")
    p_tr.add_argument("--input", required=True, help="CSV file of points")
    p_tr.add_argument("--model", required=True, help="model JSON from 'fit'")
    p_tr.add_argument("--output", required=True, help="CSV file for transformed points")
    p_tr.add_argument("--plot", help="optional SVG scatter of the transformed points")
    p_tr.set_defaults(handler=_cmd_transform)

    p_rep = sub.add_parser("report", help="fit every family and tabulate M and Hx")
    p_rep.add_argument("--input", required=True, help="CSV file of points")
    p_rep.add_argument(
        "--means",
        default="mean",
        help="';'-separated fixed means: 'mean', a scalar, or a vector (default 'mean')",
    )
    p_rep.add_argument("--format", choices=("text", "csv"), default="text")
    p_rep.add_argument("--output", help="write the table here instead of stdout")
    p_rep.set_defaults(handler=_cmd_report)

    p_img = sub.add_parser("image-blocks", help="flatten PPM image tiles into CSV points")
    p_img.add_argument("--input", required=True, help="binary PPM (P6) image")
    p_img.add_argument("--output", required=True, help="CSV file for block vectors")
    p_img.add_argument("--block", type=int, default=8, help="tile side length (default 8)")
    p_img.set_defaults(handler=_cmd_image_blocks)

    p_syn = sub.add_parser("synth", help="draw a reproducible Gaussian sample")
    p_syn.add_argument("--mean", required=True, type=_vector, help="mean, e.g. '3,4'")
    p_syn.add_argument(
        "--cov", required=True, type=_matrix, help="covariance rows ';'-separated, e.g. '1,0.3;0.3,0.6'"
    )
    p_syn.add_argument("--count", required=True, type=int, help="number of points")
    p_syn.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    p_syn.add_argument("--output", required=True, help="CSV file to write")
    p_syn.set_defaults(handler=_cmd_synth)

    p_ver = sub.add_parser("verify", help="closed forms vs numerical oracle")
    p_ver.add_argument("--dims", type=_dims, default=(1, 2, 3, 4), help="e.g. '1..4' or '2,3'")
    p_ver.add_argument("--trials", type=int, default=50, help="datasets per family (default 50)")
    p_ver.add_argument("--seed", type=int, default=0, help="dataset seed (default 0)")
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        return int(args.handler(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GaussMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


# --- model documents ---------------------------------------------------------


def fit_to_document(result: FitResult) -> dict:
    """JSON-ready description of a fit; floats survive a round trip bit-exactly."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "family": result.family.kind.value,
        "fixed_mean": (
            None if result.family.fixed_mean is None else result.family.fixed_mean.tolist()
        ),
        "mean": result.model.mean.tolist(),
        "covariance": result.model.cov.tolist(),
        "match": result.match,
        "cross_entropy": result.cross_entropy,
    }


def fit_from_document(doc: dict) -> FitResult:
    """Rebuild a FitResult from its JSON document, validating the schema."""
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ParseError(f"unsupported model schema_version {version!r}")
    try:
        family = Family(doc["family"])
        fixed_mean = doc.get("fixed_mean")
        spec = FamilySpec(family, None if fixed_mean is None else np.asarray(fixed_mean, float))
        model = GaussianModel(
            mean=np.asarray(doc["mean"], dtype=float),
            cov=np.asarray(doc["covariance"], dtype=float),
        )
        return FitResult(
            model=model,
            match=float(doc["match"]),
            cross_entropy=float(doc["cross_entropy"]),
            family=spec,
        )
    except OverflowError:
        raise ParseError("model document holds a number beyond float range") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}") from None


def _write_model(result: FitResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fit_to_document(result), handle, indent=2)
        handle.write("\n")


def _read_model(path: str) -> FitResult:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except UnicodeDecodeError as exc:
            raise ParseError(f"model file is not UTF-8: {exc.reason}") from None
        except RecursionError:
            raise ParseError("model file is nested too deeply") from None
        except ValueError as exc:  # malformed JSON, or an integer beyond the digit limit
            raise ParseError(f"invalid JSON in model file: {exc}") from None
    return fit_from_document(doc)


# --- handlers ----------------------------------------------------------------


def _cmd_fit(args) -> int:
    family = Family(args.family)
    if family in FIXED_MEAN_FAMILIES and args.mean is None:
        raise _UsageError(f"family {family.value!r} requires --mean")
    if family not in FIXED_MEAN_FAMILIES and args.mean is not None:
        raise _UsageError(f"family {family.value!r} does not take --mean")
    points = read_points_csv(args.input)
    moments = estimate_moments(points)
    result = fit(moments, FamilySpec(family, args.mean))
    _write_model(result, args.output)
    return 0


def _cmd_score(args) -> int:
    points = read_points_csv(args.input)
    moments = estimate_moments(points)
    stored = _read_model(args.model)
    print(f"M {match_score(moments, stored.model)!r}")
    print(f"Hx {cross_entropy(moments, stored.model)!r}")
    return 0


def _cmd_transform(args) -> int:
    points = read_points_csv(args.input)
    stored = _read_model(args.model)
    transform = whitening_transform(stored.model)
    out = transform.apply(points)
    write_points_csv(out, args.output)
    if args.plot:
        with open(args.plot, "w", encoding="utf-8") as handle:
            handle.write(scatter_svg(out))
    return 0


def _cmd_report(args) -> int:
    points = read_points_csv(args.input)
    moments = estimate_moments(points)
    labeled = _resolve_mean_tokens(args.means, moments.mean)
    # Each fixed-mean family has one row per mean, in the order given.
    labels = itertools.cycle(label for label, _ in labeled)
    rows = [(row.family.value, "-" if row.fixed_mean is None else next(labels), row.match,
             row.cross_entropy) for row in family_report(moments, [vec for _, vec in labeled])]
    text = _render_report(rows, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_image_blocks(args) -> int:
    raster = read_ppm(args.input)
    blocks = image_to_blocks(raster, args.block)
    write_points_csv(blocks.blocks, args.output)
    return 0


def _cmd_synth(args) -> int:
    points = sample_gaussian(args.mean, args.cov, args.count, args.seed)
    write_points_csv(points, args.output)
    return 0


def _cmd_verify(args) -> int:
    checks = verify_families(dims=args.dims, trials=args.trials, seed=args.seed)
    for check in checks:
        status = "ok" if check.passed else "FAIL"
        print(
            f"{check.family.value:<22} trials={check.trials:<4d} "
            f"max|dM|={check.max_abs_diff:10.3e} worst_margin={check.worst_margin:10.3e} {status}"
        )
    if all(check.passed for check in checks):
        print("verification passed")
        return 0
    print("verification FAILED")
    return 3


def _resolve_mean_tokens(spec_text: str, data_mean: np.ndarray):
    """Expand the --means argument into (label, vector) pairs."""
    tokens = [t.strip() for t in spec_text.split(";") if t.strip()]
    if not tokens:
        raise _UsageError("--means must name at least one mean")
    resolved = []
    for token in tokens:
        if token == "mean":
            resolved.append((token, np.array(data_mean)))
            continue
        values = _floats(token, _UsageError(f"invalid mean token {token!r}"))
        # A scalar stands for that value in every coordinate; the library
        # checks a vector's dimension.
        vec = np.asarray(values) if len(values) > 1 else np.full(data_mean.size, values[0])
        resolved.append((token, vec))
    return resolved


def _render_report(rows, fmt: str) -> str:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["family", "mean", "match", "cross_entropy"])
        for family, label, match, ce in rows:
            writer.writerow([family, label, repr(match), repr(ce)])
        return buffer.getvalue()
    widths = (
        max(len("family"), *(len(r[0]) for r in rows)),
        max(len("mean"), *(len(r[1]) for r in rows)),
    )
    lines = [f"{'family':<{widths[0]}}  {'mean':<{widths[1]}}  {'M':>14}  {'Hx':>14}"]
    for family, label, match, ce in rows:
        lines.append(f"{family:<{widths[0]}}  {label:<{widths[1]}}  {match:14.6g}  {ce:14.6g}")
    return "\n".join(lines) + "\n"


# --- SVG scatter --------------------------------------------------------------


def scatter_svg(points: np.ndarray, size: int = 640, margin: int = 40) -> str:
    """Static SVG scatter of the first two coordinates with a unit axes cross.

    The cross marks the segments [-1, 1] on both axes through the origin,
    the natural scale after whitening.  One-dimensional input is drawn
    along the x axis.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInputError("scatter_svg expects a nonempty (n, dim) array")
    x = pts[:, 0]
    y = pts[:, 1] if pts.shape[1] > 1 else np.zeros(pts.shape[0])
    lo = min(float(x.min()), float(y.min()), -1.0)
    hi = max(float(x.max()), float(y.max()), 1.0)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    scale = (size - 2 * margin) / (hi - lo)

    def sx(value: float) -> float:
        return margin + (value - lo) * scale

    def sy(value: float) -> float:
        return size - margin - (value - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{sx(-1):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(0):.2f}" '
        f'stroke="#444444" stroke-width="1.5"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(-1):.2f}" x2="{sx(0):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#444444" stroke-width="1.5"/>',
    ]
    for xi, yi in zip(x, y):
        parts.append(
            f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="1.5" '
            f'fill="#1f6fb4" fill-opacity="0.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    main()
