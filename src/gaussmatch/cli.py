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

``run`` may be called any number of times in one process; it builds its
parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
    family_fits,
    fit,
    whitening_transform,
)
from .gaussians import GaussianModel, cross_entropy, match_score
from .ingest import map_points_csv, output_file, read_moments, read_points_csv, read_text
from .ingest import sample_gaussian, write_image_blocks, write_points_csv
from .linalg import float_array, within_float_range
from .oracle import MAX_ORACLE_DIM, verify_families

MODEL_SCHEMA_VERSION = "1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exceptions.

    An argument that starts with '-' and a digit, such as the vector
    '-1,2' or the means '-0.5;mean', is a value, not an option.  Stock
    argparse reads only plain negative numbers that way.  The value of
    '--option=--' is the text '--'; some argparse versions drop it as the
    end-of-options marker and hand the command an empty list instead.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

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


@functools.cache
def _parser() -> _Parser:
    # Safe to share: parsing leaves a parser as it was, each parse_args makes
    # a new Namespace, and help text reads the terminal width and its stream
    # when printed.  build_parser() stays uncached, so that a caller who
    # extends the parser it gets cannot change run's.
    return build_parser()


def run(argv=None) -> int:
    """Run one command line and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  The exit code is 0 on success,
    1 on a usage error, 2 on a data or numerical error and 3 when
    verification fails.  A usage error is printed and returned as 1, not
    raised; ``-h`` prints help and raises ``SystemExit(0)``, as argparse
    does.  ``run`` may be called any number of times in one process, and
    builds its parser only on the first call.
    """
    try:
        args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
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


def _read_model(path: str) -> FitResult:
    text = read_text(path)
    try:
        doc = json.loads(text)
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
    result = fit(read_moments(args.input), FamilySpec(family, args.mean))
    with output_file(args.output) as handle:
        json.dump(fit_to_document(result), handle, indent=2)
        handle.write("\n")
    return 0


def _cmd_score(args) -> int:
    moments = read_moments(args.input)
    stored = _read_model(args.model)
    print(f"M {match_score(moments, stored.model)!r}")
    print(f"Hx {cross_entropy(moments, stored.model)!r}")
    return 0


def _cmd_transform(args) -> int:
    # The model is read first: the whitening map is built before the points
    # are, and a bad model is the error reported when both files are bad.
    whiten = whitening_transform(_read_model(args.model).model)
    if not args.plot:
        map_points_csv(args.input, functools.partial(whiten.apply, overwrite=True), args.output)
        return 0
    # The plot draws every point, so the points are read whole.
    out = whiten.apply(read_points_csv(args.input), overwrite=True)
    svg = scatter_svg(out)
    # The plot is opened first and written last, inside the points block:
    # a plot that cannot be opened leaves an existing points file alone, and
    # a failed write at either output removes both.
    with output_file(args.plot) as plot, output_file(args.output) as handle:
        write_points_csv(out, handle)
        plot.write(svg)
        plot.flush()
    return 0


def _cmd_report(args) -> int:
    moments = read_moments(args.input)
    labeled = _resolve_mean_tokens(args.means, moments.mean)
    # Each fixed-mean family has one row per mean, in the order given.
    labels = itertools.cycle(label for label, _ in labeled)
    rows = [(row.family.kind.value, "-" if row.family.fixed_mean is None else next(labels),
             row.match, row.cross_entropy)
            for row in family_fits(moments, [vec for _, vec in labeled])]
    with output_file(args.output or sys.stdout) as handle:
        _render_report(rows, args.format, handle)
    return 0


def _cmd_image_blocks(args) -> int:
    write_image_blocks(args.input, args.output, args.block)
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


def _render_report(rows, fmt: str, handle) -> None:
    """Write the table of (family, mean label, M, Hx) rows to ``handle``."""
    if fmt == "csv":
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["family", "mean", "match", "cross_entropy"])
        for family, label, match, ce in rows:
            writer.writerow([family, label, repr(match), repr(ce)])
        return
    widths = (
        max(len("family"), *(len(r[0]) for r in rows)),
        max(len("mean"), *(len(r[1]) for r in rows)),
    )
    lines = [f"{'family':<{widths[0]}}  {'mean':<{widths[1]}}  {'M':>14}  {'Hx':>14}"]
    for family, label, match, ce in rows:
        lines.append(f"{family:<{widths[0]}}  {label:<{widths[1]}}  {match:14.6g}  {ce:14.6g}")
    handle.write("\n".join(lines) + "\n")


# --- SVG scatter --------------------------------------------------------------

# Side of the square picture and the margin inside it, in pixels.
_SVG_SIZE = 640
_SVG_MARGIN = 40


def scatter_svg(points: np.ndarray) -> str:
    """Static SVG scatter of the first two coordinates with a unit axes cross.

    The cross marks the segments [-1, 1] on both axes through the origin,
    the natural scale after whitening.  One-dimensional input is drawn
    along the x axis.  Raises InvalidInputError when the points are not a
    nonempty (n, dim) array of numbers, or when the drawn range overflows
    the float range.
    """
    pts = float_array(points, "points")
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInputError("scatter_svg expects a nonempty (n, dim) array")
    x = pts[:, 0]
    y = pts[:, 1] if pts.shape[1] > 1 else np.zeros(pts.shape[0])
    lo = min(float(x.min()), float(y.min()), -1.0)
    hi = max(float(x.max()), float(y.max()), 1.0)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    width = within_float_range(lambda: hi - lo,
                               "points are too far apart to plot within the float range")
    scale = (_SVG_SIZE - 2 * _SVG_MARGIN) / width

    def sx(value: float) -> float:
        return _SVG_MARGIN + (value - lo) * scale

    def sy(value: float) -> float:
        return _SVG_SIZE - _SVG_MARGIN - (value - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
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
