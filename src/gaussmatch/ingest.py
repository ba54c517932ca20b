"""Data ingestion: CSV point sets, PPM images, and seeded Gaussian sampling.

Files are opened in two places.  ``_read_bytes`` reads a file whole:
``read_ppm`` takes its bytes as they are, and ``read_text`` decodes them as
UTF-8, naming the line of a byte that is not UTF-8 and skipping one
byte-order mark, for the points CSV and the model JSON.  ``output_file``
opens every file the package writes (points CSV, PPM image, model JSON,
report and SVG plot) and removes it when its write fails part way, at the
final close included.

``image_to_blocks`` cuts a ``Raster`` into the (tiles, 3 * b**2) matrix of
its flattened b x b tiles, a point array like any other.

The sampler is deliberately self-contained rather than delegating to a
library generator: it derives every variate from a counter-based SplitMix64
stream followed by the Box-Muller transform, so a (seed, index) pair maps
to the same double on any platform and the exact recipe can be restated in
a few lines (see README).  Reproducibility of sampled datasets is part of
the package contract, not an implementation detail.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from contextlib import contextmanager
from functools import partial
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, ParseError
from .gaussians import GaussianModel, as_point_set
from .linalg import float_array, integer, require_seed, spd_factor

# --- Files ------------------------------------------------------------------


@contextmanager
def output_file(destination, binary: bool = False):
    """Context manager giving a stream to write ``destination`` through.

    An open stream is handed back as it is, and left open.  A path is
    opened for UTF-8 text, or for bytes when ``binary`` is true, and closed
    when the block ends; when the block or the final close raises, the file
    is removed if it is a regular file (not a device or a pipe), so that a
    write that fails part way leaves no partial file behind.
    """
    if hasattr(destination, "write"):
        yield destination
        return
    handle = open(destination, "wb" if binary else "w", encoding=None if binary else "utf-8")
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    try:
        with handle:
            yield handle
    except BaseException:
        if regular:
            os.remove(destination)
        raise


def read_text(source) -> str:
    """The whole text of a path or stream.

    A path is read like a file opened in text mode, with CRLF and CR line
    ends turned into LF; a stream's text is taken as it is.  One leading
    byte-order mark (U+FEFF), as spreadsheet programs write, is dropped.
    Bytes that are not UTF-8 raise ParseError with the line they are on.
    """
    if hasattr(source, "read"):
        try:
            data = source.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"text is not UTF-8: {exc.reason}") from None
        if isinstance(data, str):
            return data.removeprefix("\ufeff")
        universal = False
    else:
        data, universal = _read_bytes(source), True
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        if universal:
            head = _universal_newlines(head)
        raise ParseError(
            f"text is not UTF-8 (byte 0x{data[exc.start]:02x}: {exc.reason})",
            line=head.count("\n") + 1,
        ) from None
    text = text.removeprefix("\ufeff")
    return _universal_newlines(text) if universal else text


def _universal_newlines(text: str) -> str:
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_bytes(source) -> bytes:
    """The whole content of a path or binary stream."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            raise InvalidInputError("PPM input must be a binary stream or a path")
        return data
    with open(os.fspath(source), "rb") as handle:
        return handle.read()


# --- CSV point sets ---------------------------------------------------------

# Cells (rows times columns) in one block of a CSV that is decoded or
# written out, so that no copy of the whole text is built and an error is
# found by re-reading one block.  On the 4096x192 image blocks (2-vCPU
# host), blocks of 2**10 to 2**17 cells take the same time within noise,
# while the peak RSS of a fresh process that reads the blocks or writes
# their whitened points rises from about 2**15 cells on (2**14: 64.6 and
# 36.3 MB; 2**17: 75.8 and 51.2 MB).
_BLOCK_CELLS = 2**14


def read_points_csv(source) -> np.ndarray:
    """Read an (n, dim) point set from UTF-8 CSV text.

    ``source`` may be a path or an open text/binary stream.  One row per
    point, comma-separated coordinates in any spelling Python's ``float``
    accepts.  Blank lines and lines starting with '#' are skipped; the
    first remaining row is a header, and is dropped, when none of its
    fields is a number.  Raises ParseError (with the 1-based line number)
    on text that is not UTF-8, on malformed rows and on values that are
    not finite, and InsufficientDataError for fewer than two points.
    """
    numbers, lines = _data_rows(read_text(source))
    width = lines[0].count(",") + 1 if lines else 0
    # Both fast decoders accept only what the line loop accepts, with the
    # same bits.  A block the decoder refuses, or whose values have another
    # shape or are not all finite, is read again by the line loop, which
    # names the line of its first error.
    decode = partial(_decode_distinct, table=_FieldValues()) if _repeats(lines) else _decode_numpy
    points = np.empty((len(lines), width))
    step = _block_rows(width)
    for start in range(0, len(lines), step):
        rows = slice(start, start + step)
        block = points[rows]
        values = decode(lines[rows], width)
        if values is None or values.shape != block.shape or not np.isfinite(values).all():
            values = _decode_lines(list(zip(numbers[rows].tolist(), lines[rows])), width)
        block[:] = values
    if len(lines) < 2:
        raise InsufficientDataError(f"need at least 2 points, got {len(lines)}")
    return as_point_set(points)


def _data_rows(text: str) -> tuple[np.ndarray, list[str]]:
    """1-based line numbers and stripped lines of the rows that hold points.

    Blank lines and lines starting with '#' are dropped, and so is the first
    remaining row when it is a header.  The numbers are one int64 array, not
    a tuple beside each line, so that a tall file costs 8 bytes a row for
    them (a (number, line) tuple and its int take about 90).
    """
    lines = [raw.strip() for raw in text.split("\n")]
    kept = [line and line[0] != "#" for line in lines]
    numbers = np.flatnonzero(np.fromiter(kept, bool, len(kept))) + 1
    lines = list(compress(lines, kept))
    if lines and _is_header(lines[0]):
        numbers = numbers[1:]
        del lines[0]
    return numbers, lines


def _repeats(rows) -> bool:
    """Whether at most half of the values in about 64 rows spread over ``rows`` are distinct.

    The one rule by which both CSV codecs choose a table of distinct values.
    ``rows`` are the CSV lines a reader decodes, whose values are their
    fields, or the points a writer encodes, whose values are the bit
    patterns of their floats (float equality merges -0.0 with 0.0, whose
    reprs differ).  Spread, not the first rows, so that an input whose head
    repeats and whose body does not keeps the per-value path: the table
    would hold nearly every value.  Counted with a set, not ``np.unique``,
    whose sort code alone adds about 1 MB to the peak RSS of a process that
    then takes the loop.
    """
    sample = rows[:: max(1, len(rows) // 64)]
    if isinstance(sample, np.ndarray):
        values = np.ascontiguousarray(sample).view(np.int64).ravel().tolist()
    else:
        values = ",".join(sample).split(",")
    return 2 * len(set(values)) <= len(values)


class _FieldValues(dict):
    """``float`` of each field, converted on its first lookup."""

    def __missing__(self, field: str) -> float:
        value = self[field] = float(field)
        return value


def _decode_distinct(lines: list[str], width: int, table: _FieldValues):
    """The rows, each distinct field converted once by ``float`` through
    ``table``; None on a row of another width or a field ``float`` refuses."""
    if any(line.count(",") != width - 1 for line in lines):
        return None
    fields = ",".join(lines).split(",")
    try:
        points = np.fromiter(map(table.__getitem__, fields), float, len(fields))
    except ValueError:
        return None
    return points.reshape(len(lines), width)


def _decode_numpy(lines: list[str], width: int):
    """The rows by numpy's C reader, or None where it refuses one.

    It strips the same whitespace as the line loop and reads a field with
    the same string-to-double routine, but refuses underscores and
    non-ASCII digits in numbers, which the line loop then takes.  The
    reader checks the shape of the result against ``width``.
    """
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None


def _block_rows(width: int) -> int:
    """Rows in a block of about ``_BLOCK_CELLS`` cells, at least one."""
    return max(1, _BLOCK_CELLS // max(width, 1))


def _decode_lines(rows: list[tuple[int, str]], width: int) -> list[list[float]]:
    """Decode numbered rows one by one: the reference for what is accepted.

    Raises ParseError naming the first row with a field ``float`` refuses,
    a value that is not finite or other than ``width`` fields.
    """
    points = []
    for line_no, line in rows:
        try:
            values = [float(f.strip()) for f in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"could not parse row: {exc}", line=line_no) from None
        if not all(map(math.isfinite, values)):
            raise ParseError("row has a value that is not finite", line=line_no)
        if len(values) != width:
            raise ParseError(f"row has {len(values)} fields, expected {width}", line=line_no)
        points.append(values)
    return points


def _is_header(line: str) -> bool:
    """A header row is one in which no field parses as a number."""
    for field in line.split(","):
        try:
            float(field)
        except ValueError:
            continue
        return False
    return True


def write_points_csv(points, destination) -> None:
    """Write points as CSV with full round-trip precision (repr of each float).

    Each value is written as Python's ``repr`` of it, one row per line.
    When the values repeat a lot, as the 8-bit samples of image blocks do,
    ``repr`` runs once per distinct value and rows are joined from that
    table; otherwise each value is formatted in turn.  Both paths write the
    same bytes, in blocks of rows, each written as soon as it is formatted.
    ``destination`` is a path or an open text stream; a path is written
    through ``output_file``, so a write that fails part way, at the final
    close included, leaves no file.
    """
    pts = float_array(points, "points")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise InvalidInputError(f"expected an (n, dim) array, got shape {pts.shape}")
    with output_file(destination) as handle:
        for block in _text_blocks(pts):
            handle.write(block)


def _text_blocks(pts: np.ndarray):
    """Generator of the CSV text of the points, about ``_BLOCK_CELLS`` cells at a time."""
    table = None
    if _repeats(pts):
        # Keyed on bit patterns: float equality merges -0.0 with 0.0, whose reprs differ.
        bits = np.ascontiguousarray(pts).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        table = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        codes = inverse.reshape(pts.shape)
    step = _block_rows(pts.shape[1])
    # An empty point set is one empty line, as "\n".join of no rows plus "\n".
    for start in range(0, max(len(pts), 1), step):
        if table is None:
            lines = [",".join(map(repr, row)) for row in pts[start : start + step].tolist()]
        else:
            lines = map(",".join, table[codes[start : start + step]].tolist())
        yield "\n".join(lines) + "\n"


# --- PPM images -------------------------------------------------------------


class Raster(NamedTuple):
    """Decoded image: integer samples of shape (height, width, 3) plus maxval."""

    pixels: np.ndarray
    maxval: int


def read_ppm(source) -> Raster:
    """Decode a binary PPM (magic ``P6``) image.

    Supports 8-bit and big-endian 16-bit samples and '#' comments in the
    header, whose width, height and maxval are ASCII decimal digits.
    Raises ParseError on anything malformed, a sample above maxval included.
    """
    data = _read_bytes(source)
    pos = 0

    def next_token(position: int):
        while position < len(data):
            byte = data[position]
            if byte in b" \t\r\n":
                position += 1
            elif byte == ord("#"):
                while position < len(data) and data[position] not in b"\r\n":
                    position += 1
            else:
                break
        if position >= len(data):
            raise ParseError("unexpected end of PPM header")
        start = position
        while position < len(data) and data[position] not in b" \t\r\n":
            position += 1
        return data[start:position], position

    magic, pos = next_token(pos)
    if magic != b"P6":
        raise ParseError(f"unsupported image magic {magic!r}, expected b'P6'")
    header: list[int] = []
    for name in ("width", "height", "maxval"):
        token, pos = next_token(pos)
        if not token.isdigit():  # bytes.isdigit is ASCII only; int() also takes '+', '_'
            raise ParseError(f"invalid {name} field {token!r}")
        try:
            value = int(token)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"invalid {name} field of {len(token)} digits") from None
        if value <= 0:
            raise ParseError(f"{name} must be positive, got {value}")
        header.append(value)
    width, height, maxval = header
    if maxval > 65535:
        raise ParseError(f"maxval {maxval} out of range (max 65535)")
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise ParseError("missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header and raster
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    needed = width * height * 3 * dtype.itemsize
    raster = data[pos : pos + needed]
    if len(raster) < needed:
        raise ParseError(
            f"truncated raster: expected {needed} bytes, found {len(raster)}"
        )
    samples = np.frombuffer(raster, dtype=dtype)
    top = int(samples.max())
    if top > maxval:
        raise ParseError(f"sample value {top} exceeds maxval {maxval}")
    pixels = samples.reshape(height, width, 3).astype(np.uint16)
    return Raster(pixels=pixels, maxval=maxval)


def _checked_raster(raster: Raster) -> tuple[np.ndarray, int]:
    """The pixels and maxval of a raster that ``read_ppm`` could have returned.

    Raises InvalidInputError unless maxval is an integer in 1..65535 and the
    pixels are a nonempty (height, width, 3) array of integers in 0..maxval.
    """
    maxval = integer(raster.maxval, "maxval", high=65535)
    if maxval < 1:
        raise InvalidInputError("maxval must be positive")
    try:
        pixels = np.asarray(raster.pixels)
    except ValueError:  # nested sequences of unequal lengths
        raise InvalidInputError("expected (height, width, 3) pixels, got ragged sequences") from None
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise InvalidInputError(f"expected (height, width, 3) pixels, got {pixels.shape}")
    if pixels.size == 0:
        raise InvalidInputError("image has no pixels")
    if not np.issubdtype(pixels.dtype, np.integer):
        raise InvalidInputError(f"pixels must have an integer dtype, got {pixels.dtype}")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise InvalidInputError("pixel values must lie in [0, maxval]")
    return pixels, maxval


def write_ppm(raster: Raster, destination) -> None:
    """Encode a Raster as binary PPM (P6), 16-bit big-endian when maxval > 255.

    Raises InvalidInputError on a raster that ``read_ppm`` would not return,
    so every file written reads back as the same raster.  ``destination``
    is a path or an open binary stream; a path is written through
    ``output_file``, so a write that fails part way, at the final close
    included, leaves no file.
    """
    pixels, maxval = _checked_raster(raster)
    height, width = pixels.shape[:2]
    header = f"P6\n{width} {height}\n{maxval}\n".encode("ascii")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    body = pixels.astype(dtype).tobytes()
    with output_file(destination, binary=True) as handle:
        handle.write(header + body)


def image_to_blocks(raster: Raster, block_size: int = 8) -> np.ndarray:
    """Cut an image into non-overlapping square tiles, one row of the result each.

    Tiles are taken left to right, top to bottom; partial tiles at the
    right and bottom edges are discarded.  Each row holds one tile,
    flattened pixel-major with the channel index fastest, so the result has
    shape (tiles, 3 * block_size**2): an 8x8 RGB tile is a vector of
    dimension 192.  Channel values are divided by the raster's maxval, so
    every coordinate lies in [0, 1]; the raster is checked as ``write_ppm``
    checks it.
    """
    block_size = integer(block_size, "block size")
    if block_size < 1:
        raise InvalidInputError("block size must be positive")
    pixels, maxval = _checked_raster(raster)
    height, width = pixels.shape[:2]
    tiles_y, tiles_x = height // block_size, width // block_size
    if tiles_y == 0 or tiles_x == 0:
        raise InvalidInputError(
            f"image {width}x{height} is smaller than one {block_size}x{block_size} block"
        )
    cropped = pixels[: tiles_y * block_size, : tiles_x * block_size, :]
    scaled = cropped.astype(float) / float(maxval)
    return (
        scaled.reshape(tiles_y, block_size, tiles_x, block_size, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(tiles_y * tiles_x, block_size * block_size * 3)
    )


# --- Seeded Gaussian sampling ------------------------------------------------

# Most variates one call may ask for: half the 8-byte values numpy can size
# (sys.maxsize bytes), because the stream rounds a count up to whole pairs
# of words and ``np.arange`` works out its length in doubles, which round
# up near that limit.  A larger count is an argument error; a smaller one
# that memory cannot hold is a MemoryError.
_MAX_VARIATES = sys.maxsize // 16
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to uint64 words."""
    z = state.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


def _stream_words(seed: int, count: int) -> np.ndarray:
    """Word i of the stream is splitmix64(seed + (i + 1) * golden-gamma)."""
    base = np.uint64(int(seed))
    index = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _splitmix64(base + index * _GOLDEN)


def standard_normals(count: int, seed: int) -> np.ndarray:
    """Deterministic standard normal variates from a counter-based stream.

    Consecutive word pairs (2k, 2k+1) are mapped to uniforms
    u1 = ((word >> 11) + 1) * 2**-53 in (0, 1] and u2 = (word >> 11) * 2**-53
    in [0, 1), then to a normal pair by Box-Muller:

        z_{2k}   = sqrt(-2 ln u1) * cos(2 pi u2)
        z_{2k+1} = sqrt(-2 ln u1) * sin(2 pi u2)

    The result depends only on (count, seed), never on call history.  ``ln``,
    ``cos`` and ``sin`` come from the C math library through ``math``, as in
    the recipe; numpy's vectorised versions differ from it in the last bit
    on a fraction of a percent of inputs.  The count must be an integer in
    ``0..sys.maxsize // 16`` and the seed one in ``0..2**64-1``; any other
    value raises InvalidInputError.
    """
    count = integer(count, "count", high=_MAX_VARIATES)
    if count < 0:
        raise InvalidInputError("count must be nonnegative")
    require_seed(seed)
    pairs = (count + 1) // 2
    if pairs == 0:
        return np.empty(0)
    words = _stream_words(seed, 2 * pairs)
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float, pairs))
    angle = (2.0 * math.pi * u2).tolist()
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.fromiter(map(math.cos, angle), float, pairs)
    out[1::2] = radius * np.fromiter(map(math.sin, angle), float, pairs)
    return out[:count]


def sample_gaussian(mean, cov, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points from Nor(mean, cov), reproducibly across platforms.

    Points are mean + z @ cov**(1/2) with the symmetric square root and the
    ``standard_normals`` stream laid out row by row.  The covariance must be
    positive definite, the count at most ``standard_normals``'s bound divided
    by the dimension, and the seed an integer in ``0..2**64-1``.
    """
    require_seed(seed)
    model = GaussianModel(mean, cov)
    count = integer(count, "count", high=_MAX_VARIATES // model.dim)
    if count < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {count}")
    root = spd_factor(model.cov, name="covariance").power(0.5)
    z = standard_normals(count * model.dim, seed).reshape(count, model.dim)
    return model.mean + z @ root
