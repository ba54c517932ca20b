"""Data ingestion: CSV point sets, PPM images, and seeded Gaussian sampling.

Files are opened in two places.  ``_read_chunks`` only reads a path or a
stream a chunk at a time: ``read_ppm`` takes the bytes of one whole read as
they are.  ``_text_pieces`` alone knows where a line ends and which line it
is: it cuts the chunks at line ends, turns a path's CRLF and CR into LF,
decodes each piece as UTF-8 as it arrives, naming the line of a byte that
is not UTF-8, skips one byte-order mark, and gives each piece with the
number of its first line.  ``read_text`` joins those pieces for the model
JSON; ``read_points_csv`` decodes the rows of each piece as it arrives, so
that it never holds the bytes or the text of a whole file.
``output_file`` opens every file the package writes (points CSV, PPM
image, model JSON, report and SVG plot) and removes it when its write
fails part way, at the final close included.

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
import re
import stat
import sys
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, ParseError
from .gaussians import GaussianModel
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
    """The whole text of a path or stream, as ``_text_pieces`` gives it.

    A path's CRLF and CR line ends are turned into LF, as text mode turns
    them; a stream's text is taken as it is.  One leading byte-order mark
    (U+FEFF), as spreadsheet programs write, is dropped.  Bytes that are
    not UTF-8 raise ParseError with the line they are on.
    """
    return "".join(piece for _, piece in _text_pieces(source))


# Bytes, or characters of a text stream, read at a time.  Text is decoded
# one such chunk at a time, cut at its last line end, so that neither the
# bytes nor the text of a whole file is held at once.
_CHUNK_SIZE = 2**16


def _read_chunks(source, size: int):
    """Generator of the content of a path or stream, ``size`` bytes at a time.

    A stream's chunks are what its ``read(size)`` gives, bytes or str; a
    path is read as bytes.  The last chunk is empty, and no other is, so
    that even an empty stream shows whether it gives bytes.
    """
    opened = nullcontext(source) if hasattr(source, "read") else open(os.fspath(source), "rb")
    with opened as handle:
        while chunk := handle.read(size):
            yield chunk
        yield chunk


def _text_pieces(source):
    """Generator of (first line, piece) for the text ``read_text`` returns,
    in pieces that end at a LF, but the last; lines are numbered from 1.

    The source is read ``_CHUNK_SIZE`` bytes at a time.  A stream's chunk is
    cut after its last LF.  A path's chunk is cut after its last LF or after
    its last CR that is not its final byte, so that a CR at a chunk's end
    waits to show whether a LF follows it, and the piece's CRLF and CR line
    ends are turned into LF before it is decoded.  Line-end bytes are not
    part of a multi-byte UTF-8 character, so a piece is cut, and converted,
    between characters.  Only the new chunk is searched for a line end, and
    the parts of a line that several chunks hold are joined once, so that a
    long line costs time linear in its length.
    """
    path = not hasattr(source, "read")
    line = 1  # the line the next piece starts on
    start = True  # no text has been given yet, so a byte-order mark may come
    head = []  # the parts of a line read so far, before its end
    try:
        for chunk in _read_chunks(source, _CHUNK_SIZE):
            # the empty last chunk ends the text, whether or not a line end does
            cut = chunk.rfind(b"\n" if isinstance(chunk, bytes) else "\n") + 1
            if path:
                cut = max(cut, chunk.rfind(b"\r", 0, -1) + 1)
            if chunk and not cut:
                head.append(chunk)
                continue
            piece = chunk[:0].join([*head, chunk[:cut]])
            head = [chunk[cut:]]
            if path and b"\r" in piece:  # the regex pass costs ~20x a search for CR
                piece = re.sub(rb"\r\n?", b"\n", piece)
            if isinstance(piece, bytes):
                try:
                    piece = piece.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"text is not UTF-8 (byte 0x{piece[exc.start]:02x}: {exc.reason})",
                        line=line + piece.count(b"\n", 0, exc.start),
                    ) from None
            if start and piece:
                piece, start = piece.removeprefix("\ufeff"), False
            yield line, piece
            line += piece.count("\n")
    except UnicodeDecodeError as exc:  # a text stream's own decoding
        raise ParseError(f"text is not UTF-8: {exc.reason}") from None


# --- CSV point sets ---------------------------------------------------------

# Cells (rows times columns) in one block of a CSV that is written out, so
# that no copy of the whole text is built; also the most values either
# codec's table of distinct values may hold before it is left.  On the
# 4096x192 image blocks (2-vCPU host), written blocks of 2**10 to 2**17
# cells take the same time within noise, while the memory traced while
# writing their whitened points grows from about 2**15 cells on (2**14:
# 1.5 MiB; 2**17: 11.5 MiB).
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

    The text is read a chunk at a time, and the rows of each piece that a
    line end closes are decoded as it arrives and appended to one buffer,
    which grows by about an eighth, so that the memory taken beyond the
    result is bounded by an eighth of it, the chunk size and the longest
    line.  The points are a view of that buffer: writable and C-ordered,
    but not the owner of their memory.
    """
    pieces = _text_pieces(source)
    try:
        points = _decode_blocks(_data_rows(pieces))
    except ParseError:
        # Bytes that are not UTF-8 are the error of the file wherever they
        # are, as they are for a reader of its whole text, so the rest is
        # decoded before a malformed row is reported.
        for _ in pieces:
            pass
        raise
    if len(points) < 2:
        raise InsufficientDataError(f"need at least 2 points, got {len(points)}")
    return points


def _data_rows(pieces):
    """Generator of the rows that hold points, one block for each
    ``_text_pieces`` piece that holds such a row: a list of their 1-based
    line numbers, counted from the piece's first line, and one of the
    stripped rows.

    Blank lines and lines starting with '#' are dropped, and so is the first
    remaining row when it is a header.
    """
    header = True  # no row has been kept yet
    for line, text in pieces:
        raw = [part.strip() for part in text.split("\n")]
        kept = [part and part[0] != "#" for part in raw]
        numbers = list(compress(range(line, line + len(raw)), kept))
        lines = list(compress(raw, kept))
        if header and lines:
            header = False
            if _is_header(lines[0]):
                del numbers[0], lines[0]
        if lines:
            yield numbers, lines


def _decode_blocks(blocks) -> np.ndarray:
    """The points of ``_data_rows`` blocks, one for each piece of text.

    The decoded rows of each block are appended to one ``bytearray``, which
    grows by about an eighth through ``realloc``, and the points are a
    writable, C-ordered view of it.  Both fast decoders accept only what the
    line loop accepts, with the same bits.  A block the decoder refuses, or
    whose values have another shape or are not all finite, is read again by
    the line loop, which names the line of its first error.  The table of
    distinct fields is taken and left by ``_repeats``'s rule; otherwise
    numpy's reader decodes.
    """
    data = bytearray()
    width = 1  # of the empty result, when no row holds a point
    for numbers, lines in blocks:
        if not data:
            width = lines[0].count(",") + 1
            table = _FieldValues()
            decode = partial(_decode_distinct, table=table) if _repeats(lines) else _decode_numpy
        values = decode(lines, width)
        if values is None or values.shape != (len(lines), width) or not np.isfinite(values).all():
            values = _decode_lines(list(zip(numbers, lines)), width)
        data += memoryview(values).cast("B")
        if len(table) > _BLOCK_CELLS:
            decode = _decode_numpy
    return np.frombuffer(data).reshape(-1, width)


def _repeats(lines: list[str]) -> bool:
    """Whether at most half of the comma-separated values in ``lines`` are distinct.

    The one table rule of both CSV codecs.  Each asks it once per file, of
    the CSV lines of the first block it handles: the reader of one piece's
    rows, the writer of its first block, formatted value by value.  When
    they repeat, the codec converts each distinct value once through a
    table, and leaves that table for good once it holds more than
    ``_BLOCK_CELLS`` values, as one for a file whose head repeats and whose
    body does not would.  Counted on text with a set, a line at a time, so
    that neither ``np.unique``, whose sort code alone adds about 1 MB to the
    peak RSS of a process, nor a list of every field of the block is made.
    """
    distinct, count = set(), 0
    for line in lines:
        fields = line.split(",")
        distinct.update(fields)
        count += len(fields)
    return 2 * len(distinct) <= count


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


def _decode_lines(rows: list[tuple[int, str]], width: int) -> np.ndarray:
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
    return np.array(points)


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
    """Generator of the CSV text of the points, about ``_BLOCK_CELLS`` cells at a time.

    The first block is formatted value by value; the later ones take the
    table as ``_repeats``'s rule has it.  The table finds a block's distinct
    values by ``np.unique`` on their bit patterns, since float equality
    merges -0.0 with 0.0, whose reprs differ, and keeps one dict from bit
    pattern to ``repr`` across blocks, so that ``repr`` runs once per
    distinct value.
    """
    reprs = None  # the table, from the second block on
    step = max(1, _BLOCK_CELLS // max(pts.shape[1], 1))
    # An empty point set is one empty line, as "\n".join of no rows plus "\n".
    for start in range(0, max(len(pts), 1), step):
        block = pts[start : start + step]
        if reprs is None:
            lines = [",".join(map(repr, row)) for row in block.tolist()]
        else:
            distinct, inverse = np.unique(np.ascontiguousarray(block).view(np.int64),
                                          return_inverse=True)
            keys = distinct.tolist()
            for key, value in zip(keys, distinct.view(np.float64).tolist()):
                if key not in reprs:
                    reprs[key] = repr(value)
            table = np.array([reprs[key] for key in keys], dtype=object)
            lines = map(",".join, table[inverse.reshape(block.shape)].tolist())
        text = "\n".join(lines) + "\n"
        if not start and _repeats(lines):
            reprs = {}
        elif reprs is not None and len(reprs) > _BLOCK_CELLS:
            reprs = None
        yield text


# --- PPM images -------------------------------------------------------------


class Raster(NamedTuple):
    """Decoded image: integer samples of shape (height, width, 3) plus maxval."""

    pixels: np.ndarray
    maxval: int


# A PPM header comment, from '#' to CR or LF, or a header token: a run of
# bytes other than space, tab, CR and LF that does not start with '#'.  A
# search skips the whitespace between them in constant memory; skipping it
# and the comments by a repeated group costs the regex engine about 120
# bytes of stack per whitespace byte or comment (2.6 GB on a 23 MB header).
_PPM_TOKEN = re.compile(rb"#[^\r\n]*|([^ \t\r\n#][^ \t\r\n]*)")
# Largest maxval of the format, whose samples are at most two bytes.
_MAX_MAXVAL = 65535


def _sample_type(maxval: int) -> np.dtype:
    """PPM sample type: one byte up to maxval 255, else two bytes big-endian."""
    return np.dtype(">u2" if maxval > 255 else "u1")


def read_ppm(source) -> Raster:
    """Decode a binary PPM (magic ``P6``) image.

    Supports 8-bit and big-endian 16-bit samples and '#' comments in the
    header, whose width, height and maxval are ASCII decimal digits.
    Raises ParseError on anything malformed, a sample above maxval included,
    and InvalidInputError on a text stream.
    """
    try:
        chunks = list(_read_chunks(source, -1))  # the whole content, then the empty chunk
    except UnicodeDecodeError:  # a text stream's own decoding
        chunks = [""]
    if isinstance(chunks[-1], str):
        raise InvalidInputError("PPM input must be a binary stream or a path")
    data = b"".join(chunks[:-1])  # no copy of the one chunk a whole read gives
    tokens = (match for match in _PPM_TOKEN.finditer(data) if match[1])
    header: list[int] = []
    for name in ("magic", "width", "height", "maxval"):
        match = next(tokens, None)
        if match is None:
            raise ParseError("unexpected end of PPM header")
        token, pos = match[1], match.end()
        if name == "magic":
            if token != b"P6":
                raise ParseError(f"unsupported image magic {token!r}, expected b'P6'")
            continue
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
    if maxval > _MAX_MAXVAL:
        raise ParseError(f"maxval {maxval} out of range (max {_MAX_MAXVAL})")
    if pos == len(data):  # a token ends at whitespace or at the end of the data
        raise ParseError("missing whitespace after maxval")
    dtype = _sample_type(maxval)
    needed = width * height * 3 * dtype.itemsize
    raster = data[pos + 1 : pos + 1 + needed]  # after the one whitespace byte that ends the header
    if len(raster) < needed:
        raise ParseError(f"truncated raster: expected {needed} bytes, found {len(raster)}")
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
    maxval = integer(raster.maxval, "maxval", high=_MAX_MAXVAL)
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
    body = pixels.astype(_sample_type(maxval)).tobytes()
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
    # the tiles are gathered as integers, so that one float array is made
    tiles = (
        cropped.reshape(tiles_y, block_size, tiles_x, block_size, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(tiles_y * tiles_x, block_size * block_size * 3)
    )
    return tiles / float(maxval)


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
