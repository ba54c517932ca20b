"""Data ingestion: CSV point sets, PPM images, and seeded Gaussian sampling.

Files are opened in two places.  ``_read_chunks`` only reads a path, a
byte range of a path or a stream a chunk at a time: the PPM reader takes
the bytes of one whole read as they are.  ``_text_pieces`` alone knows where a
line ends and which line it is: it cuts the chunks at line ends, turns a
path's CRLF and CR into LF, decodes each piece as UTF-8 as it arrives,
naming the line of a byte that is not UTF-8, skips one byte-order mark at
the start of a file, and gives each piece with the number of its first
line.  ``read_text`` joins those pieces for the model JSON;
``read_points_csv`` decodes the rows of each piece as it arrives, so that
it never holds the bytes or the text of a whole file.  ``output_file``
opens every file the package writes (points CSV, PPM image, model JSON,
report and SVG plot): a regular file is written to a temporary file beside
it, which replaces it only once the write is complete.

The points commands read a file in byte ranges (``_ranges``): pieces of
about ``_RANGE_SIZE`` bytes, cut after a LF, where the cuts depend on the
file's bytes alone.  ``read_moments`` and ``map_points_csv`` map the
ranges over ``_pool``'s ordered maps, one process per CPU: each process
decodes its ranges in ``_CHUNK_SIZE`` pieces, and gives back the moment
sums of each range, merged in range order, or its transformed rows as
text, written in range order.  No process holds the points of more than a
range.  Any error in a range, or a file of one range, makes them read the
file as ``read_points_csv`` does, from the start, so that a failure is
that of the whole file: a range that meets an error gives a marker in
place of its result, and errors of the output are raised as they come.  ``write_points_csv`` formats points a block of
rows at a time, through ``_pool.ordered_texts``, which spreads the blocks
of a large write over forked children and hands their text back in order.

``image_to_blocks`` cuts a ``Raster`` into the (tiles, 3 * b**2) matrix of
its flattened b x b tiles, a point array like any other;
``write_image_blocks`` writes the same rows of a PPM file as CSV, a block
of tiles at a time, with no float array of them all.

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
from contextlib import closing, contextmanager, nullcontext
from functools import partial
from itertools import compress
from typing import NamedTuple

import numpy as np

from ._pool import ordered_texts, ordered_values
from .errors import GaussMatchError, InsufficientDataError, InvalidInputError, ParseError
from .gaussians import GaussianModel, Moments, estimate_moments, merge_moment_sums
from .gaussians import moment_sums, moments_from_sums
from .linalg import BLOCK_CELLS, float_array, integer, require_seed, spd_factor

# --- Files ------------------------------------------------------------------


@contextmanager
def output_file(destination, binary: bool = False, in_place: bool = True):
    """Context manager giving a stream to write ``destination`` through.

    An open stream is handed back as it is, and left open.  A path is
    written as UTF-8 text, or as bytes when ``binary`` is true.  When it
    names a regular file or nothing, in a folder this process may write,
    the stream writes a new file beside it, which ``os.replace`` puts in
    its place once the block and the final close succeed, and which is
    removed when either raises: a write that fails part way leaves an
    existing file as it was, and makes none.  The new file takes the
    permission bits of the file it replaces, or else ``0o666`` less the
    umask, as ``open`` would give it.  Anything else, a symbolic link, a
    device, a pipe, ``/dev/stdout``, a file this process may not write or
    one in a folder it may not write, is opened and written in place, as
    ``open`` allows, with its mode untouched, and a write that fails there
    leaves what it wrote.  With ``in_place`` false, a destination that
    would be written in place, a stream included, is not opened, and the
    block is given None.
    """
    if hasattr(destination, "write"):
        yield destination if in_place else None
        return
    path = os.fspath(destination)
    staged, bits = _staging(path)
    if not (staged or in_place):
        yield None
        return
    # a name of its own length, so that any name the folder takes fits
    target = (os.path.join(os.path.dirname(path), f".gaussmatch-{os.urandom(8).hex()}.tmp")
              if staged else path)
    try:
        handle = open(target, ("x" if staged else "w") + ("b" if binary else ""),
                      encoding=None if binary else "utf-8")
    except OSError as error:  # named as the destination, not the temporary file
        raise type(error)(error.errno, error.strerror, path) from None
    try:
        with handle:
            if bits is not None:  # given for a staged file only
                os.chmod(handle.fileno(), bits)
            yield handle
        if staged:
            os.replace(target, path)
    except BaseException:
        if staged:
            os.remove(target)
        raise


def _staging(path: str) -> tuple[bool, int | None]:
    """Whether ``output_file`` writes ``path`` through a temporary file, and
    the permission bits of the file it replaces, or None where it replaces
    none or is not staged.

    It is staged where the folder is one this process may write and the
    path names a regular file that it may write, or names nothing and ends
    in a name.  Elsewhere ``open`` writes it, or names the error, as it
    always has."""
    try:
        if not (os.path.basename(path) and os.access(os.path.dirname(path) or ".", os.W_OK)):
            return False, None
        info = os.lstat(path)
    except FileNotFoundError:
        return True, None
    except (OSError, ValueError):
        return False, None
    if stat.S_ISREG(info.st_mode) and os.access(path, os.W_OK):
        return True, stat.S_IMODE(info.st_mode)
    return False, None


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
    """Generator of the content of a path, a ``_Range`` of one or a stream,
    ``size`` bytes at a time.

    A stream's chunks are what its ``read(size)`` gives, bytes or str; a
    path is read as bytes.  The last chunk is empty, and no other is, so
    that even an empty stream shows whether it gives bytes.
    """
    span = source if isinstance(source, _Range) else None
    opened = (nullcontext(source) if hasattr(source, "read")
              else open(os.fspath(span.path if span else source), "rb"))
    with opened as handle:
        left = math.inf  # bytes left to read
        if span:
            handle.seek(span.start)
            left = span.stop - span.start
        while chunk := handle.read(min(size, left)):
            left -= len(chunk)
            yield chunk
        yield chunk


def _text_pieces(source):
    """Generator of (first line, piece) for the text ``read_text`` returns,
    in pieces that end at a LF, but the last; lines are numbered from 1,
    from the start of a ``_Range`` for a range.

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
    # no text has been given yet, so a byte-order mark may come, at the start of a file
    start = not isinstance(source, _Range) or source.start == 0
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


# --- Byte ranges of a points file ---------------------------------------------

# Bytes each range but the last holds at least: it ends just past the first
# LF that lets it hold as many, or at the end of the file.
_RANGE_SIZE = 2**20


class _Range(NamedTuple):
    """Bytes start to stop of the file at ``path``."""

    path: str
    start: int
    stop: int


def _ranges(source) -> list:
    """The ranges a points file is read in, in file order; [source] itself
    for a stream, or for what is not a regular file, such as a pipe.

    Each range but the last holds at least ``_RANGE_SIZE`` bytes and ends
    just past a LF, the first that lets it, so that the cuts depend on the
    file's bytes alone and a file with no LF, such as one of CR line ends,
    is one range.  Range 0 holds the byte-order mark; a header that is not
    in it is refused by the range that holds it, which sends the reading
    back to ``read_points_csv``."""
    if hasattr(source, "read"):
        return [source]
    path = os.fspath(source)
    try:
        info = os.stat(path)
    except (OSError, ValueError):  # the reader names the error
        return [source]
    if not stat.S_ISREG(info.st_mode):
        return [source]
    size = info.st_size
    cuts = [0]
    while cuts[-1] + _RANGE_SIZE < size:
        cut = _line_end(_Range(path, cuts[-1] + _RANGE_SIZE - 1, size))
        if cut >= size:
            break
        cuts.append(cut)
    return [_Range(path, start, stop) for start, stop in zip(cuts, [*cuts[1:], size])]


def _line_end(span: _Range) -> int:
    """The offset just past the first LF of the range, or its stop."""
    at = span.start
    for chunk in _read_chunks(span, _CHUNK_SIZE):
        found = chunk.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(chunk)
    return at


def _range_points(span: _Range) -> np.ndarray:
    """The points of a range, decoded as ``read_points_csv`` decodes them,
    of any count; a header is looked for in range 0 only."""
    return _decode_blocks(_data_rows(_text_pieces(span), header=span.start == 0))


def read_moments(source) -> Moments:
    """``estimate_moments(read_points_csv(source))``, read a range at a time.

    The ``moment_sums`` of each range are made in the process that
    ``_pool.ordered_values`` gives it, and merged in range order by
    ``merge_moment_sums``, so that the result depends on the file's bytes
    and not on the CPU count.  A file of one range, a stream, or a file
    whose ranges meet any error, or do not merge, is read by
    ``read_points_csv``, so that the result then has its bits and the
    error is that of the whole file.  A child that ends at a signal raises
    ChildProcessError.
    """
    spans = _ranges(source)
    if len(spans) > 1:
        with closing(ordered_values(partial(_range_sums, spans), len(spans))) as parts:
            sums = _merged(parts)
        if sums is not None:
            return moments_from_sums(sums)
    return estimate_moments(read_points_csv(source))


def _merged(parts):
    """The ``moment_sums`` of ``_range_sums`` results merged in order, or
    None at the first range that met an error or that does not merge, one
    of another dimension or whose merge overflows."""
    sums = _NO_POINTS
    for part in parts:
        if part is None:
            return None
        if not part[0]:
            continue
        try:
            sums = merge_moment_sums(sums, part) if sums[0] else part
        except GaussMatchError:
            return None
    return sums


# The ``moment_sums`` of a range that holds no point.
_NO_POINTS = (0, None, None)


def _range_sums(spans: list, first: int, step: int):
    """Generator of the ``moment_sums`` of ranges first, first + step, ...,
    ``_NO_POINTS`` for a range that holds no point; at a range that meets
    an error, None, and no more."""
    for span in spans[first::step]:
        try:
            points = _range_points(span)
            sums = moment_sums(points) if len(points) else _NO_POINTS
        except (GaussMatchError, OSError):
            sums = None
        yield sums
        if sums is None:
            return


def map_points_csv(source, function, destination) -> None:
    """Write ``function(read_points_csv(source))`` as ``write_points_csv``
    writes it, a range at a time, to a path that ``output_file`` replaces.

    ``function`` maps an (n, dim) point array to an array of the same rows,
    such as ``RescalingTransform.apply``, and refuses points of another
    dimension than it takes.  Each range is decoded, mapped and formatted
    in the process that ``_pool.ordered_texts`` gives it, and its text is
    written in range order.  A file of one range, a stream, a destination
    that ``output_file`` writes in place, or a file whose ranges meet any
    error, is read whole by ``read_points_csv``, so that an error is that
    of the whole file, and an input error leaves an existing output as it
    was.  An error of the output is raised as it comes.  A child that ends
    at a signal raises ChildProcessError.
    """
    spans = _ranges(source)
    if len(spans) > 1:
        try:
            with output_file(destination, in_place=False) as handle:
                if handle is not None:
                    _write_range_texts(spans, function, handle)
                    return
        except _RangeFailed:  # the temporary file is gone, the destination as it was
            pass
    write_points_csv(function(read_points_csv(source)), destination)


class _RangeFailed(Exception):
    """A range of a points file met an error: the file is to be read whole."""


# The text of a range that met an error, which no CSV text holds.
_FAILED_TEXT = "\0"


def _write_range_texts(spans: list, function, handle) -> None:
    """Write the ``_range_texts`` of every range to ``handle``, in range
    order; _RangeFailed at a range that met an error."""
    with closing(ordered_texts(partial(_range_texts, spans, function), len(spans))) as texts:
        rows = 0
        for text in texts:
            if text == _FAILED_TEXT:
                raise _RangeFailed
            handle.write(text)
            rows += text.count("\n")
    if rows < 2:
        raise InsufficientDataError(f"need at least 2 points, got {rows}")


def _range_texts(spans: list, function, first: int, step: int):
    """Generator of the CSV text of ``function`` of the points of ranges
    first, first + step, ..., empty for a range that holds no point; at a
    range that meets an error, ``_FAILED_TEXT``, and no more."""
    for span in spans[first::step]:
        try:
            points = _range_points(span)
            text = "".join(_text_blocks(function(points), 0, 1)) if len(points) else ""
        except (GaussMatchError, OSError):
            text = _FAILED_TEXT
        yield text
        if text == _FAILED_TEXT:
            return


def _data_rows(pieces, header: bool = True):
    """Generator of the rows that hold points, one block for each
    ``_text_pieces`` piece that holds such a row: a list of their 1-based
    line numbers, counted from the piece's first line, and one of the
    stripped rows.

    Blank lines and lines starting with '#' are dropped, and so, with
    ``header``, is the first remaining row when it is a header.
    """
    for line, text in pieces:
        raw = [part.strip() for part in text.split("\n")]
        kept = [part and part[0] != "#" for part in raw]
        numbers = list(compress(range(line, line + len(raw)), kept))
        lines = list(compress(raw, kept))
        if header and lines:  # the first row kept
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
        if len(table) > BLOCK_CELLS:
            decode = _decode_numpy
    return np.frombuffer(data).reshape(-1, width)


def _repeats(lines: list[str]) -> bool:
    """Whether at most half of the comma-separated values in ``lines`` are distinct.

    The one table rule of both CSV codecs.  Each asks it once per file, of
    the CSV lines of the first block it handles: the reader of one piece's
    rows, the writer of its first block, formatted value by value (each
    process of a forked write, of its own first block).  When
    they repeat, the codec converts each distinct value once through a
    table, and leaves that table for good once it holds more than
    ``BLOCK_CELLS`` values, as one for a file whose head repeats and whose
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
    The blocks go through ``_pool.ordered_texts``: where it finds two or
    more CPUs and two blocks or more for each, block i is formatted in
    forked child i % processes, and this process writes the blocks in
    order, with the bytes of one process; no child outlives the call.
    ``destination`` is a path or an open text stream; a path is written
    through ``output_file``, so a write that fails part way, at the final
    close included, leaves an existing file as it was, or none.
    """
    pts = float_array(points, "points")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise InvalidInputError(f"expected an (n, dim) array, got shape {pts.shape}")
    _write_rows(pts, destination)


def _write_rows(pts, destination) -> None:
    """Write the rows of an (n, dim) array, or of ``_TileRows``, as CSV:
    each block of rows is a task of ``_pool.ordered_texts``."""
    blocks = max(1, -(-len(pts) // _block_rows(pts)))
    with output_file(destination) as handle, \
            closing(ordered_texts(partial(_text_blocks, pts), blocks)) as pieces:
        for piece in pieces:
            handle.write(piece)


def _block_rows(pts) -> int:
    """Rows of each block the writer formats: about ``BLOCK_CELLS`` cells."""
    return max(1, BLOCK_CELLS // max(pts.shape[1], 1))


def _text_blocks(pts, first: int, step: int):
    """Generator of the CSV text of blocks first, first + step, ... of the
    points, an array or ``_TileRows``.

    A block is ``_block_rows`` rows.  The first block given is formatted
    value by value; the later ones take the table as ``_repeats``'s rule
    has it of that first block, so that each process of a forked write
    keeps its own table.  The table finds a block's distinct values by
    ``np.unique`` on their bit patterns, since float equality merges -0.0
    with 0.0, whose reprs differ, and keeps one dict from bit pattern to
    ``repr`` across blocks, so that ``repr`` runs once per distinct value.
    """
    reprs = None  # the table, after the first block
    rows = _block_rows(pts)
    # An empty point set is one empty line, as "\n".join of no rows plus "\n".
    for start in range(first * rows, max(len(pts), 1), step * rows):
        block = pts[start : start + rows]
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
        if start == first * rows and _repeats(lines):
            reprs = {}
        elif reprs is not None and len(reprs) > BLOCK_CELLS:
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
    and InvalidInputError on a text stream.  The pixels are ``uint16``.
    """
    samples, maxval = _ppm_samples(source)
    return Raster(pixels=samples.astype(np.uint16), maxval=maxval)


def _ppm_samples(source) -> tuple[np.ndarray, int]:
    """The (height, width, 3) samples of a binary PPM as its bytes hold them,
    ``uint8`` or big-endian ``uint16``, a read-only view of those bytes, and
    maxval; the errors of ``read_ppm``."""
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
    # after the one whitespace byte that ends the header; a view, not a copy
    raster = memoryview(data)[pos + 1 : pos + 1 + needed]
    if len(raster) < needed:
        raise ParseError(f"truncated raster: expected {needed} bytes, found {len(raster)}")
    samples = np.frombuffer(raster, dtype=dtype)
    top = int(samples.max())
    if top > maxval:
        raise ParseError(f"sample value {top} exceeds maxval {maxval}")
    return samples.reshape(height, width, 3), maxval


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
    included, leaves an existing file as it was, or none.
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
    return _TileRows(raster, block_size)[:]


def write_image_blocks(source, destination, block_size: int = 8) -> None:
    """Write ``image_to_blocks(read_ppm(source), block_size)`` as
    ``write_points_csv`` writes it, with the same bytes.

    The image's samples stay a view of the bytes read, and each block of
    rows is made from them as it is formatted, so that neither the 16-bit
    pixels nor a float array of every tile is made."""
    _write_rows(_TileRows(Raster(*_ppm_samples(source)), block_size), destination)


class _TileRows:
    """The rows of ``image_to_blocks``, made on demand: ``tiles[a:b]`` gathers
    the integer samples of tiles a to b - 1 and divides them by maxval, so
    that no float array of every tile is made."""

    def __init__(self, raster: Raster, block_size: int):
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
        # a view of shape (tiles_y, tiles_x, block_size, block_size, 3)
        self._grid = cropped.reshape(tiles_y, block_size, tiles_x, block_size, 3).swapaxes(1, 2)
        self._maxval = float(maxval)
        self.shape = (tiles_y * tiles_x, 3 * block_size**2)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        # the tiles are gathered as integers, so that one float array is made
        tiles = np.arange(*rows.indices(len(self)))
        across = self._grid.shape[1]
        return self._grid[tiles // across, tiles % across].reshape(len(tiles), -1) / self._maxval


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
