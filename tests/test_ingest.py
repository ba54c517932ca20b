"""CSV round trips, PPM decoding, block extraction, and the seeded sampler."""

import io
import itertools
import math
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussmatch import (
    GaussMatchError,
    InsufficientDataError,
    InvalidInputError,
    ParseError,
    Raster,
    SingularMatrixError,
    estimate_moments,
    image_to_blocks,
    read_points_csv,
    read_ppm,
    sample_gaussian,
    standard_normals,
    sym_eigen,
    symmetrize,
    whitening_transform,
    write_points_csv,
    write_ppm,
)
from gaussmatch import ingest
from gaussmatch.ingest import (
    _data_rows,
    _decode_distinct,
    _decode_lines,
    _decode_numpy,
    _repeats,
    read_text,
)
from helpers import run_with_file_size_limit


class TestReadPointsCsv:
    def test_basic(self):
        pts = read_points_csv(io.StringIO("1,2\n3,4\n"))
        np.testing.assert_array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_comments_blanks(self):
        text = "# a comment\nx,y\n\n1, 2\n3,4\n"
        pts = read_points_csv(io.StringIO(text))
        np.testing.assert_array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])

    def test_univariate(self):
        pts = read_points_csv(io.StringIO("-1\n1\n"))
        assert pts.shape == (2, 1)

    def test_ragged_row_reports_line(self):
        with pytest.raises(ParseError) as info:
            read_points_csv(io.StringIO("1,2\n3\n"))
        assert info.value.line == 2

    def test_bad_token_reports_line(self):
        with pytest.raises(ParseError) as info:
            read_points_csv(io.StringIO("1,2\n3,oops\n"))
        assert info.value.line == 2

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            read_points_csv(io.StringIO("1,2\n"))

    def test_path_and_binary_stream(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("5,6\n7,8\n")
        np.testing.assert_array_equal(read_points_csv(path), [[5.0, 6.0], [7.0, 8.0]])
        with open(path, "rb") as handle:
            np.testing.assert_array_equal(read_points_csv(handle), [[5.0, 6.0], [7.0, 8.0]])
        # A leading UTF-8 byte-order mark, as spreadsheet programs write, is skipped.
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,7\n")
        with open(path, "rb") as binary, open(path, encoding="utf-8") as text:
            for source in (path, binary, text):
                np.testing.assert_array_equal(read_points_csv(source), [[1, 2], [3, 4], [5, 7]])

    def test_header_needs_every_field_non_numeric(self):
        pts = read_points_csv(io.StringIO("x,y\n1,2\n3,4\n"))
        np.testing.assert_array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ParseError) as info:
            read_points_csv(io.StringIO("1x,2\n3,4\n5,7\n"))
        assert info.value.line == 1

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_reports_line(self, token):
        with pytest.raises(ParseError) as info:
            read_points_csv(io.StringIO(f"# c\n1,2\n{token},4\n5,7\n"))
        assert info.value.line == 3

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe1,2\n3,4\n5,6\n")
        with pytest.raises(ParseError) as info:
            read_points_csv(path)
        assert info.value.line == 1
        data = b"1,2\r\n3,4\r5,\xe96\n"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            read_points_csv(path)
        assert info.value.line == 3  # a path's CR ends a line, as in text mode
        with pytest.raises(ParseError) as info:
            read_points_csv(io.BytesIO(data))
        assert info.value.line == 2  # a stream's lines end at LF only
        with open(path, encoding="utf-8") as handle, pytest.raises(ParseError):
            read_points_csv(handle)

    def test_python_float_spellings_still_accepted(self):
        text = "1_000, \u0661\n+.5,-5.\n2E3 ,\xa07\n"
        np.testing.assert_array_equal(
            read_points_csv(io.StringIO(text)), [[1000.0, 1.0], [0.5, -5.0], [2000.0, 7.0]]
        )

    @pytest.mark.parametrize("text", [
        "".join(f"{i},{-i}.5\n" for i in range(40)),  # numpy's reader
        "0.5,1.5\n" * 40,  # the table of distinct fields
        "".join(f"1_{i},{i}\n" for i in range(40)),  # the line loop
    ])
    def test_points_are_whitened_in_place(self, text):
        # the commands centre and whiten the points they read in place, and
        # copy them without a word unless the array is writable and C-ordered
        with mock.patch.object(ingest, "_CHUNK_SIZE", 64):
            points = read_points_csv(io.StringIO(text))
        assert points.dtype == np.float64 and points.shape == (40, 2)
        assert points.flags.writeable and points.flags.c_contiguous and points.flags.aligned
        transform = whitening_transform(estimate_moments([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        white = transform.apply(points, overwrite=True)
        assert np.shares_memory(white, points)


def _decorate(text, header, spacing, comment_every):
    """Spread blank lines, comments, spaces and a header through CSV text."""
    lines = [spacing + line.replace(",", spacing + "," + spacing) for line in text.splitlines()]
    out = ["# written by write_points_csv", ""]
    if header:
        out.append("x" + ",y" * (lines[0].count(",")))
    for i, line in enumerate(lines):
        if comment_every and i % comment_every == 0:
            out += ["", "   # comment", " "]
        out.append(line)
    return "\n".join(out) + "\n\n"


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# Fields and lines near the edges of what either decoder accepts.
_csv_field = st.one_of(
    _finite.map(repr),
    st.sampled_from(
        ["-0", "+.5", "5.", "1E-3", "1_0", "\u0661", " 2 ", "\xa03", "4\x0c", "", "x",
         "nan", "inf", "1e999", "0x1", "1 2", "\r", "3#"]
    ),
)
_csv_row = st.lists(_csv_field, min_size=2, max_size=2).map(",".join)
# Fields that float() reads and numpy's reader may refuse, for the table path.
_SPELLINGS = ["-0", "+.5", "5.", "1E-3", "1_0", "\u0661", " 2 ", "\xa03", "4\x0c", "1e-300",
              "0.1", "1e300"]
_csv_line = st.one_of(
    _csv_row, _csv_row, st.sampled_from(["", " ", "# c", " #c", "\r", "a,b", "1"])
)


_point_rows = st.integers(2, 5).flatmap(
    lambda dim: st.lists(st.lists(_finite, min_size=dim, max_size=dim), min_size=2, max_size=12)
)
_decorations = (st.booleans(), st.sampled_from(["", " ", "\t", "  "]), st.integers(0, 3))
_csv_text = st.lists(_csv_line, max_size=6).map("\n".join)


def _table_path():
    """Send every codec call down its table path, in blocks of 3 cells."""
    return mock.patch.multiple(ingest, _repeats=lambda rows: True, _BLOCK_CELLS=3)


def _pieces_of(rows, line):
    """Cut text whose lines are as long as ``line`` into pieces of ``rows`` lines each."""
    return mock.patch.object(ingest, "_CHUNK_SIZE", rows * (len(line) + 1))


def _decode_table(lines, width):
    """``_decode_distinct`` with a table of its own, as each read has."""
    return _decode_distinct(lines, width, ingest._FieldValues())


def _numbered(text):
    """The (line number, line) pairs of the data rows of ``text``."""
    return [row for numbers, lines in _data_rows([(1, text)]) for row in zip(numbers, lines)]


def _accepted(values, rows, width) -> bool:
    """Whether the reader's loop keeps a fast decoder's ``values`` for ``rows``."""
    return values is not None and values.shape == (len(rows), width) and np.isfinite(values).all()


def _bits(points):
    return np.asarray(points, dtype=float).view(np.uint64).tolist()


def _check_matches_line_loop(decode, rows, header, spacing, comment_every):
    buffer = io.StringIO()
    write_points_csv(np.asarray(rows, dtype=float), buffer)
    text = _decorate(buffer.getvalue(), header, spacing, comment_every)
    numbered = _numbered(text)
    width = len(rows[0])
    fast = decode([line for _, line in numbered], width)
    assert _accepted(fast, numbered, width)
    assert fast.dtype == np.float64
    assert _bits(fast) == _bits(_decode_lines(numbered, width))
    assert _bits(read_points_csv(io.StringIO(text))) == _bits(fast)


def _check_same_verdict(decode, text):
    """``decode`` refuses the rows or gives the line loop's bits, and the reader
    gives the line loop's points or its error."""
    numbered = _numbered(text)
    if not numbered:
        with pytest.raises(InsufficientDataError):
            read_points_csv(io.StringIO(text))
        return
    width = numbered[0][1].count(",") + 1
    fast = decode([line for _, line in numbered], width)
    try:
        slow = _decode_lines(numbered, width)
    except ParseError as exc:
        assert not _accepted(fast, numbered, width)
        with pytest.raises(ParseError) as info:
            read_points_csv(io.StringIO(text))
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
        return
    if _accepted(fast, numbered, width):
        assert _bits(fast) == _bits(slow)
    if len(slow) < 2:
        with pytest.raises(InsufficientDataError):
            read_points_csv(io.StringIO(text))
    else:
        assert _bits(read_points_csv(io.StringIO(text))) == _bits(slow)


_verdict_examples = [
    "1,2 # trailing comment\n3,4\n5,6\n",
    "1,2\r3,4\n5,6\n7,8\n",
    "1,2\n\n3,\u0664\n5,6\n",
]


class TestBulkDecode:
    """Each fast decoder agrees bit for bit with the line loop or refuses."""

    @given(_point_rows, *_decorations)
    def test_matches_line_loop(self, rows, header, spacing, comment_every):
        _check_matches_line_loop(_decode_numpy, rows, header, spacing, comment_every)

    @given(_point_rows, *_decorations)
    def test_table_path_matches_line_loop(self, rows, header, spacing, comment_every):
        with _table_path():
            _check_matches_line_loop(_decode_table, rows, header, spacing, comment_every)

    @given(_csv_text)
    @example(_verdict_examples[0])
    @example(_verdict_examples[1])
    @example(_verdict_examples[2])
    def test_accepted_text_decodes_the_same(self, text):
        with mock.patch.object(ingest, "_repeats", lambda rows: False):
            _check_same_verdict(_decode_numpy, text)

    @given(_csv_text)
    @example(_verdict_examples[0])
    @example(_verdict_examples[1])
    @example(_verdict_examples[2])
    def test_table_path_decodes_accepted_text_the_same(self, text):
        with _table_path():
            _check_same_verdict(_decode_table, text)

    @given(st.lists(st.lists(st.sampled_from(_SPELLINGS), min_size=3, max_size=3), min_size=1,
                    max_size=32))
    def test_table_path_takes_python_spellings(self, rows):
        # every row twice, so that the fields repeat and take the table path,
        # which accepts what float() accepts, numpy's refusals included
        lines = [",".join(row).strip() for row in rows] * 2
        assert _repeats(lines)
        numbered = _numbered("\n".join(lines) + "\n")
        fast = _decode_table([line for _, line in numbered], 3)
        assert _accepted(fast, numbered, 3)
        assert _bits(fast) == _bits(_decode_lines(numbered, 3))

    def test_path_choice(self):
        pixels = np.random.default_rng(0).integers(0, 256, (32, 32, 3)).astype(np.uint16)
        blocks = image_to_blocks(Raster(pixels=pixels, maxval=255), block_size=4)
        white = whitening_transform(estimate_moments(blocks)).apply(blocks)
        assert _repeats(_written(blocks).splitlines())
        assert not _repeats(_written(white).splitlines())
        # every line of the first block counts, so a repeating head or tail is not enough
        head = ["0.5,1.5"] * 64
        tail = [f"{i},{-i}" for i in range(1000)]
        assert not _repeats(head + tail)
        assert not _repeats(tail + head)
        assert _repeats((head + tail[:60]) * 16)

    def test_table_that_outgrows_a_block_is_left(self):
        # the first piece repeats, so the reader takes the table path; the
        # rest does not, and each of its pieces adds _BLOCK_CELLS distinct
        # values, so the table is left once it holds more than _BLOCK_CELLS
        # values, after the second piece
        step = ingest._BLOCK_CELLS // 2
        lines = ["0.500,1.500"] * step + [f"{i:05d},{99999 - i:05d}" for i in range(4 * step)]
        text = "\n".join(lines) + "\n"
        assert _repeats(lines[:step])
        with _pieces_of(step, lines[0]), mock.patch.object(
            ingest, "_decode_distinct", wraps=_decode_distinct
        ) as spy:
            points = read_points_csv(io.StringIO(text))
        assert [len(call.args[0]) for call in spy.call_args_list] == [step, step]
        assert _bits(points) == _bits(_decode_lines(_numbered(text), 2))

    def test_piece_larger_than_all_read_before_it(self):
        # the first piece holds one row, the second ten, more than every row
        # read before them: all eleven come back, in order
        text = "1,2\n#" + "c" * 64 + "\n" + "3,4\n" * 10
        with mock.patch.object(ingest, "_CHUNK_SIZE", 64), mock.patch.object(
            ingest, "_decode_numpy", wraps=_decode_numpy
        ) as spy:
            points = read_points_csv(io.StringIO(text))
        assert [len(call.args[0]) for call in spy.call_args_list] == [1, 10]
        assert points.tolist() == [[1, 2]] + [[3, 4]] * 10

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e999"])
    def test_table_path_refuses_non_finite(self, token):
        text = "1,2\n" * 20 + f"1,{token}\n" + "1,2\n" * 20
        assert _repeats(text.split("\n"))
        numbered = _numbered(text)
        assert not _accepted(_decode_table([line for _, line in numbered], 2), numbered, 2)
        with pytest.raises(ParseError) as info:
            read_points_csv(io.StringIO(text))
        assert info.value.line == 21

    @pytest.mark.parametrize("fault", ["bad field in the last block", "width change at a block"])
    def test_errors_across_blocks(self, fault):
        # 8192 rows of 4 repeating fields, read in pieces of the header and
        # 4096 rows
        lines = ["1.5,2.5,-3.0,4.0"] * 8192
        if fault == "bad field in the last block":
            lines[-2] = "1.5,2.5,1x,4.0"
        else:
            lines[4096:] = ["1.5,2.5,-3.0,4.0,5.0"] * (len(lines) - 4096)
        head = "# comment\nx,y,z,w\n" + "\n".join(lines[:4096]) + "\n"
        text = head + "\n".join(lines[4096:]) + "\n"
        assert _repeats(lines)
        numbered = _numbered(text)
        first, last = numbered[:4096], numbered[4096:]
        assert _accepted(_decode_table([line for _, line in first], 4), first, 4)
        assert not _accepted(_decode_table([line for _, line in last], 4), last, 4)
        with mock.patch.object(ingest, "_CHUNK_SIZE", len(head)), pytest.raises(ParseError) as bulk:
            read_points_csv(io.StringIO(text))
        with pytest.raises(ParseError) as loop:
            _decode_lines(numbered, 4)
        assert str(bulk.value) == str(loop.value)
        assert bulk.value.line == (len(lines) + 1 if fault == "bad field in the last block" else 4099)

    @pytest.mark.parametrize("table", [True, False])
    @pytest.mark.parametrize("fields", [1, 5])
    def test_width_change_at_a_block(self, fields, table):
        # numpy reads a piece of rows of one field as (n, 1), which would
        # broadcast into n rows of 4 unless the loop checks its shape
        lines = ["1.5,2.5,-3.0,4.0"] * 4096 + [",".join(["1.5"] * fields)] * 4096
        text = "\n".join(lines) + "\n"
        numbered = _numbered(text)
        decode = _decode_table if table else _decode_numpy
        assert _accepted(decode(lines[:4096], 4), numbered[:4096], 4)
        assert not _accepted(decode(lines[4096:], 4), numbered[4096:], 4)
        with _pieces_of(4096, lines[0]), mock.patch.object(
            ingest, "_repeats", lambda rows: table
        ), pytest.raises(ParseError) as info:
            read_points_csv(io.StringIO(text))
        assert (str(info.value), info.value.line) == (
            f"line 4097: row has {fields} fields, expected 4",
            4097,
        )

    @pytest.mark.parametrize("source", ["repeating", "distinct"])
    def test_only_the_refused_block_is_reread(self, source):
        # 8192 rows of equal length, read in pieces of 1024 rows; the last
        # row, in the last piece, has a bad field
        rng = np.random.default_rng(5)
        shape = (8192, 4)
        if source == "repeating":
            lines = _written(rng.integers(0, 4, shape) / 2.0).splitlines()
        else:
            lines = [",".join(f"{x:+.15e}" for x in row) for row in rng.normal(size=shape)]
        assert len(set(map(len, lines))) == 1
        step = 1024
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1x"
        text = "\n".join(lines) + "\n"
        assert _repeats(lines) is (source == "repeating")
        with _pieces_of(step, lines[0]), mock.patch.object(
            ingest, "_decode_lines", wraps=_decode_lines
        ) as spy:
            with pytest.raises(ParseError) as info:
                read_points_csv(io.StringIO(text))
        assert info.value.line == 8192
        assert spy.call_count == 1
        reread, width = spy.call_args.args
        assert width == 4
        assert reread == _numbered(text)[-step:]

    @pytest.mark.parametrize("table", [True, False])
    def test_ragged_rows_with_the_right_field_count(self, table):
        # 2 + 3 + 1 fields are three rows of two, but rows 2 and 3 are ragged
        text = "1,2\n3,4,5\n6\n7,8\n"
        numbered = _numbered(text)
        lines = [line for _, line in numbered]
        assert not _accepted(_decode_table(lines[:3], 2), numbered[:3], 2)
        assert not _accepted(_decode_numpy(lines[:3], 2), numbered[:3], 2)
        with mock.patch.object(ingest, "_repeats", lambda rows: table), pytest.raises(
            ParseError
        ) as info:
            read_points_csv(io.StringIO(text))
        with pytest.raises(ParseError) as loop:
            _decode_lines(numbered, 2)
        assert (str(info.value), info.value.line) == (str(loop.value), 2)
        assert str(info.value) == "line 2: row has 3 fields, expected 2"

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_package_errors(self, data):
        try:
            pts = read_points_csv(io.BytesIO(data))
        except GaussMatchError:
            return
        assert pts.ndim == 2 and pts.shape[0] >= 2 and np.isfinite(pts).all()


def _outcome(read, source):
    """The bits of the points ``read`` returns, or its error's class, message and line."""
    try:
        return _bits(read(source))
    except GaussMatchError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _read_whole_text(source):
    """The reference reader: the whole text, then the line loop over its data rows."""
    numbered = _numbered(read_text(source))
    width = numbered[0][1].count(",") + 1 if numbered else 0
    points = _decode_lines(numbered, width)
    if len(points) < 2:
        raise InsufficientDataError(f"need at least 2 points, got {len(points)}")
    return points


def _written_path(data, path):
    path.write_bytes(data)
    return path


_SOURCES = {
    "path": _written_path,
    "binary stream": lambda data, path: io.BytesIO(data),
    "text stream": lambda data, path: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
}


def _check_chunked_reads(data, path):
    """Reading ``data`` 1, 2, 3 or 7 bytes (or characters) at a time, in blocks
    of as many cells or of the usual size, gives the whole-text reader's bits
    or error, from a path and from either stream."""
    assert len(data) < ingest._CHUNK_SIZE  # so that the reference reads the whole text at once
    for kind, make in _SOURCES.items():
        expected = _outcome(_read_whole_text, make(data, path))
        for size, cells in itertools.product((1, 2, 3, 7), (None, ingest._BLOCK_CELLS)):
            with mock.patch.multiple(ingest, _CHUNK_SIZE=size, _BLOCK_CELLS=cells or size):
                assert _outcome(read_points_csv, make(data, path)) == expected, (kind, size, cells)


_line_end = st.sampled_from(["\n", "\r\n", "\r"])
# Lines with characters of two, three and four UTF-8 bytes, some of them
# digits float() takes, and a byte-order mark that does not start the text.
_wide_line = st.sampled_from(
    ["1,\u0661", "\u00e9,1", "2,\U0001d7d9", "# \u20ac", "\U0001d7d9,\u0662", "\ufeff1,2"]
)


@st.composite
def _csv_bytes(draw):
    """CSV bytes: mixed line ends, maybe a byte-order mark, maybe a late byte that is not UTF-8."""
    lines = draw(st.lists(st.one_of(_csv_line, _wide_line), max_size=10))
    text = "".join(line + draw(_line_end) for line in lines)
    data = (("\ufeff" if draw(st.booleans()) else "") + text).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(len(data) // 2, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xe9", b"\x80", b"\xf0\x9f"]))
        data = data[:at] + bad + data[at:]
    return data


class TestChunkBoundaries:
    """The chunked reader agrees with a reader of the whole text at every cut."""

    @given(_csv_bytes())
    @example(b"1,2\r\n3,4\r\n5,6\r\n")  # a CR at a chunk's end, its LF in the next
    @example(b"1,2\r3,4\r5,6")
    @example(b"\xef\xbb\xbfx,y\n1,2\n3,4\n")
    @example("1,\u0661\n\u20ac,2\n3,\U0001d7d9\n".encode("utf-8"))
    # a malformed row early and a byte that is not UTF-8 late: the byte is the error
    @example(b"1,2\n3,4,5\n" + b"6,7\n" * 10 + b"8,\xff9\n")
    # a CR alone in a chunk, after bytes that are not UTF-8: their line is decoded with its end
    @example(b"1,2\n3\xe9\r\n")
    def test_matches_whole_text(self, tmp_path_factory, data):
        _check_chunked_reads(data, tmp_path_factory.mktemp("chunks") / "p.csv")

    @given(_point_rows, *_decorations, _line_end, st.booleans())
    def test_written_points_match_whole_text(self, tmp_path_factory, rows, header, spacing,
                                             comment_every, end, bom):
        text = _decorate(_written(np.asarray(rows, dtype=float)), header, spacing, comment_every)
        data = (("\ufeff" if bom else "") + text.replace("\n", end)).encode("utf-8")
        _check_chunked_reads(data, tmp_path_factory.mktemp("chunks") / "p.csv")


class _Discard:
    """A text stream that drops what is written to it."""

    def write(self, text):
        return len(text)


@contextmanager
def _unique_calls():
    """A list that gains an entry at each call of ``np.unique`` in the block.

    The arguments are not kept, so that counting holds no block alive."""
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(None)
        return unique(*args, **kwargs)

    with mock.patch.object(np, "unique", counted):
        yield calls


def _traced_peak(call):
    """The peak of the memory traced by ``tracemalloc`` during ``call()``, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    @pytest.mark.parametrize("rows", [2**18, 5212 * 2**5 + 1])
    def test_reader_holds_the_points_and_a_bounded_rest(self, tmp_path, rows):
        # 2**18 rows of 4.5 MB of text: a reader of the whole text holds it
        # as bytes, as str and as 2**18 line strings, about 26 MB beside the
        # 4 MB of points; a chunked one holds a chunk, a block of its rows
        # and their values, about 15 chunks of memory whatever the length of
        # the file, and a buffer that grows by an eighth.  The first piece
        # holds 5212 rows, so an array of them that doubled when full would
        # hold about twice the points one row past its fifth doubling.
        text = "".join(f"{i},{-i}.5\n" for i in range(rows))
        assert text[: ingest._CHUNK_SIZE].count("\n") == 5212
        path = tmp_path / "tall.csv"
        path.write_text(text, encoding="utf-8")
        peak, points = _traced_peak(lambda: read_points_csv(path))
        assert points.shape == (rows, 2) and points[-1].tolist() == [rows - 1, 0.5 - rows]
        assert peak <= points.nbytes * 9 / 8 + 24 * ingest._CHUNK_SIZE

    def test_array_holds_the_rows_read(self, tmp_path):
        # 10**4 comment lines and two rows of 2000 values: an array of a row
        # for each line of the file would take 160 MB
        path = tmp_path / "wide.csv"
        path.write_text("#\n" * 10**4 + ("0.5," * 1999 + "1\n") * 2, encoding="utf-8")
        peak, points = _traced_peak(lambda: read_points_csv(path))
        assert points.shape == (2, 2000)
        assert peak <= points.nbytes + 64 * ingest._CHUNK_SIZE

    @pytest.mark.parametrize("kind", list(_SOURCES))
    def test_line_without_an_end_reads_in_linear_time(self, tmp_path, kind):
        # 4 MiB read 64 bytes at a time with no line end: joining each chunk
        # to the part of the line read so far would copy about 137 GB
        source = _SOURCES[kind](b"1,2;" * 2**20, tmp_path / "line.csv")
        start = time.perf_counter()
        with mock.patch.object(ingest, "_CHUNK_SIZE", 64), pytest.raises(ParseError):
            read_points_csv(source)
        assert time.perf_counter() - start < 2

    def test_writer_tables_one_block_at_a_time(self):
        # np.unique over the whole array would allocate its int64 inverse,
        # as large as the points, and a sorted copy beside it
        points = np.random.default_rng(6).integers(0, 4, (2**17, 8)) / 4.0
        with _unique_calls() as calls:
            peak, _ = _traced_peak(lambda: write_points_csv(points, _Discard()))
        assert len(calls) == points.size // ingest._BLOCK_CELLS - 1  # every block but the first
        assert peak < points.nbytes / 4

    def test_writer_leaves_a_table_that_outgrows_a_block(self):
        # two constant columns beside a distinct one: the first block's lines
        # repeat, so the writer takes the table from the second block on, and
        # leaves it during the fourth, once it holds more than _BLOCK_CELLS
        # values; a table of every value would hold 2**17 reprs (about 19 MiB)
        points = np.zeros((2**17, 3))
        points[:, 1] = 1.0
        points[:, 2] = np.random.default_rng(7).normal(size=2**17)
        with _unique_calls() as calls:
            peak, _ = _traced_peak(lambda: write_points_csv(points, _Discard()))
        assert len(calls) == 3
        assert peak < 8 * 2**20


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        pts = np.array([[0.1, 1e300], [1e-300, -7.25], [math.pi, -0.0]])
        path = tmp_path / "rt.csv"
        write_points_csv(pts, path)
        back = read_points_csv(path)
        assert np.array_equal(back, pts)

    @given(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=2,
                max_size=4,
            ),
            min_size=2,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_round_trip_property(self, rows):
        buffer = io.StringIO()
        write_points_csv(np.asarray(rows, dtype=float), buffer)
        back = read_points_csv(io.StringIO(buffer.getvalue()))
        assert np.array_equal(back, np.asarray(rows, dtype=float))


def _loop_csv(rows) -> str:
    """The writer's per-value loop, kept as the reference for its bytes."""
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"


def _written(points) -> str:
    buffer = io.StringIO()
    write_points_csv(points, buffer)
    return buffer.getvalue()


# Values whose repr or bit pattern is easy to get wrong, both signs of zero among them.
_POOL = [0.0, -0.0, 1.0, -1.0, 0.1, 1e300, -1e300, 5e-324, 2.2250738585072014e-308 / 3,
         math.nan, math.inf, -math.inf, 1 / 255]


def _layouts(source):
    """(0, d), (n, 0), one column, Fortran order, strided and reversed views of one array."""
    rng = np.random.default_rng(3)
    big = rng.integers(0, 4, (90, 12)) / 3.0 if source == "repeating" else rng.normal(size=(90, 12))
    return [
        big[:0],  # (0, d)
        big[:, :0],  # (n, 0)
        big[:, :1],  # (n, 1)
        np.asfortranarray(big),
        big[::2, 1::3],  # neither C- nor Fortran-contiguous
        big[::-1],
    ]


class TestWritePointsCsv:
    """The table path writes the bytes of the per-value loop."""

    @given(
        arrays(
            float,
            st.tuples(st.integers(4, 80), st.integers(7, 9)),  # >= 2 * len(_POOL) cells
            elements=st.sampled_from(_POOL),
            fill=st.nothing(),
        )
    )
    @example(np.array([[0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0]] * 4))
    def test_table_path_matches_loop(self, points):
        # blocks of half the array or less, so that the table writes from the
        # second on, with room for every value of the pool
        cells = max(len(_POOL), points.size // 2)
        with mock.patch.multiple(ingest, _repeats=lambda lines: True, _BLOCK_CELLS=cells), \
                _unique_calls() as calls:
            assert _written(points) == _loop_csv(points.tolist())
        assert calls

    def test_zero_signs_kept(self, monkeypatch):
        # blocks of two rows: the first repeats, the other three are tabled
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", 4)
        points = np.array([[0.0, -0.0], [-0.0, 0.0]] * 4)
        with _unique_calls() as calls:
            assert _written(points) == "0.0,-0.0\n-0.0,0.0\n" * 4
        assert len(calls) == 3

    @pytest.mark.parametrize("source", ["repeating", "distinct"])
    def test_shapes_and_layouts(self, source):
        for points in _layouts(source):
            assert _written(points) == _loop_csv(points.tolist()), points.shape
        column = _layouts(source)[2][:, 0]
        assert _written(column) == _loop_csv([[value] for value in column.tolist()])

    @pytest.mark.parametrize("block_cells", [1, 7])  # one row, then a few rows, per block
    @pytest.mark.parametrize("source", ["repeating", "distinct"])
    def test_shapes_and_layouts_in_small_blocks(self, monkeypatch, source, block_cells):
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", block_cells)
        self.test_shapes_and_layouts(source)

    @pytest.mark.parametrize("source", ["repeating", "distinct"])
    def test_many_blocks(self, source, tmp_path):
        rng = np.random.default_rng(4)
        shape = (3 * ingest._BLOCK_CELLS // 8 + 5, 8)
        points = rng.integers(0, 4, shape) / 3.0 if source == "repeating" else rng.normal(size=shape)
        expected = _loop_csv(points.tolist())
        assert _written(points) == expected
        write_points_csv(points, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text(encoding="utf-8") == expected

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a file size limit ends the write of the whitened points part way;
        # transform reports it as a one-line error and removes the file
        points = np.random.default_rng(12).normal(size=(3000, 8))
        source, model, out = tmp_path / "p.csv", tmp_path / "m.json", tmp_path / "w.csv"
        write_points_csv(points, source)
        script = (
            "import resource, signal, sys\n"
            "from gaussmatch import cli\n"
            "p, m, w = sys.argv[1:]\n"
            "if cli.run(['fit', '--input', p, '--family', 'full', '--output', m]) != 0:\n"
            "    sys.exit('fit failed')\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.RLIM_INFINITY))\n"
            "sys.exit(cli.run(['transform', '--input', p, '--model', m, '--output', w]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(source), str(model), str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: [Errno 27] File too large\n"
        assert not out.exists()

    def test_write_failing_at_close_leaves_no_file(self, tmp_path):
        # the whole CSV fits in the write buffer, so its one write is the flush at close
        points = np.random.default_rng(13).normal(size=(40, 2))
        text = io.StringIO()
        write_points_csv(points, text)
        size = len(text.getvalue())
        assert size < io.DEFAULT_BUFFER_SIZE
        out = tmp_path / "p.csv"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from gaussmatch import write_points_csv\n"
            "write_points_csv(np.random.default_rng(13).normal(size=(40, 2)), sys.argv[1])\n"
        )
        result = run_with_file_size_limit(size - 10, code, out)
        assert result.returncode == 1
        assert result.stderr.endswith("OSError: [Errno 27] File too large\n")
        assert not out.exists()

    def test_path_choice(self, monkeypatch):
        # four blocks of 16 rows: the 8-bit samples repeat, so the last three
        # blocks are tabled, and the whitened points do not
        pixels = np.random.default_rng(0).integers(0, 256, (32, 32, 3)).astype(np.uint16)
        blocks = image_to_blocks(Raster(pixels=pixels, maxval=255), block_size=4)
        white = whitening_transform(estimate_moments(blocks)).apply(blocks)
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", blocks.size // 4)
        for points, tabled in [(blocks, 3), (white, 0)]:
            with _unique_calls() as calls:
                assert _written(points) == _loop_csv(points.tolist())
            assert len(calls) == tabled

    def test_table_rule_reads_the_first_block(self):
        # a repeating head over a distinct body: the head fills the first
        # block, but at 2**14 cells, where that block is the whole array, so
        # the table writes from the second block until it holds more than
        # _BLOCK_CELLS values, two rows into the body.  A distinct head keeps
        # the per-value loop throughout.
        head = np.full((64, 2), 0.5)
        body = np.column_stack([np.arange(1000.0), -np.arange(1000.0)])
        for block_cells, tabled in [(3, 65), (8, 16), (2**14, 0)]:
            for points, count in [(np.vstack([head, body]), tabled),
                                  (np.vstack([body, head]), 0)]:
                with mock.patch.object(ingest, "_BLOCK_CELLS", block_cells), \
                        _unique_calls() as calls:
                    assert _written(points) == _loop_csv(points.tolist())
                assert len(calls) == count, block_cells
        assert _repeats(["0.0", "0.0"])  # half distinct
        assert not _repeats(["0.0", "-0.0"])  # distinct reprs


def _gradient_raster(width=16, height=8, maxval=255):
    pixels = np.zeros((height, width, 3), dtype=np.uint16)
    for y in range(height):
        for x in range(width):
            pixels[y, x] = (x * maxval // max(width - 1, 1), y * maxval // max(height - 1, 1), 7)
    return Raster(pixels=pixels, maxval=maxval)


class TestPpm:
    def test_round_trip_8bit(self, tmp_path):
        raster = _gradient_raster()
        path = tmp_path / "img.ppm"
        write_ppm(raster, path)
        back = read_ppm(path)
        assert back.maxval == 255
        assert np.array_equal(back.pixels, raster.pixels)

    def test_round_trip_16bit(self, tmp_path):
        raster = _gradient_raster(maxval=65535)
        path = tmp_path / "img16.ppm"
        write_ppm(raster, path)
        back = read_ppm(path)
        assert back.maxval == 65535
        assert np.array_equal(back.pixels, raster.pixels)

    def test_failed_write_leaves_no_file(self, tmp_path):
        # the 64x64 image is 12 KB, more than the limit and the write buffer
        out = tmp_path / "img.ppm"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from gaussmatch import Raster, write_ppm\n"
            "pixels = np.zeros((64, 64, 3), dtype=np.uint16)\n"
            "write_ppm(Raster(pixels=pixels, maxval=255), sys.argv[1])\n"
        )
        result = run_with_file_size_limit(5000, code, out)
        assert result.returncode == 1
        assert result.stderr.endswith("OSError: [Errno 27] File too large\n")
        assert not out.exists()

    def test_header_comments(self):
        body = bytes([10, 20, 30, 40, 50, 60])
        data = b"P6 # comment after magic\n# full line\n2 1\n255\n" + body
        raster = read_ppm(io.BytesIO(data))
        assert raster.pixels.shape == (1, 2, 3)
        np.testing.assert_array_equal(raster.pixels.ravel(), list(body))

    def test_rejects_other_magic(self):
        with pytest.raises(ParseError):
            read_ppm(io.BytesIO(b"P5\n2 1\n255\n" + bytes(2)))

    def test_rejects_truncated_raster(self):
        with pytest.raises(ParseError):
            read_ppm(io.BytesIO(b"P6\n2 2\n255\n" + bytes(5)))

    def test_rejects_bad_header_field(self):
        with pytest.raises(ParseError):
            read_ppm(io.BytesIO(b"P6\nwide 1\n255\n" + bytes(6)))
        # int() reads each of these, but a header field is ASCII decimal digits only.
        for header in (b"P6\n1_0 1\n255\n", b"P6\n+1 1\n255\n", b"P6\n1 1\n+255\n",
                       b"P6\n\xd9\xa1 1\n255\n", b"P6\n" + b"9" * 5000 + b" 1\n255\n"):
            with pytest.raises(ParseError):
                read_ppm(io.BytesIO(header + bytes(30)))
        with pytest.raises(ParseError, match="width must be positive, got 0"):
            read_ppm(io.BytesIO(b"P6\n0 1\n255\n" + bytes(30)))

    @pytest.mark.parametrize("raster", [b"\xff\xff\xff", b"abc"], ids=["not-utf-8", "utf-8"])
    def test_text_stream_is_refused(self, raster):
        # a text stream whose bytes do not decode once raised UnicodeDecodeError from its read()
        stream = io.TextIOWrapper(io.BytesIO(b"P6\n1 1\n255\n" + raster), encoding="utf-8")
        with pytest.raises(InvalidInputError) as info:
            read_ppm(stream)
        assert str(info.value) == "PPM input must be a binary stream or a path"

    @pytest.mark.parametrize("header, sample", [(b"P6 8 8 100\n", bytes([200])),
                                                (b"P6 8 8 300\n", (301).to_bytes(2, "big"))])
    def test_rejects_sample_above_maxval(self, header, sample):
        top = int.from_bytes(sample, "big")
        maxval = int(header.split()[-1])
        with pytest.raises(ParseError, match=f"sample value {top} exceeds maxval {maxval}"):
            read_ppm(io.BytesIO(header + sample * (8 * 8 * 3)))

    def test_sample_at_maxval_scales_to_one(self):
        raster = read_ppm(io.BytesIO(b"P6 8 8 100\n" + bytes([100]) * (8 * 8 * 3)))
        assert image_to_blocks(raster).max() == 1.0

    def test_rejects_oversized_maxval(self):
        with pytest.raises(ParseError):
            read_ppm(io.BytesIO(b"P6\n1 1\n70000\n" + bytes(6)))

    @given(st.integers(1, 65535).flatmap(lambda maxval: st.tuples(
        arrays(st.sampled_from([np.uint8, np.uint16, np.int64]), st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.just(3)), elements=st.integers(0, min(maxval, 255))),
        st.just(maxval))))
    @example((np.full((1, 1, 3), 65535, dtype=np.uint16), 65535))
    def test_written_files_read_back(self, case):
        pixels, maxval = case
        data = io.BytesIO()
        write_ppm(Raster(pixels, maxval), data)
        back = read_ppm(io.BytesIO(data.getvalue()))
        assert back.maxval == maxval
        assert np.array_equal(back.pixels, pixels)

    @pytest.mark.parametrize("pixels, maxval, message", [
        # 70000 once wrapped the samples mod 2**16 under a header read_ppm
        # refuses, maxval 0 was written, and 1.7 was written as 1
        (np.zeros((2, 2, 3), np.uint32), 70000, "maxval must be at most 65535"),
        (np.zeros((2, 2, 3), np.uint16), 0, "maxval must be positive"),
        (np.zeros((2, 2, 3), np.uint16), -3, "maxval must be positive"),
        (np.zeros((2, 2, 3), np.uint16), 255.0, "maxval must be an integer, got float"),
        (np.zeros((2, 2, 3), np.uint16), True, "maxval must be an integer, got bool"),
        (np.full((2, 2, 3), 1.7), 255, "pixels must have an integer dtype, got float64"),
        (np.ones((2, 2, 3), bool), 255, "pixels must have an integer dtype, got bool"),
        (np.full((2, 2, 3), -1), 255, "pixel values must lie in [0, maxval]"),
        (np.full((2, 2, 3), 256), 255, "pixel values must lie in [0, maxval]"),
        (np.zeros((0, 2, 3), np.uint16), 255, "image has no pixels"),
        (np.zeros((2, 2), np.uint16), 255, "expected (height, width, 3) pixels, got (2, 2)"),
        ([[1], [2, 3]], 255, "expected (height, width, 3) pixels, got ragged sequences"),
    ])
    def test_rejects_raster_read_ppm_would_not_return(self, tmp_path, pixels, maxval, message):
        # one check serves the writer and the tiler; the writer creates no file
        path = tmp_path / "bad.ppm"
        with pytest.raises(InvalidInputError) as info:
            write_ppm(Raster(pixels, maxval), path)
        assert str(info.value) == message
        assert not path.exists()
        with pytest.raises(InvalidInputError) as info:
            image_to_blocks(Raster(pixels, maxval), 1)
        assert str(info.value) == message


@st.composite
def _mutated_ppm(draw):
    """A valid 8- or 16-bit P6 file with a few bytes replaced, inserted or deleted."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 255, 256, 65535]))
    size = width * height * 3 * (2 if maxval > 255 else 1)
    header = draw(st.sampled_from(["P6\n{} {}\n{}\n", "P6 {} {} {} ", "P6\n# c\n{}\t{}\r{}\n"]))
    data = bytearray(header.format(width, height, maxval).encode() + draw(st.binary(min_size=size, max_size=size)))
    for kind, where, byte in draw(st.lists(st.tuples(
            st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 40),
            st.sampled_from(b"0123456789 \t\n#+-_P6\x00\xff")), max_size=3)):
        where = min(where, len(data))
        if kind == "insert":
            data.insert(where, byte)
        elif where < len(data):
            if kind == "replace":
                data[where] = byte
            else:
                del data[where]
    return bytes(data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data)


class TestPpmFuzz:
    @given(_mutated_ppm())
    @example(b"P6\n1_0 1\n255\n" + bytes(30))
    @example(b"P6\n99999999999 99999999999\n65535\n")
    def test_only_package_errors_escape(self, data):
        try:
            raster = read_ppm(io.BytesIO(data))
        except GaussMatchError:
            return
        height, width, channels = raster.pixels.shape
        assert channels == 3 and 1 <= raster.maxval <= 65535
        assert raster.pixels.dtype == np.uint16


class TestImageBlocks:
    def test_single_block_image(self):
        raster = Raster(pixels=np.full((8, 8, 3), 128, dtype=np.uint16), maxval=255)
        blocks = image_to_blocks(raster)
        assert blocks.shape == (1, 192)
        assert blocks.shape[1] == 192
        np.testing.assert_allclose(blocks, 128.0 / 255.0)

    def test_partial_tiles_discarded(self):
        raster = Raster(pixels=np.zeros((10, 10, 3), dtype=np.uint16), maxval=255)
        assert image_to_blocks(raster).shape == (1, 192)
        raster = Raster(pixels=np.zeros((16, 8, 3), dtype=np.uint16), maxval=255)
        assert image_to_blocks(raster).shape == (2, 192)

    def test_row_major_block_order(self):
        # tile (ty, tx) is filled with value ty*2 + tx; rows must follow that order
        pixels = np.zeros((16, 16, 3), dtype=np.uint16)
        for ty in range(2):
            for tx in range(2):
                pixels[ty * 8 : (ty + 1) * 8, tx * 8 : (tx + 1) * 8, :] = ty * 2 + tx
        blocks = image_to_blocks(Raster(pixels=pixels, maxval=255))
        for index in range(4):
            np.testing.assert_allclose(blocks[index], index / 255.0)

    def test_pixel_major_channel_minor_layout(self):
        pixels = np.zeros((8, 8, 3), dtype=np.uint16)
        pixels[0, 0] = (10, 20, 30)
        pixels[0, 1] = (40, 50, 60)
        pixels[1, 0] = (70, 80, 90)
        blocks = image_to_blocks(Raster(pixels=pixels, maxval=255))
        row = blocks[0] * 255.0
        np.testing.assert_allclose(row[0:3], [10, 20, 30])
        np.testing.assert_allclose(row[3:6], [40, 50, 60])   # next pixel in the row
        np.testing.assert_allclose(row[24:27], [70, 80, 90])  # second pixel row
        assert row.min() >= 0.0 and blocks.max() <= 1.0

    def test_custom_block_size(self):
        raster = _gradient_raster(width=9, height=6, maxval=255)
        blocks = image_to_blocks(raster, block_size=3)
        assert blocks.shape == (6, 27)

    def test_too_small_image(self):
        raster = Raster(pixels=np.zeros((4, 4, 3), dtype=np.uint16), maxval=255)
        with pytest.raises(InvalidInputError):
            image_to_blocks(raster)

    def test_gray_16bit_scaling(self):
        raster = Raster(pixels=np.full((8, 8, 3), 65535, dtype=np.uint16), maxval=65535)
        blocks = image_to_blocks(raster)
        np.testing.assert_allclose(blocks, 1.0)

    def test_one_float_copy_of_the_image(self):
        # scaling the image before gathering its tiles holds two float
        # copies of it, twice the result; gathering the integer samples
        # first adds a quarter of it
        pixels = np.random.default_rng(8).integers(0, 256, (512, 512, 3)).astype(np.uint16)
        peak, blocks = _traced_peak(lambda: image_to_blocks(Raster(pixels=pixels, maxval=255)))
        assert blocks.shape == (4096, 192)
        assert peak < 1.5 * blocks.nbytes


def _reference_splitmix_normals(count, seed):
    """Pure-int reimplementation of the stream, kept independent of the package."""
    mask = (1 << 64) - 1

    def word(index):
        z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & mask
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        return z

    out = []
    pair = 0
    while len(out) < count:
        u1 = ((word(2 * pair) >> 11) + 1) * 2.0**-53
        u2 = (word(2 * pair + 1) >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        out.append(radius * math.cos(2.0 * math.pi * u2))
        out.append(radius * math.sin(2.0 * math.pi * u2))
        pair += 1
    return np.array(out[:count])


class TestStandardNormals:
    def test_matches_reference_implementation(self):
        for seed in (0, 7, 12345, 2**63 + 11):
            np.testing.assert_array_equal(
                standard_normals(9, seed), _reference_splitmix_normals(9, seed)
            )
        # numpy's vectorised log differs from the C library's in the last bit
        # on a few tenths of a percent of inputs; the stream must not.
        for seed in range(200):
            np.testing.assert_array_equal(
                standard_normals(400, seed), _reference_splitmix_normals(400, seed)
            )

    def test_counter_based_prefix_property(self):
        long = standard_normals(100, seed=3)
        short = standard_normals(37, seed=3)
        assert np.array_equal(short, long[:37])

    def test_seed_sensitivity(self):
        assert not np.array_equal(standard_normals(16, 1), standard_normals(16, 2))

    def test_zero_count_is_empty(self):
        z = standard_normals(0, seed=5)
        assert z.shape == (0,) and z.dtype == np.float64

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x", None, True, False])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # -1 once aliased 2**64 - 1, 2**64 aliased 0, 1.5 and True aliased 1,
        # and "x" was a bare ValueError
        message = f"seed must be an integer in 0..2**64-1, got {seed!r}"
        for call in (lambda: standard_normals(4, seed),
                     lambda: sample_gaussian([0.0], [[1.0]], 4, seed)):
            with pytest.raises(InvalidInputError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("count", [2**59, 2**60, 2**64, 10**400, 10**5000],
                             ids=["2**59", "2**60", "2**64", "10**400", "10**5000"])
    def test_count_numpy_cannot_size_is_rejected(self, count):
        # from 2**60 on, numpy once refused these with a bare ValueError ("array
        # is too big", "Maximum allowed size exceeded"); 2**59 read as out of memory
        with pytest.raises(InvalidInputError) as info:
            standard_normals(count, 0)
        assert str(info.value) == f"count must be at most {sys.maxsize // 16}"
        with pytest.raises(InvalidInputError) as info:
            sample_gaussian([0.0, 0.0], np.eye(2), count // 2 + 1, 0)
        assert str(info.value) == f"count must be at most {sys.maxsize // 32}"

    def test_largest_count_is_left_to_the_allocator(self):
        # numpy can size a count at the bound, but no machine can hold 2**59
        # doubles, so the allocation fails at once without touching memory
        with pytest.raises(MemoryError):
            standard_normals(sys.maxsize // 16, 0)
        with pytest.raises(MemoryError):
            sample_gaussian([0.0, 0.0], np.eye(2), sys.maxsize // 32, 0)

    def test_largest_seed_and_numpy_integers(self):
        top = 2**64 - 1
        np.testing.assert_array_equal(standard_normals(9, top), _reference_splitmix_normals(9, top))
        np.testing.assert_array_equal(standard_normals(9, np.uint64(top)), standard_normals(9, top))
        np.testing.assert_array_equal(standard_normals(9, np.int64(5)), standard_normals(9, 5))

    def test_statistics(self):
        z = standard_normals(200_000, seed=42)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01
        # fourth moment of a standard normal is 3
        assert abs((z**4).mean() - 3.0) < 0.1


class TestSampleGaussian:
    def test_shape_and_determinism(self):
        a = sample_gaussian([1.0, 2.0], np.eye(2), 50, seed=9)
        b = sample_gaussian([1.0, 2.0], np.eye(2), 50, seed=9)
        assert a.shape == (50, 2)
        assert np.array_equal(a, b)

    def test_moments_converge(self):
        mean = np.array([3.0, 4.0])
        cov = np.array([[1.0, 0.3], [0.3, 0.6]])
        pts = sample_gaussian(mean, cov, 100_000, seed=7)
        mom = estimate_moments(pts)
        assert np.abs(mom.mean - mean).max() < 0.05
        assert np.abs(mom.cov - cov).max() < 0.05

    def test_correlation_structure(self):
        cov = np.array([[2.0, -0.8], [-0.8, 1.0]])
        pts = sample_gaussian([0.0, 0.0], cov, 50_000, seed=21)
        mom = estimate_moments(pts)
        assert mom.cov[0, 1] == pytest.approx(-0.8, abs=0.05)

    def test_root_is_the_recipe_bit_for_bit(self):
        # step 4 of the README recipe: the symmetric root V diag(sqrt(lam)) V'
        rng = np.random.default_rng(31)
        for dim in (1, 2, 5, 12):
            a = rng.normal(size=(dim, dim))
            cov = a @ a.T + 0.1 * np.eye(dim)
            mean = rng.normal(size=dim)
            eig = sym_eigen(cov)
            root = symmetrize((eig.vectors * np.sqrt(eig.values)) @ eig.vectors.T)
            z = standard_normals(40 * dim, 17).reshape(40, dim)
            assert sample_gaussian(mean, cov, 40, 17).tobytes() == (mean + z @ root).tobytes()

    def test_rejects_singular_covariance(self):
        with pytest.raises(SingularMatrixError):
            sample_gaussian([0.0, 0.0], np.diag([1.0, 0.0]), 10, seed=0)

    def test_rejects_tiny_count(self):
        with pytest.raises(InsufficientDataError):
            sample_gaussian([0.0], [[1.0]], 1, seed=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            sample_gaussian([0.0, 1.0], [[1.0]], 10, seed=0)
