"""read_matrix against a frozen copy of the whole-text reader.

The reader streams the file a line at a time; the frozen copy reads
the whole text, splits it with ``str.splitlines`` and parses the list.  On
every input the two must return the same array bits, or raise a
ParseError with the same line and message.  The inputs are the matrix
files ``test_fuzz.py`` draws, and by hand the cases where streaming could
differ: a problem in an early block of a file whose non-ASCII byte comes
later, line ends other than \\n, and headers that claim more than the file
holds.  The rows are parsed in blocks of 100 lines, each by np.loadtxt or
by a line loop, so the cases are also put at and past a block's edge, and
every case is read once more with np.loadtxt refusing every block.
"""

import numpy as np
import pytest

from sympllt import ParseError, read_matrix
from sympllt.testmat import SplitMix64, standard_normal_matrix

import test_fuzz
from frozen import frozen_read_matrix
from test_matio import MALFORMED, NON_ASCII


def read_outcome(read, path):
    """('array', shape, bits) or ('error', line, message) of one read."""
    try:
        a = read(path)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "array", a.shape, a.view(np.uint64).tobytes()


def assert_same(path):
    want = read_outcome(frozen_read_matrix, path)
    assert read_outcome(read_matrix, path) == want
    return want


def test_fuzzed_matrix_files_read_as_before(tmp_path):
    rng = SplitMix64(424242)
    kinds = set()
    for case in range(600):
        path = test_fuzz.matrix_file(rng, tmp_path / f"in{case % 4}.mat")
        kinds.add(assert_same(path)[0])
    assert kinds == {"array", "error"}


def rows_text(rows, cols, bad_line=None):
    """A rows x cols file; data line ``bad_line`` (1-based in the file) holds a bad literal."""
    lines = [f"{rows} {cols}"] + [" ".join(["1.5"] * cols)] * rows
    if bad_line is not None:
        lines[bad_line - 1] = " ".join(["1"] * (cols - 1) + ["x"])
    return "\n".join(lines) + "\n"


LATIN = [(2, 5003), (2, 5001), (4000, 5002), (None, 2)]


@pytest.mark.parametrize("bad_line,latin_line", LATIN)
def test_non_ascii_byte_beyond_the_first_block_wins(tmp_path, bad_line, latin_line):
    # 5001 rows of 2 values: far more than one 8 KB block of the decoder
    text = rows_text(5001, 2, bad_line).encode("ascii").split(b"\n")
    text[latin_line - 1] += b" \xc3\xa9"
    path = tmp_path / "latin.mat"
    path.write_bytes(b"\n".join(text))
    assert path.stat().st_size > 8192
    assert assert_same(path) == ("error", latin_line, f"line {latin_line}: non-ASCII byte 0xc3")


def ends_at_the_block_edge(end):
    """A 150 x 3 file whose data rows 99-101 end in ``end``, the others in \\n."""
    rows = [" ".join(map(repr, map(float, row))) for row in standard_normal_matrix(150, 3)[:, :3]]
    return "150 3\n" + "".join(row + (end if 99 <= i <= 101 else "\n")
                               for i, row in enumerate(rows, start=1))


def past_the_first_block(content):
    """``content`` with 100 more data rows of ones before its own, which its
    header counts, or None if its header does not parse or declares more
    than 10 rows or columns."""
    lines = content.splitlines(keepends=True)
    h = next((i for i, line in enumerate(lines) if not line.lstrip().startswith(b"#")), None)
    try:
        rows, cols = map(int, lines[h].decode("ascii").split())
    except (TypeError, ValueError, UnicodeDecodeError):
        return None
    if not (1 <= rows <= 10 and 1 <= cols <= 10) or b"_" in lines[h]:
        return None
    end = lines[h][len(lines[h].rstrip(b"\r\n")):] or b"\n"
    ones = [b" ".join([b"1"] * cols) + end] * 100
    return b"".join(lines[:h] + [b"%d %d" % (rows + 100, cols) + end] + ones + lines[h + 1:])


def bad_then_latin():
    """A bad literal in block 1 and a non-ASCII byte in block 3, past the
    decoder's first 8 KB, so that the bad literal raises first."""
    lines = rows_text(300, 40, bad_line=50).encode("ascii").split(b"\n")
    lines[250] += b" \xc3\xa9"
    return b"\n".join(lines)


FILES = [
    # str.splitlines also ends lines at \f, \v and \x1c-\x1e, inside a data row too
    "2 2\n1 0\f0 1\n",
    "2 2\n1 0\v0 1\n",
    "2 2\n1 0\x1c0 1\n",
    "2 2\n1 0\x1d0 1\x1e",
    "2 2\n1 0 \f 0 1\n",
    "1 2\n1\x0c2\n",
    "# c\x0c2 2\n1 0\n0 1\n",
    # \r and \r\n line ends, mixed too
    "2 2\r1 0\r0 1\r",
    "2 2\r\n1 0\r\n0 1\r\n",
    "2 2\r\n1 0\r0 1\n\r\n",
    "2 2\r1 0\r\r0 1\r",
    "2 2\r\n1 x\r\n0 1\r\n",
    # empty, comments only, trailing blank lines
    "",
    "\n",
    "# only a comment\n",
    "# one\n  # two\n",
    "2 2\n1 0\n0 1\n\n   \n\t\n",
    "2 2\n1 0\n0 1\n\n\n7\n",
    "2 2\n1 0\n0 1",
    # headers that claim more than the file holds
    "1000000000000 2\n1 2\n",
    "1000000000000 1000000000000\n1 2\n",
    "3 2\n1 2\n",
]
AT_THE_BLOCK_EDGE = {
    **{f"rows-99-101-end-{end.encode().hex()}": ends_at_the_block_edge(end)
       for end in ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e"]},
    **{f"past-block-1-{i}": moved for i, moved in enumerate(
        past_the_first_block(c if isinstance(c, bytes) else c.encode("ascii"))
        for c, _ in MALFORMED + NON_ASCII) if moved},
    "bad-in-block-1-latin-in-block-3": bad_then_latin(),
}


@pytest.mark.parametrize("content", FILES + [pytest.param(content, id=name)
                                             for name, content in AT_THE_BLOCK_EDGE.items()])
def test_line_ends_and_short_files_read_as_before(tmp_path, content):
    path = tmp_path / "f.mat"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("ascii"))
    assert_same(path)


@pytest.mark.parametrize("pad", range(8180, 8196))
def test_a_line_end_across_a_block_boundary(tmp_path, pad):
    # a comment long enough to put "\r\n" (or "\r" then "\n") at the decoder's block edge
    path = tmp_path / "edge.mat"
    path.write_bytes(b"#" + b"c" * pad + b"\r\n2 2\r\n1 0\r\n0 1\r\n")
    assert assert_same(path)[0] == "array"
    path.write_bytes(b"#" + b"c" * pad + b"\r#\r\n2 2\r1 0\n0 1\n")
    assert assert_same(path)[0] == "array"
    path.write_bytes(b"#" + b"c" * pad + b"\r\r\n2 2\n1 0\n0 1\n")  # a blank header
    assert assert_same(path)[:2] == ("error", 2)


def test_the_line_loop_alone_reads_every_case_as_before(tmp_path, monkeypatch):
    # np.loadtxt refuses every block, so _parse_block's line loop reads each
    # file whole: it must accept a block that holds no error
    refused = []

    def loadtxt(*args, **kwargs):
        refused.append(args)
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    test_fuzzed_matrix_files_read_as_before(tmp_path)
    for bad_line, latin_line in LATIN:
        test_non_ascii_byte_beyond_the_first_block_wins(tmp_path, bad_line, latin_line)
    for content in FILES + list(AT_THE_BLOCK_EDGE.values()):
        test_line_ends_and_short_files_read_as_before(tmp_path, content)
    for pad in range(8180, 8196):
        test_a_line_end_across_a_block_boundary(tmp_path, pad)
    assert refused
