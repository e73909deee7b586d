import warnings

import numpy as np
import pytest

from sympllt import DimensionError, InvalidEntryError, ParseError, matio, read_matrix, write_matrix
from sympllt.testmat import minij, random_pdp, standard_normal_matrix, hyperbolic_spd


def test_round_trip_minij(tmp_path):
    path = tmp_path / "a.mat"
    write_matrix(path, minij())
    assert np.array_equal(read_matrix(path), minij())


def test_read_identity_literal(tmp_path):
    path = tmp_path / "i.mat"
    path.write_text("2 2\n1 0\n0 1\n")
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_round_trip_hyperbolic_bitwise(tmp_path):
    path = tmp_path / "t.mat"
    a = hyperbolic_spd(3.0)
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_round_trip_random_bitwise(tmp_path):
    path = tmp_path / "r.mat"
    a = random_pdp(13, 99).assemble()
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)
    # tiny and denormal-adjacent values survive too
    b = standard_normal_matrix(5, 3) * 1e-300
    write_matrix(path, b)
    assert np.array_equal(read_matrix(path), b)


def test_comments_are_skipped(tmp_path):
    path = tmp_path / "c.mat"
    path.write_text("# produced by hand\n# second comment\n1 2\n0.5 -3.25\n")
    assert np.array_equal(read_matrix(path), np.array([[0.5, -3.25]]))


def test_trailing_blank_lines_accepted(tmp_path):
    path = tmp_path / "b.mat"
    path.write_text("2 2\n1 0\n0 1\n\n   \n")
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_bad_token_message_names_first_bad_token(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("1 3\n1 inf zebra\n")
    with pytest.raises(ParseError, match="non-finite value 'inf'"):
        read_matrix(path)
    path.write_text("1 3\n1 zebra inf\n")
    with pytest.raises(ParseError, match="bad float literal 'zebra'"):
        read_matrix(path)


def test_digit_separator_is_a_bad_literal(tmp_path):
    # float("1_0") is 10.0 in Python; the file format is plain decimal
    path = tmp_path / "sep.mat"
    path.write_text("1 3\n1 2_0 zebra\n")
    with pytest.raises(ParseError, match="line 2: bad float literal '2_0'"):
        read_matrix(path)
    path.write_text("1_0 1\n1\n")
    with pytest.raises(ParseError, match="line 1: non-integer header fields"):
        read_matrix(path)
    path.write_text("# a_comment may hold underscores\n1 1\n10\n")
    assert np.array_equal(read_matrix(path), np.array([[10.0]]))


def test_scientific_notation_accepted(tmp_path):
    path = tmp_path / "s.mat"
    path.write_text("1 3\n1e3 -2.5E-4 +0.125\n")
    assert np.array_equal(read_matrix(path), np.array([[1000.0, -2.5e-4, 0.125]]))


# (file, line of its ParseError); test_matio_equivalence.py reads these too
MALFORMED = [
    ("", 1),
    ("2\n1 0\n0 1\n", 1),
    ("a b\n", 1),
    ("0 2\n", 1),
    ("2 2\n1 0\n", 3),
    ("2 2\n1 0 0\n0 1\n", 2),
    ("1 2\n1 zebra\n", 2),
    ("1 1\nnan\n", 2),
    ("1 1\ninf\n", 2),
    ("1 2\n1 inf zebra\n", 2),
    ("2 2\n1 0\n0 1\n1 1\n", 4),
    ("# c\n1 1\n5\n\n7\n", 5),
    # headers that claim more rows or columns than the file holds
    ("1000000000000 2\n1 2\n", 3),
    ("1 1000000000000\n1 2\n", 2),
    ("100000000 100000000\n1 2\n", 2),
    # Python's digit separators, which float() and int() accept
    ("1 1\n1_0\n", 2),
    ("1_0 2\n1 2\n", 1),
    ("1 1_0\n1 2\n", 1),
    ("2 2\n1 0\n0 1_000\n", 3),
    ("1 3\n1 2_5e3 3\n", 2),
    # blank data rows, which np.loadtxt would skip
    ("2 2\n\n\n", 2),
    ("2 2\n1 0\n\n", 3),
]
NON_ASCII = [
    (b"2 2\n1 0\n0 1\xe9\n", 3),
    (b"\xe92 2\n", 1),
    (b"# note\r\n2 2\r\n1 0\xff\r\n0 1\r\n", 3),
    (b"2 2\r1 0\r0 \xc3\xa91\r", 3),
]


@pytest.mark.parametrize("content,line", MALFORMED)
def test_malformed_inputs_report_line(tmp_path, content, line):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert err.value.line == line


@pytest.mark.parametrize("content,line", NON_ASCII)
def test_non_ascii_byte_names_its_line(tmp_path, content, line):
    path = tmp_path / "latin.mat"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert err.value.line == line and "non-ASCII byte" in str(err.value)


@pytest.mark.parametrize("content, message", [
    (b"2 2\n1 0\nx 1\n", "line 3: bad float literal 'x'"),
    # the bad byte lies past the first 8 KB, so the header parses and the
    # byte is met while the rows are parsed
    (b"2 2\n1" + b" " * 9000 + b" 0\n\xc3\xa9 1\n", "line 3: non-ASCII byte 0xc3"),
], ids=["bad-float", "non-ascii"])
def test_a_file_unlinked_during_the_read_raises_its_parse_error(tmp_path, monkeypatch, content,
                                                                 message):
    # every line is read from the file read_matrix holds, not from its path
    path = tmp_path / "bad.mat"
    path.write_bytes(content)
    real = matio._parse_rows

    def unlinked_first(*args):
        path.unlink()
        return real(*args)

    monkeypatch.setattr(matio, "_parse_rows", unlinked_first)
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert str(err.value) == message and not path.exists()


@pytest.mark.parametrize("blank", [1, 101])
def test_blank_data_rows_raise_without_a_warning(tmp_path, blank):
    # data rows ``blank`` to 150 are blank, so one block of lines holds only
    # blank ones, on which np.loadtxt would warn "input contained no data"
    path = tmp_path / "blank.mat"
    path.write_text("150 2\n" + "1 2\n" * (blank - 1) + "\n" * (151 - blank))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
    assert str(err.value) == f"line {blank + 1}: expected 2 values, got 0" and caught == []


NON_FINITE = "write_matrix: input contains NaN or infinite entries"  # every kernel's text


@pytest.mark.parametrize("a, error, message", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), InvalidEntryError, NON_FINITE),
    (np.array([[np.inf]]), InvalidEntryError, NON_FINITE),
    (np.array([[1.0, -np.inf, 0.0]]), InvalidEntryError, NON_FINITE),
    (np.zeros((0, 3)), DimensionError, "write_matrix: a matrix of shape (0, 3) has no entries"),
    (np.zeros((3, 0)), DimensionError, "write_matrix: a matrix of shape (3, 0) has no entries"),
], ids=["nan", "inf", "minus-inf", "no-rows", "no-columns"])
def test_write_refuses_what_read_rejects(tmp_path, a, error, message):
    # read_matrix would reject this file, so none is made
    path = tmp_path / "bad.mat"
    with pytest.raises(error) as info:
        write_matrix(path, a)
    assert str(info.value) == message
    assert not path.exists()
