"""Plain-text matrix files with bitwise round-trip guarantees.

Format: optional comment lines starting with '#', then a header line
"rows cols" (base-10 integers, single space), then one line per row with
space-separated entries.  Values are written as the shortest decimal
strings that parse back to the exact same 64-bit float (Python repr), so
write -> read is lossless.
"""

import itertools
from contextlib import suppress

import numpy as np

from .dense import _require_finite, as_matrix
from .errors import DimensionError, ParseError, SympLLTError

# lines per np.loadtxt call: 50 parsed slower, 200 raised the peak memory
_BLOCK = 100


def write_matrix(path, a):
    """Write ``a`` so that ``read_matrix`` reads it back bitwise.  A matrix
    that reading would reject, one with no entries (DimensionError) or a
    NaN or infinite entry (InvalidEntryError), raises before the file is
    opened."""
    a = as_matrix(a)
    if a.size == 0:
        raise DimensionError(f"write_matrix: a matrix of shape {a.shape} has no entries")
    _require_finite(a, "write_matrix")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix(path):
    """Read a matrix written by ``write_matrix`` (or by hand in that format).

    The file is read _BLOCK lines at a time, lines ending where
    ``str.splitlines`` ends them (\\n, \\r, \\r\\n, \\v, \\f and \\x1c-\\x1e),
    and only those lines and the rows parsed so far are held.  Raises
    ParseError with a 1-based line number.  A byte that is not ASCII is
    reported wherever it lies, even after a line with another problem;
    otherwise the first problem is: a missing or malformed header, a row with
    the wrong number of values, a bad or non-finite float literal (Python's
    '_' digit separators are not part of the format), missing rows, or a
    non-blank line after the last data row (extra rows are rejected, not
    ignored).

    The parse runs in this process, never forks and reads the file once.  Each
    block goes through numpy's C ``np.loadtxt`` or, with the same result, a
    line loop (_parse_block).
    """
    return _read_lines(path, lambda lines: _parse_rows(lines, *_parse_header(lines)))


def _read_lines(path, parse, split=str.splitlines):
    """``parse(lines)``: the lines of the file at ``path``, which open() with
    newline="" ends at \\r, \\n and \\r\\n, each cut by ``split``.  The first
    line with a non-ASCII byte raises ParseError, even after a SympLLTError of
    ``parse``: then the rest of the lines are read."""
    with open(path, encoding="ascii", errors="surrogateescape", newline="") as fh:
        lines = _ascii_lines(line for piece in fh for line in split(piece))
        try:
            return parse(lines)
        except SympLLTError:
            for _ in lines:
                pass
            raise


def _ascii_lines(lines):
    # a byte the ascii codec cannot decode is the surrogate U+DC00 + byte
    for k, line in enumerate(lines, start=1):
        if not line.isascii():
            byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
            raise ParseError(k, f"non-ASCII byte {byte:#04x}")
        yield line


def _parse_header(lines):
    # (k, rows, cols), where k is the header's line number
    k = 0
    for k, line in enumerate(lines, start=1):
        if not line.lstrip().startswith("#"):
            break
    else:
        raise ParseError(k + 1, "missing header line")
    header = line.split()
    if len(header) != 2:
        raise ParseError(k, f"header must be 'rows cols', got {line!r}")
    try:
        if "_" in line:
            raise ValueError  # int() and float() take Python's digit separators
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(k, f"non-integer header fields in {line!r}") from None
    if rows < 1 or cols < 1:
        raise ParseError(k, "rows and cols must be positive")
    return k, rows, cols


def _parse_rows(lines, k, rows, cols):
    # the data rows of a header on line k, then no non-blank line.  Grown by
    # blocks: a header claiming more than the file holds allocates nothing
    parts = [_parse_block(lines, lineno, min(_BLOCK, k + 1 + rows - lineno), rows, cols)
             for lineno in range(k + 1, k + 1 + rows, _BLOCK)]
    for lineno, line in enumerate(lines, start=k + 1 + rows):
        if line.strip():
            raise ParseError(lineno, f"extra data after the {rows} declared rows")
    return np.concatenate(parts)


def _parse_block(lines, first, want, rows, cols):
    # the next ``want`` data rows, the first on line ``first``.  np.loadtxt
    # skips blank lines (and warns if it finds only those) and takes no '_':
    # its array is kept where the line loop's would be the same, and the
    # line loop, which raises each line's ParseError, reads any other block
    block = list(itertools.islice(lines, want))
    if block and block[0].strip() and not any("_" in line for line in block):
        with suppress(ValueError):
            a = np.loadtxt(block, ndmin=2, comments=None)
            if a.shape == (want, cols) and np.isfinite(a).all():
                return a
    out = []
    for lineno, line in enumerate(block, start=first):
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(lineno, f"expected {cols} values, got {len(parts)}")
        out.append([_token(lineno, tok) for tok in parts])
    if len(block) < want:
        raise ParseError(first + len(block), f"expected {rows} data rows, file ended early")
    return np.array(out)


def _token(lineno, tok):
    # float(tok), or the ParseError of line lineno for a token that is no finite float
    try:
        if "_" in tok:
            raise ValueError
        val = float(tok)
    except ValueError:
        raise ParseError(lineno, f"bad float literal {tok!r}") from None
    if not np.isfinite(val):
        raise ParseError(lineno, f"non-finite value {tok!r}")
    return val
