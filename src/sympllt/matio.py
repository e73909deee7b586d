"""Plain-text matrix files with bitwise round-trip guarantees.

Format: optional comment lines starting with '#', then a header line
"rows cols" (base-10 integers, single space), then one line per row with
space-separated entries.  Values are written as the shortest decimal
strings that parse back to the exact same 64-bit float (Python repr), so
write -> read is lossless.
"""

import numpy as np

from .dense import as_matrix
from .errors import DimensionError, InvalidEntryError, ParseError


def write_matrix(path, a, comment=None):
    """Write ``a`` so that ``read_matrix`` reads it back bitwise.  A matrix
    that reading would reject, one with no entries (DimensionError) or a
    NaN or infinite entry (InvalidEntryError), raises before the file is
    opened."""
    a = as_matrix(a)
    if a.size == 0:
        raise DimensionError(f"write_matrix: a matrix of shape {a.shape} has no entries")
    if not np.isfinite(a).all():
        raise InvalidEntryError("write_matrix: NaN or infinite entry")
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            for line in str(comment).splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix(path):
    """Read a matrix written by ``write_matrix`` (or by hand in that format).

    Raises ParseError with the 1-based line number of the first problem:
    a byte that is not ASCII, a missing or malformed header, a row with
    the wrong number of values, a bad or non-finite float literal (Python's
    '_' digit separators are not part of the format), missing
    rows, or a non-blank line after the last data row (extra rows are
    rejected, not ignored).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise _non_ascii_error(path) from None

    k = 0
    while k < len(lines) and lines[k].lstrip().startswith("#"):
        k += 1
    if k >= len(lines):
        raise ParseError(len(lines) + 1, "missing header line")
    header = lines[k].split()
    if len(header) != 2:
        raise ParseError(k + 1, f"header must be 'rows cols', got {lines[k]!r}")
    try:
        if "_" in lines[k]:
            raise ValueError  # int() and float() take Python's digit separators
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(k + 1, f"non-integer header fields in {lines[k]!r}") from None
    if rows < 1 or cols < 1:
        raise ParseError(k + 1, "rows and cols must be positive")

    # grown row by row: a header claiming more than the file holds allocates nothing
    out = []
    for i in range(rows):
        lineno = k + 2 + i
        if k + 1 + i >= len(lines):
            raise ParseError(lineno, f"expected {rows} data rows, file ended early")
        line = lines[k + 1 + i]
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(lineno, f"expected {cols} values, got {len(parts)}")
        try:
            if "_" in line:
                raise ValueError
            out.append(np.array(parts, dtype=np.float64))  # float()'s bits and errors
            finite = np.isfinite(out[i]).all()
        except ValueError:
            finite = False
        if not finite:
            raise _bad_token_error(lineno, parts)
    for extra in range(k + 1 + rows, len(lines)):
        if lines[extra].strip():
            raise ParseError(extra + 1, f"extra data after the {rows} declared rows")
    return np.array(out)


def _bad_token_error(lineno, parts):
    """ParseError naming the first token of a row that is not a finite float."""
    for tok in parts:
        try:
            if "_" in tok:
                raise ValueError
            val = float(tok)
        except ValueError:
            return ParseError(lineno, f"bad float literal {tok!r}")
        if not np.isfinite(val):
            return ParseError(lineno, f"non-finite value {tok!r}")


def _non_ascii_error(path, csv_lines=False):
    """ParseError naming the line of a file's first non-ASCII byte, lines ending as in
    ``str.splitlines``, or with ``csv_lines`` only at \\r, \\n, \\r\\n as in csv.reader."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bad byte starts or ends a line
        head = data[: exc.start] + b"x"
        line = len(head.splitlines() if csv_lines else head.decode("ascii").splitlines())
        return ParseError(line, f"non-ASCII byte {data[exc.start]:#04x}")
    return ParseError(1, "file changed while it was read")
