"""Plain-text matrix files with bitwise round-trip guarantees.

Format: optional comment lines starting with '#', then a header line
"rows cols" (base-10 integers, single space), then one line per row with
space-separated entries.  Values are written as the shortest decimal
strings that parse back to the exact same 64-bit float (Python repr), so
write -> read is lossless.
"""

import itertools
import os
import stat
from functools import partial

import numpy as np

from .dense import as_matrix
from .errors import DimensionError, InvalidEntryError, ParseError
from .workers import _fork_cpus, _forked

# the least file size at which a split parse gained in measured pairs
_SPLIT_MIN_BYTES = 2 ** 19


def write_matrix(path, a):
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
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix(path):
    """Read a matrix written by ``write_matrix`` (or by hand in that format).

    The file is read a line at a time, lines ending where ``str.splitlines``
    ends them (\\n, \\r, \\r\\n, \\v, \\f and \\x1c-\\x1e), and only the rows
    parsed so far are held.  Raises ParseError with a 1-based line number.
    A byte that is not ASCII is reported wherever it lies, even after a line
    with another problem; otherwise the first problem is: a missing or
    malformed header, a row with the wrong number of values, a bad or
    non-finite float literal (Python's '_' digit separators are not part of
    the format), missing rows, or a non-blank line after the last data row
    (extra rows are rejected, not ignored).

    A regular file of at least _SPLIT_MIN_BYTES, if _fork_cpus() > 1, is
    parsed in two parts: this process parses the first 52% of the rows
    while a forked child opens the file this process holds (not its path),
    passes over the lines before its rows and parses the rest (_forked).
    The array and every error are those of one process; a pipe, or
    ``taskset -c 0``, keeps the parse here.  ``ru_maxrss`` and a profiler
    see only this process's part.
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            lines = _lines(fh)
            k, rows, cols = _parse_header(lines)
            st = os.fstat(fh.fileno())  # a child cannot open a pipe's data again
            split = (stat.S_ISREG(st.st_mode) and st.st_size >= _SPLIT_MIN_BYTES
                     and rows > 1 and _fork_cpus() > 1)
            # the child starts later, by its fork and its pass over the lines
            # before its rows, so it takes 2% of the rows fewer than a half
            mid = rows * 52 // 100 if split else rows
            jobs = [partial(_parse_rows, lines, k, rows, cols, 0, mid)]
            if split:
                jobs.append(partial(_reparse_rows, fh.fileno(), k, rows, cols, mid))
            parts = _forked(jobs)
        except UnicodeDecodeError:
            raise _non_ascii_error(fh.buffer) from None
        except ParseError as exc:
            # the decoder checks one block of the file at a time, so a non-ASCII
            # byte further on may not have been read yet
            raise _non_ascii_error(fh.buffer, otherwise=exc) from None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _lines(fh):
    # fh opened with newline="": open() ends lines at \r, \n and \r\n, splitlines() at the rest
    return (line for piece in fh for line in piece.splitlines())


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


def _reparse_rows(fd, k, rows, cols, lo):
    # _parse_rows from row lo to the end of the file open as fd in the caller.
    # /proc/self/fd/<fd> opens that same file with an offset of its own (a
    # forked child shares the caller's), also if its path was replaced or
    # unlinked; a split runs only where _single_threaded listed /proc/self/task
    with open(f"/proc/self/fd/{fd}", "r", encoding="ascii", newline="") as fh:
        return _parse_rows(itertools.islice(_lines(fh), k + lo, None), k, rows, cols, lo, rows)


def _parse_rows(lines, k, rows, cols, lo, hi):
    # data rows lo..hi-1 of a header on line k, ``lines`` at row lo's line; the
    # last range also rejects a non-blank line after the declared rows.  Grown
    # row by row: a header claiming more than the file holds allocates nothing
    out = []
    for lineno in range(k + 1 + lo, k + 1 + hi):
        line = next(lines, None)
        if line is None:
            raise ParseError(lineno, f"expected {rows} data rows, file ended early")
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(lineno, f"expected {cols} values, got {len(parts)}")
        try:
            if "_" in line:
                raise ValueError
            out.append(np.array(parts, dtype=np.float64))  # float()'s bits and errors
            finite = np.isfinite(out[-1]).all()
        except ValueError:
            finite = False
        if not finite:
            raise _bad_token_error(lineno, parts)
    if hi == rows:
        for lineno, line in enumerate(lines, start=k + 1 + rows):
            if line.strip():
                raise ParseError(lineno, f"extra data after the {rows} declared rows")
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


def _non_ascii_error(fh, csv_lines=False, otherwise=None):
    """ParseError naming the line of the first non-ASCII byte of the binary file ``fh``,
    read again from its start, lines ending as in ``str.splitlines``, or with ``csv_lines``
    only at \\r, \\n, \\r\\n as in csv.reader.  If every byte is ASCII, or ``fh`` cannot
    be read again (a pipe): ``otherwise``, or an error saying the file changed."""
    split = bytes.splitlines if csv_lines else lambda b: b.decode("ascii").splitlines()
    line = 1
    if fh.seekable():
        fh.seek(0)
        for piece in fh:  # pieces end at \n, so none splits a \r\n
            try:
                piece.decode("ascii")
            except UnicodeDecodeError as exc:
                # the bad byte starts or ends a line
                line += len(split(piece[: exc.start] + b"x")) - 1
                return ParseError(line, f"non-ASCII byte {piece[exc.start]:#04x}")
            line += len(split(piece))
    return otherwise or ParseError(1, "file changed while it was read")
