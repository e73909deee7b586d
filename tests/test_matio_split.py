"""read_matrix's split parse: a regular file of at least _SPLIT_MIN_BYTES is
parsed in two halves, the second by a forked child, and the array and every
ParseError are those of the parse in one process.

As in ``test_diagnose_split.py``, the affinity mask is patched to one CPU to
keep the parse in this process and to two to split it, and the thread probe
is taken as single-threaded.  Which process parsed which rows is read from a
log that each call of ``_parse_rows`` appends to, in whichever process it
runs.  Most files here are small matrices after a comment that takes them
past the threshold, so that a case costs a fork, not a large parse.
"""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sympllt import matio, read_matrix, write_matrix
from sympllt.testmat import random_pdp, standard_normal_matrix
from support import forkable, nothing_left, set_cpus  # noqa: F401

import test_matio
from test_matio_equivalence import read_outcome

PAD = b"# " + b"p" * matio._SPLIT_MIN_BYTES + b"\n"
SRC = str(Path(__file__).resolve().parent.parent / "src")
pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                                reason="no fork or no /proc/self/fd on this platform")


@pytest.fixture
def parsed(tmp_path, monkeypatch):
    """A function returning the (pid, lo, hi) of each _parse_rows call since it
    was last called, in call order."""
    log = tmp_path / "rows.log"
    real = matio._parse_rows

    def logged(lines, k, rows, cols, lo, hi):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {lo} {hi}\n")
        return real(lines, k, rows, cols, lo, hi)

    def read():
        words = list(map(int, log.read_text(encoding="ascii").split())) if log.exists() else []
        log.unlink(missing_ok=True)
        return list(zip(words[::3], words[1::3], words[2::3]))

    monkeypatch.setattr(matio, "_parse_rows", logged)
    return read


def one_process(monkeypatch, path):
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        return read_outcome(read_matrix, path)


def split(monkeypatch, path):
    with monkeypatch.context() as m:
        set_cpus(m, 2)
        forkable(m)
        return read_outcome(read_matrix, path)


def assert_split_as_one_process(monkeypatch, parsed, path):
    """The one-process and the split outcome of ``path``, which must be equal,
    and the (pid, lo, hi) of the split read's _parse_rows calls."""
    want = one_process(monkeypatch, path)
    assert {pid for pid, _, _ in parsed()} <= {os.getpid()}
    got = split(monkeypatch, path)
    assert got == want
    return want, parsed()


def assert_halves(runs, rows):
    # this process parsed rows 0..rows // 2, one child the rest
    here, child = sorted(runs, key=lambda run: run[1])
    assert here == (os.getpid(), 0, rows // 2)
    assert child[1:] == (rows // 2, rows) and child[0] != os.getpid()


@pytest.mark.parametrize("seed", [1, 20231011])
def test_a_large_file_splits_bitwise(tmp_path, monkeypatch, parsed, seed):
    a = random_pdp(100, seed).assemble()  # order 200, about 750 KB
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    assert path.stat().st_size >= matio._SPLIT_MIN_BYTES
    want, runs = assert_split_as_one_process(monkeypatch, parsed, path)
    assert want == ("array", a.shape, a.view(np.uint64).tobytes())
    assert_halves(runs, 200)


def matrix_text(rows, cols, ends):
    """A rows x cols file of normals after a comment, data row i ending in
    ends(i), then blank lines."""
    a = standard_normal_matrix(max(rows, cols), rows + cols)[:rows, :cols]
    body = "".join(" ".join(map(repr, map(float, row))) + ends(i) for i, row in enumerate(a))
    return PAD + (f"# note\n{rows} {cols}\n{body}\n  \n\n").encode("ascii")


@pytest.mark.parametrize("end", ["\r", "\r\n", "\v", "\f", "\x1c", "\n"],
                         ids=["cr", "crlf", "vt", "ff", "fs", "lf"])
@pytest.mark.parametrize("rows", [9, 10])
def test_line_ends_near_the_cut_read_bitwise(tmp_path, monkeypatch, parsed, end, rows):
    # the rows around the cut, and only they, end in ``end``
    path = tmp_path / "ends.mat"
    near = range(rows // 2 - 2, rows // 2 + 1)
    path.write_bytes(matrix_text(rows, 3, lambda i: end if i in near else "\n"))
    want, runs = assert_split_as_one_process(monkeypatch, parsed, path)
    assert want[:2] == ("array", (rows, 3))
    assert_halves(runs, rows)


def cases():
    """Each file of test_malformed_inputs_report_line and
    test_non_ascii_byte_names_its_line, as bytes."""
    out = []
    for name in ("test_malformed_inputs_report_line", "test_non_ascii_byte_names_its_line"):
        (mark,) = [m for m in getattr(test_matio, name).pytestmark if m.name == "parametrize"]
        out += [c.encode("ascii") if isinstance(c, str) else c for c, _ in mark.args[1]]
    return out


def in_half(content, half):
    """(``content`` with its fault in this process's half ('here') or the
    child's ('child'), its cut), or None if its header does not parse or its
    rows or columns exceed 10.  Both declare 2 rows + 2 rows, so that the cut
    falls after rows + 1; 'child' puts rows + 2 rows of ones before the data."""
    lines = content.splitlines(keepends=True)
    h = next((i for i, line in enumerate(lines) if not line.lstrip().startswith(b"#")), None)
    try:
        rows, cols = map(int, lines[h].decode("ascii").split())
    except (TypeError, ValueError, UnicodeDecodeError):
        return None
    if not (1 <= rows <= 10 and 1 <= cols <= 10) or b"_" in lines[h]:
        return None
    end = lines[h][len(lines[h].rstrip(b"\r\n")):] or b"\n"
    ones = [b" ".join([b"1"] * cols) + end] * (rows + 2) if half == "child" else []
    return (b"".join(lines[:h] + [b"%d %d" % (2 * rows + 2, cols) + end] + ones
                     + lines[h + 1:]), rows + 1)


MALFORMED = [(content, None, "as-is") for content in cases()] + [
    (*moved, half) for content in cases() for half in ("here", "child")
    if (moved := in_half(content, half))]


@pytest.mark.parametrize("content, cut, half", MALFORMED,
                         ids=[f"{i}-{half}" for i, (_, _, half) in enumerate(MALFORMED)])
def test_a_malformed_file_raises_as_in_one_process(tmp_path, monkeypatch, parsed,
                                                    content, cut, half):
    path = tmp_path / "bad.mat"
    path.write_bytes(PAD + content)
    want, runs = assert_split_as_one_process(monkeypatch, parsed, path)
    assert want[0] == "error"
    if cut is not None and content.isascii():
        # split: the rows before the cut were parsed here (a non-ASCII byte
        # can raise in the header's block of the decoder, before the split)
        assert (os.getpid(), 0, cut) in runs


@pytest.mark.parametrize("latin, bad", [(3, 8), (8, 3), (2, None), (9, None)],
                         ids=["latin-here-bad-child", "latin-child-bad-here",
                              "latin-here", "latin-child"])
def test_a_non_ascii_byte_is_reported_from_either_half(tmp_path, monkeypatch, parsed,
                                                       latin, bad):
    # data rows ``latin`` and ``bad`` (0-based, cut at 5) hold the faults.
    # Rows of about 6 KB keep them out of the decoder's 8 KB block that holds
    # the header, so that they are met after the split
    lines = matrix_text(10, 300, lambda i: "\n").split(b"\n")
    first = lines.index(b"10 300") + 1
    lines[first + latin] += b" \xc3\xa9"
    if bad is not None:
        lines[first + bad] = b"1 2 zebra"
    path = tmp_path / "latin.mat"
    path.write_bytes(b"\n".join(lines))
    want, runs = assert_split_as_one_process(monkeypatch, parsed, path)
    assert want == ("error", first + latin + 1, f"line {first + latin + 1}: non-ASCII byte 0xc3")
    assert (os.getpid(), 0, 5) in runs


def test_a_child_that_dies_leaves_its_rows_to_this_process(tmp_path, monkeypatch, parsed):
    path = tmp_path / "a.mat"
    path.write_bytes(matrix_text(10, 3, lambda i: "\n"))
    want = one_process(monkeypatch, path)
    parsed()
    parent, logged = os.getpid(), matio._parse_rows

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return logged(*args)

    monkeypatch.setattr(matio, "_parse_rows", dying)
    assert split(monkeypatch, path) == want
    assert parsed() == [(parent, 0, 5), (parent, 5, 10)]


def test_one_cpu_or_a_small_file_keeps_the_parse_here(tmp_path, monkeypatch, parsed):
    path = tmp_path / "a.mat"
    path.write_bytes(matrix_text(10, 3, lambda i: "\n"))
    one_process(monkeypatch, path)
    assert parsed() == [(os.getpid(), 0, 10)]
    path.write_bytes(matrix_text(10, 3, lambda i: "\n")[len(PAD):])
    split(monkeypatch, path)
    assert parsed() == [(os.getpid(), 0, 10)]


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="no pipe sizes to set")
def test_a_pipe_is_parsed_here(tmp_path, monkeypatch, parsed):
    # a child opening the pipe again would read from the same pipe.  Linux
    # gives a pipe's size as 0, some systems as the bytes it holds: say more
    # than the threshold, so that only the file type keeps the parse here
    data = matrix_text(10, 3, lambda i: "\n")
    path = tmp_path / "a.mat"
    path.write_bytes(data)
    want = one_process(monkeypatch, path)
    parsed()
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        (*real(fd)[:6], matio._SPLIT_MIN_BYTES, *real(fd)[7:10])))
    read, write = os.pipe()
    try:
        # the whole file in the pipe, its write end closed: no reader can wait
        with open(write, "wb") as fh:
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, len(data))
            fh.write(data)
        got = split(monkeypatch, f"/proc/self/fd/{read}")
    finally:
        os.close(read)
    assert got == want and parsed() == [(os.getpid(), 0, 10)]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_diagnose_reads_an_order_400_file_from_a_pipe(tmp_path):
    # no probe patched: on more than one CPU the file splits, the pipe does not
    path = tmp_path / "a.mat"
    write_matrix(path, random_pdp(200, 1).assemble())
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    cli = [sys.executable, "-m", "sympllt.cli", "diagnose", "--in"]
    piped = subprocess.run(cli + ["/dev/stdin"], input=path.read_bytes(), capture_output=True,
                           env=env, timeout=120)
    from_file = subprocess.run(cli + [str(path)], capture_output=True, env=env, timeout=120)
    assert piped.returncode == from_file.returncode == 0, piped.stderr
    assert piped.stdout == from_file.stdout and b"file(0)" in piped.stdout
