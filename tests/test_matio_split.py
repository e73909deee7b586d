"""read_matrix's parse split into blocks of _BLOCK lines: every block is read
from the file that read_matrix opened, whatever happens to its path after.

The path is changed either before the parse of the rows has started (on the
call of ``_parse_rows``) or after it has started, between its first and
second block (on the second call of ``_parse_block``).  The matrices are
larger than one block and than the decoder's first 8 KB, so the rows after
the change are read from the open file, not from a buffer.
"""

import os

import numpy as np
import pytest

from sympllt import matio, read_matrix, write_matrix
from sympllt.testmat import standard_normal_matrix


@pytest.mark.parametrize("parse", ["started", "not-started"])
@pytest.mark.parametrize("change", ["replaced", "unlinked"])
def test_a_path_changed_during_the_read_reads_the_opened_file(tmp_path, monkeypatch,
                                                              change, parse):
    # the path is replaced by another file of the same shape, or unlinked,
    # after read_matrix read the header; the rows still come from the file
    # it opened
    path, other = tmp_path / "a.mat", tmp_path / "b.mat"
    n = matio._BLOCK + 50
    a = standard_normal_matrix(n, 1)
    write_matrix(path, a)
    write_matrix(other, standard_normal_matrix(n, 2))
    hooked = "_parse_block" if parse == "started" else "_parse_rows"
    real, calls = getattr(matio, hooked), []

    def changing(*args):
        calls.append(args[1])
        if len(calls) == (2 if parse == "started" else 1):
            if change == "replaced":
                os.replace(other, path)
            else:
                path.unlink()
        return real(*args)

    monkeypatch.setattr(matio, hooked, changing)
    got = read_matrix(path)
    assert got.shape == a.shape and got.view(np.uint64).tobytes() == a.view(np.uint64).tobytes()
    assert path.exists() == (change == "replaced") and other.exists() == (change == "unlinked")
    # _parse_block's second argument is a block's first line, _parse_rows's
    # the header's; the header is on line 1
    assert calls == ([2, 2 + matio._BLOCK] if parse == "started" else [1])
