"""The golden digests and the frozen-copy gates again, on the plain loop.

Every test of the three modules imported below runs here a second time
with ``dense._EINSUM_EXACT`` forced false, as on a host whose einsum the
import-time probe rejects, so both of matmul's paths are held to the
same committed digests and frozen copies.  ``np.einsum`` is replaced by
a function that fails, so a product that still reached it would show.
"""

import numpy as np
import pytest

import test_block_products
import test_golden_digests
import test_matmul_equivalence
from sympllt import dense

for _module in (test_golden_digests, test_matmul_equivalence, test_block_products):
    globals().update({name: test for name, test in vars(_module).items()
                      if name.startswith("test_")})


def _refuse(*args, **kwargs):
    raise AssertionError("np.einsum called with the plain loop forced")


@pytest.fixture(autouse=True)
def plain_loop(monkeypatch):
    monkeypatch.setattr(dense, "_EINSUM_EXACT", False)
    monkeypatch.setattr(np, "einsum", _refuse)
