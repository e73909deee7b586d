"""The golden digests, the frozen-copy and the memory gates again, on the plain loop.

Every test of the four modules imported below runs here a second time
with ``dense._EINSUM_EXACT`` forced false, as on a host whose einsum the
import-time probe rejects, so both of matmul's paths are held to the
same committed digests and frozen copies.  ``np.einsum`` is replaced by
a function that fails, so a product that still reached it would show.
A frozen result that depends only on its inputs is not computed again here.
"""

import numpy as np
import pytest

import test_block_products
import test_golden_digests
import test_matmul_equivalence
import test_memory_gates
from sympllt import dense

for _module in (test_golden_digests, test_matmul_equivalence, test_block_products,
                test_memory_gates):
    globals().update({name: test for name, test in vars(_module).items()
                      if name.startswith("test_")})


def _refuse(*args, **kwargs):
    raise AssertionError("np.einsum called with the plain loop forced")


@pytest.fixture(autouse=True)
def plain_loop(monkeypatch):
    monkeypatch.setattr(dense, "_EINSUM_EXACT", False)
    monkeypatch.setattr(np, "einsum", _refuse)
