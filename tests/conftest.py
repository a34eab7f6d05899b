"""Fixtures shared by the test modules."""
import pytest

from ecokmap import _kernels


@pytest.fixture(scope="module")
def compiled():
    """The compiled backend, its lanes on the loop it bound at load
    (avx2_blocks on a CPU with AVX2, else point_loop_scalar); the tests
    that need it skip without a C compiler."""
    pair = _kernels._loop()
    if pair.lib is None:
        pytest.skip("no C compiler: the compiled library is not available")
    return pair
