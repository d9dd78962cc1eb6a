import pytest

from straintc import fit, phantom


@pytest.fixture
def small_spec():
    """16x16 sample-A phantom, full 300-frame timeline."""
    return phantom.preset("A", width_px=16, height_px=16)


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count, set back after the test."""
    get, set_ = fit._openblas_threads()
    if get() == 0:
        pytest.skip("numpy's OpenBLAS has no thread-count symbols")
    original = get()
    yield get, set_
    set_(original)
