"""Reading and pinning the OpenBLAS thread count."""

import subprocess
import sys

import numpy as np
import pytest

from repro.backends import PoolBackend, fork_available
from repro.backends.blas import blas_threads, pinned_blas_threads, set_blas_threads

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS with a thread setter is loaded"
)


def _threads_in_worker(threads: int) -> tuple:
    """(count inside the pin, count after it) in whatever process runs this."""
    with pinned_blas_threads(threads):
        inside = blas_threads()
    return inside, blas_threads()


@needs_openblas
class TestPinning:
    def test_pin_sets_the_count_and_restores_it(self):
        before = blas_threads()
        with pinned_blas_threads(1):
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_pin_restores_after_an_error(self):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with pinned_blas_threads(1):
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_set_returns_the_previous_count(self):
        before = blas_threads()
        try:
            assert set_blas_threads(1) == before
            assert set_blas_threads(before) == 1
        finally:
            set_blas_threads(before)

    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_a_pool_worker_pins_its_own_count(self):
        before = blas_threads()
        backend = PoolBackend(2)
        try:
            outcomes = backend.map_items(_threads_in_worker, [1, 1])
        finally:
            backend.close()
        assert outcomes == [(1, before), (1, before)]
        assert blas_threads() == before

    def test_pinned_products_do_not_depend_on_the_process_count(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(400, 256)), rng.normal(size=(400, 500))
        before = blas_threads()
        products = []
        try:
            for threads in (1, 2):
                set_blas_threads(threads)
                with pinned_blas_threads(1):
                    products.append((x.T @ y).tobytes())
        finally:
            set_blas_threads(before)
        assert products[0] == products[1]


def test_without_openblas_every_call_is_a_no_op():
    code = (
        "import sys\n"
        "from repro.backends.blas import blas_threads, pinned_blas_threads, set_blas_threads\n"
        "assert 'numpy' not in sys.modules\n"
        "assert blas_threads() is None and set_blas_threads(1) is None\n"
        "with pinned_blas_threads(1):\n"
        "    pass\n"
        "assert 'numpy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
