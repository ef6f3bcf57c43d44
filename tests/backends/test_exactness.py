"""The acceptance matrix: every backend byte-identical to serial.

float32 campaigns share one counter-based noise stream (chunk tasks
carry the counter range via ``trace_offset``), so serial and every
``(start_method, persistent)`` configuration of the pool backend must
agree bitwise — chunked and monolithic alike.  float64-exact keeps per-chunk derived seeds, so equality holds
per chunking (parallel == serial for the same chunk size).
"""

import numpy as np
import pytest

from repro.backends import PoolBackend, fork_available

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

#: monolithic, and a chunking that exercises multi-task dispatch
CHUNKINGS = (None, 16)


#: every ``(start_method, persistent)`` configuration of the one pool class
POOL_CONFIGS = (
    pytest.param("fork", False, marks=needs_fork, id="fork-per-call"),
    pytest.param("spawn", False, id="spawn-per-call"),
    pytest.param("fork", True, marks=needs_fork, id="fork-persistent"),
    pytest.param("spawn", True, id="spawn-persistent"),
)


class TestFloat32Matrix:
    @pytest.mark.parametrize(("start_method", "persistent"), POOL_CONFIGS)
    @pytest.mark.parametrize("chunk_size", CHUNKINGS)
    def test_pool_matches_serial(self, capture, start_method, persistent, chunk_size):
        backend = PoolBackend(jobs=2, start_method=start_method, persistent=persistent)
        try:
            np.testing.assert_array_equal(
                capture(backend, chunk_size), capture("serial", chunk_size)
            )
        finally:
            backend.close()

    def test_chunked_equals_monolithic(self, capture):
        # The float32 contract that makes the whole matrix collapse:
        # chunking itself is a no-op on the acquired bytes.
        np.testing.assert_array_equal(capture("serial", 16), capture("serial", None))
        np.testing.assert_array_equal(capture("serial", 7), capture("serial", None))


class TestFloat64PerChunking:
    @needs_fork
    def test_fork_matches_serial_chunked(self, capture):
        np.testing.assert_array_equal(
            capture("fork", 8, precision="float64-exact"),
            capture("serial", 8, precision="float64-exact"),
        )

    @needs_fork
    def test_fork_matches_serial_monolithic(self, capture):
        np.testing.assert_array_equal(
            capture("fork", None, precision="float64-exact"),
            capture("serial", None, precision="float64-exact"),
        )
