"""Read and pin the thread count of the loaded OpenBLAS.

OpenBLAS starts one thread per CPU in every process, and its matrix
products are *not* independent of that count: on this repository's CPA
shapes a one-thread and a two-thread ``xc.T @ yc`` differ in the last
bit for some (traces, samples) pairs.  Two consequences shape how the
count is handled:

* Results must not depend on which process computes them, so a pool
  worker cannot simply be capped below its parent (a capped worker-side
  fold would stop matching the parent-side fold byte for byte).
* Pool workers that keep the default count oversubscribe the host: two
  workers on a 2-CPU host run four BLAS threads on two CPUs, and two
  concurrent corpus passes double their per-cell latency.

So a computation that must be layout-independent *and* fan out pins
its own products to one thread, in the parent and in every worker
alike (:func:`pinned_blas_threads`); corpus cells do.

The count is read and set through ctypes on the library numpy has
already loaded; nothing is loaded here.  Where no OpenBLAS with a known
setter is mapped into the process (another BLAS, or numpy not imported
yet) every function here does nothing and reports ``None``.  Like the
compile cache, the pin is for one thread per process.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
from typing import Iterator

#: (setter, getter) symbol pairs, by OpenBLAS build flavour
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

#: the process's ``(set, get)`` pair once found (or ``None`` once numpy
#: is loaded without an OpenBLAS); reset by no one, inherited by forks
_FOUND: list = []


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:  # pragma: no cover - no procfs
        return []
    return sorted(path for path in paths if "openblas" in os.path.basename(path))


def _controls(path: str):
    """``(set, get)`` of the library at ``path`` if it is loaded, else ``None``."""
    try:
        lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0) | os.RTLD_LAZY)
    except OSError:
        return None
    for setter, getter in _SYMBOLS:
        if hasattr(lib, setter) and hasattr(lib, getter):
            set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


def _openblas():
    if _FOUND:
        return _FOUND[0]
    controls = next(
        (found for found in map(_controls, _mapped_openblas()) if found is not None), None
    )
    if controls is not None or "numpy" in sys.modules:
        # numpy loads its BLAS on import: a miss after that is final.
        _FOUND.append(controls)
    return controls


def blas_threads() -> int | None:
    """The loaded OpenBLAS's thread count, or ``None`` without one."""
    controls = _openblas()
    return None if controls is None else int(controls[1]())


def set_blas_threads(threads: int) -> int | None:
    """Set the loaded OpenBLAS to ``threads`` threads; return the old count.

    A no-op returning ``None`` when no OpenBLAS is loaded.
    """
    controls = _openblas()
    if controls is None:
        return None
    previous = int(controls[1]())
    if previous != threads:
        controls[0](max(1, int(threads)))
    return previous


@contextlib.contextmanager
def pinned_blas_threads(threads: int) -> Iterator[None]:
    """Run the block with OpenBLAS at ``threads`` threads, then restore it."""
    previous = set_blas_threads(threads)
    try:
        yield
    finally:
        if previous is not None and previous != threads:
            set_blas_threads(previous)
