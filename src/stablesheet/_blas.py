"""One BLAS thread around the kernels whose bytes must not depend on it.

A multithreaded OpenBLAS splits a product's reductions differently for
different thread counts, so the last bits of a result can change with
OPENBLAS_NUM_THREADS. `one_thread` sets every OpenBLAS library loaded in the
process (numpy's and scipy's) to one thread for the length of a `with` block
and restores the previous counts afterwards. Where no OpenBLAS with a thread
control is loaded it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import sys
from functools import lru_cache

_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _controls() -> tuple:
    """(get, set) thread-count functions, one pair per loaded OpenBLAS library.

    A library loads with the extension module that links it, and scipy is
    imported where it is used, so its OpenBLAS can arrive after the first
    call: the scan reruns whenever the number of imported modules has changed.
    """
    return _scan(len(sys.modules))


@lru_cache(maxsize=1)
def _scan(modules: int) -> tuple:
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SYMBOLS:
            get = getattr(lib, symbol.format("get"), None)
            put = getattr(lib, symbol.format("set"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_thread():
    """Run the block with every loaded OpenBLAS on one thread."""
    controls = _controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)
