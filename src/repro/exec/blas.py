"""Single-threaded BLAS for per-net analysis.

Per-net analysis is thousands of small solves (tens of unknowns) per
net: too small for a multi-threaded BLAS to split, so its threads only
spin.  Parallelism lives in the process pool instead, and every worker
should run its linear algebra on one BLAS thread.

numpy and scipy each load their own OpenBLAS, so both are found (in
``/proc/self/maps``) and set through ``ctypes``.  Setting
``OPENBLAS_NUM_THREADS`` after import would do nothing: the libraries
read it once, when loaded.  Discovery is lazy and cached: importing
this module goes through :mod:`repro.exec`, which loads numpy and
scipy, so both copies are mapped before the first lookup.  Without a
loaded OpenBLAS (MKL, Accelerate, non-Linux) everything here is a
no-op.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, NamedTuple

__all__ = ["BlasLibrary", "blas_info", "blas_libraries", "blas_threads",
           "set_blas_threads", "single_threaded_blas"]

#: (getter, setter) symbol pairs tried in order on each library: numpy's
#: 64-bit-integer build, scipy's build, then a plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class BlasLibrary(NamedTuple):
    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


_libraries: list[BlasLibrary] | None = None


def _loaded_openblas_paths() -> list[str]:
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        # Matched by file name: scipy's extension modules also resolve
        # the thread symbols, through their dependency on its OpenBLAS.
        if "openblas" in os.path.basename(path).lower() \
                and path not in paths:
            paths.append(path)
    return paths


def _discover() -> list[BlasLibrary]:
    found = []
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            found.append(BlasLibrary(path, getter, setter))
            break
    return found


def blas_libraries() -> list[BlasLibrary]:
    """The OpenBLAS libraries loaded in this process (found once)."""
    global _libraries
    if _libraries is None:
        _libraries = _discover()
    return _libraries


def blas_threads() -> list[int]:
    """Each library's current thread count, in :func:`blas_libraries`
    order."""
    return [lib.get_threads() for lib in blas_libraries()]


def set_blas_threads(counts: int | list[int]) -> None:
    """Set every library to ``counts`` threads, or each to its own."""
    libs = blas_libraries()
    if isinstance(counts, int):
        counts = [counts] * len(libs)
    for lib, count in zip(libs, counts):
        lib.set_threads(count)


@contextmanager
def single_threaded_blas():
    """Run the body on one BLAS thread; restore the caller's counts."""
    previous = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(previous)


def blas_info() -> dict:
    """The BLAS thread budget, for run manifests."""
    libs = blas_libraries()
    return {"libraries": [os.path.basename(lib.path) for lib in libs],
            "analysis_threads": 1 if libs else None}
