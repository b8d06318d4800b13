"""Thread counts: the usable cores, and the bundled OpenBLAS on one thread.

The fits are many small dense problems (QRs of n x ~38 designs, ~37 x 37
triangular solves).  On those, OpenBLAS threads mostly spin and
synchronize, and the harness thread pool multiplies them.  numpy and
scipy wheels each bundle their own OpenBLAS with its own thread count:
numpy's exports ``scipy_openblas_*64_``, scipy's ``scipy_openblas_*``.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from contextlib import contextmanager

_BUNDLING_PACKAGES = ("numpy", "scipy")
_SUFFIXES = ("64_", "")


def _openblas_libs() -> list[tuple]:
    """(get, set) thread-count functions of every loaded bundled OpenBLAS."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return []
    found = []
    for name in _BUNDLING_PACKAGES:
        pkg = sys.modules.get(name)
        if pkg is None or not getattr(pkg, "__file__", None):
            continue
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{name}.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, "libscipy_openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=noload)  # only a copy already loaded
            except OSError:
                continue
            for suffix in _SUFFIXES:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    found.append((get, set_))
                    break
    return found


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity and cpuset), >= 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@contextmanager
def single_threaded():
    """Pin every loaded bundled OpenBLAS to one thread for the body.

    The previous thread counts are restored on exit, also when the body
    raises.  Does nothing when no OpenBLAS is found.
    """
    libs = _openblas_libs()
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(libs, saved):
            set_(count)
