"""Process set-up: the usable cores, the bundled OpenBLAS on one thread,
and a malloc heap kept across fits.

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

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks below 4 MiB come from the heap, so every fit and draw temporary
# (a 1440 x 38 design is 0.4 MiB, a prop1 chunk of 2^16 draws 0.5 MiB)
# reuses freed heap memory instead of a fresh mmap.
MMAP_THRESHOLD = 4 << 20
# Setting the mmap threshold stops glibc raising the trim threshold with
# it, so keep up to 64 MiB of free heap top instead of the default 128 KiB:
# without it the heap is given back to the kernel after each fit and the
# next one faults it in again.
TRIM_THRESHOLD = 64 << 20


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


def keep_heap() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    Left alone, glibc raises both thresholds only after a large block is
    freed, so whether the fits' temporaries are faulted in again on every
    fit depends on what happened to be imported.  Returns whether both
    were set; does nothing without a ``mallopt`` (macOS) and has no
    effect where it is a stub (musl).  Forked children and threads share
    the setting.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
