"""One fresh interpreter of a benchmark run.

Usage: child.py SPEC_JSON MODE T_LAUNCH RESULT_JSON

MODE is ``manifest`` (set up, then record versions and the BLAS build),
``setup`` (set up only), ``body`` (set up, then run the workload's CLI
calls) or ``traced`` (as ``body``, with the span tracer installed after
set-up).  T_LAUNCH is the parent's ``time.monotonic()`` just before the
launch; CLOCK_MONOTONIC is system-wide, so set-up time spans interpreter
start, ``import cv_arbiter`` and the validation of the workload's inputs.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import resource
import sys
import time
import traceback


def _validate(spec: dict) -> list[str]:
    """Parse and validate the workload's inputs through the public API.

    Returns the dotted names that no longer exist, so a refactor that
    moves one shows in the result instead of crashing the benchmark.
    """
    from cv_arbiter import estimators, harness, scenarios, splits

    absent = []

    def call(owner, name, *args):
        fn = getattr(owner, name, None)
        if fn is None:
            absent.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return None
        return fn(*args)

    kind = spec["kind"]
    if kind == "grid":
        config = call(getattr(harness, "ExperimentConfig", None), "from_file", spec["config"])
        if config is not None:
            config.validate()
        return absent
    spec_cls = getattr(estimators, "ProcedureSpec", None)
    for proc in spec["procs"]:
        call(spec_cls, "parse", proc)
    if kind == "select":
        call(getattr(splits, "SelectionScheme", None), "parse", spec["scheme"])
        call(getattr(splits, "SplitSchedule", None), "parse", spec["schedule"])
    else:
        call(scenarios, "resolve_scenario", spec["case"])
    return absent


def _openblas_threads(package, libdir: str, pattern: str, symbol: str):
    """Thread count a bundled OpenBLAS reports; read-only query via ctypes."""
    import ctypes

    root = os.path.dirname(os.path.dirname(package.__file__))
    for path in sorted(glob.glob(os.path.join(root, libdir, pattern))):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return {"library": os.path.basename(path), "threads": int(fn())}
    return None


def _blas_build(package):
    try:
        return package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError) as exc:
        return f"unavailable: {exc!r}"


def _manifest() -> dict:
    import platform

    import numpy
    import scipy

    import cv_arbiter

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cv_arbiter": getattr(cv_arbiter, "__version__", None),
        "blas_build": {"numpy": _blas_build(numpy), "scipy": _blas_build(scipy)},
        "openblas_threads": {
            "numpy": _openblas_threads(numpy, "numpy.libs", "libscipy_openblas64_*.so",
                                       "scipy_openblas_get_num_threads64_"),
            "scipy": _openblas_threads(scipy, "scipy.libs", "libscipy_openblas-*.so",
                                       "scipy_openblas_get_num_threads"),
        },
    }


def _body(calls: list[list[str]]) -> dict:
    import cv_arbiter.cli

    results = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cv_arbiter.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # one failing call must not hide the others' timings
                traceback.print_exc()
                rc = None
        results.append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - t0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]})
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "calls": results}


def main() -> int:
    spec_path, mode, t_launch, result_path = sys.argv[1:5]
    with open(spec_path) as fh:
        spec = json.load(fh)

    import cv_arbiter
    import cv_arbiter.cli  # noqa: F401  (the entry point the body calls)

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(cv_arbiter.__file__).startswith(src + os.sep):
        print(f"cv_arbiter imported from {cv_arbiter.__file__}, not from {src}", file=sys.stderr)
        return 2
    absent = _validate(spec["validate"])
    ready = time.monotonic()

    result = {"setup_s": ready - float(t_launch), "setup_absent": absent}
    if mode == "manifest":
        result["manifest"] = _manifest()
    elif mode in ("body", "traced"):
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        result.update(_body(spec["calls"]))
        if tracer is not None:
            result["trace"] = tracer.dump(spec["spans_path"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
