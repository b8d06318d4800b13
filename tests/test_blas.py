import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from cv_arbiter import blas
from cv_arbiter.harness import ExperimentConfig, run_experiment


class _FakeLib:
    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n


def _fakes(monkeypatch, *counts):
    libs = [_FakeLib(c) for c in counts]
    monkeypatch.setattr(blas, "_openblas_libs", lambda: [(lib.get, lib.set) for lib in libs])
    return libs


def test_single_threaded_pins_and_restores(monkeypatch):
    libs = _fakes(monkeypatch, 4, 2)
    with blas.single_threaded():
        assert [lib.threads for lib in libs] == [1, 1]
    assert [lib.threads for lib in libs] == [4, 2]


def test_single_threaded_restores_on_exception(monkeypatch):
    libs = _fakes(monkeypatch, 3)
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            assert libs[0].threads == 1
            raise RuntimeError("boom")
    assert libs[0].threads == 3


def test_single_threaded_without_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_openblas_libs", lambda: [])
    ran = []
    with blas.single_threaded():
        ran.append(True)
    assert ran == [True]


@pytest.fixture
def real_libs():
    libs = blas._openblas_libs()
    if not libs:
        pytest.skip("no bundled OpenBLAS is loaded in this numpy/scipy build")
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield libs
    for (_, set_), count in zip(libs, saved):
        set_(count)


def test_single_threaded_on_the_loaded_openblas(real_libs):
    with blas.single_threaded():
        assert [get() for get, _ in real_libs] == [1] * len(real_libs)
        np.linalg.qr(np.ones((50, 3)) + np.eye(50, 3))
    assert [get() for get, _ in real_libs] == [2] * len(real_libs)


def test_run_experiment_restores_blas_threads(real_libs, monkeypatch):
    config = ExperimentConfig(
        cases=["case1"], procedures=["poly:1", "spline"], schemes=["single"],
        schedules=["ratio:5:5"], n_grid=[40, 41], reps=1, master_seed=3, threads=2,
    )
    run_experiment(config)
    assert [get() for get, _ in real_libs] == [2] * len(real_libs)

    def report(*args):  # a replication's error note carries its process and BLAS threads
        raise ValueError(f"{os.getpid()} {[get() for get, _ in blas._openblas_libs()]}")

    monkeypatch.setattr("cv_arbiter.harness.run_selection", report)
    rows = run_experiment(config).rows
    ones = str([1] * len(real_libs))
    assert [r.error.split(" ", 2)[2] for r in rows] == [ones] * len(rows)
    assert all(int(r.error.split(" ")[1]) != os.getpid() for r in rows)
    assert [get() for get, _ in real_libs] == [2] * len(real_libs)


def test_usable_cores_follows_affinity(monkeypatch):
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(blas.os, "cpu_count", lambda: 64)
    assert blas.usable_cores() == 1
    monkeypatch.delattr(blas.os, "sched_getaffinity", raising=False)
    assert blas.usable_cores() == 64


def _fake_libc(monkeypatch, **symbols):
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda name: types.SimpleNamespace(**symbols))


def test_keep_heap_without_mallopt_is_a_no_op(monkeypatch):
    _fake_libc(monkeypatch)  # no mallopt symbol, as on macOS
    assert blas.keep_heap() is False


def test_keep_heap_sets_both_thresholds_or_reports_a_stub(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    _fake_libc(monkeypatch, mallopt=mallopt)
    assert blas.keep_heap() is True
    assert calls == [(-3, blas.MMAP_THRESHOLD), (-1, blas.TRIM_THRESHOLD)]
    _fake_libc(monkeypatch, mallopt=lambda param, value: 0)  # musl's stub
    assert blas.keep_heap() is False


KEEP_HEAP_BODY = """
import resource, sys
import numpy as np
from cv_arbiter import blas, harness
assert blas.keep_heap()
path = sys.argv[1]
gen = np.random.default_rng(7)
x = gen.random(2000)
y = 1 + x - np.exp(-200 * (x - 0.25) ** 2) + 0.3 * gen.standard_normal(2000)
np.savetxt(path, np.column_stack([x, y]), delimiter=",")
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness.select_from_csv(path, ["poly:1", "poly:2", "spline", "loclin:auto"],
                            "kfold-a:5", "ratio:5:5", 0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_keep_heap_stops_refaulting_the_fit_temporaries(tmp_path):
    # a second select on an n = 2000 case3 CSV reuses the first one's heap:
    # ~30 minor faults with the thresholds set, ~38,000 (150 MB) without
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", KEEP_HEAP_BODY, str(tmp_path / "case3.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000
