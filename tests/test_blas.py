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


def test_run_experiment_restores_blas_threads(real_libs):
    config = ExperimentConfig(
        cases=["case1"], procedures=["poly:1", "spline"], schemes=["single"],
        schedules=["ratio:5:5"], n_grid=[40], reps=2, master_seed=3, threads=2,
    )
    run_experiment(config)
    assert [get() for get, _ in real_libs] == [2] * len(real_libs)


def test_usable_cores_follows_affinity(monkeypatch):
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(blas.os, "cpu_count", lambda: 64)
    assert blas.usable_cores() == 1
    monkeypatch.delattr(blas.os, "sched_getaffinity", raising=False)
    assert blas.usable_cores() == 64
