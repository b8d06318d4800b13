import pickle
from dataclasses import replace

import numpy as np
import pytest

from cv_arbiter import rng
from cv_arbiter.errors import UnknownFunction
from cv_arbiter.scenarios import (
    Sample,
    Scenario,
    gen_sample,
    residuals,
    resolve_scenario,
    true_f,
)

CASE1 = resolve_scenario("case1")
CASE2 = resolve_scenario("case2")
CASE3 = resolve_scenario("case3")


def test_true_f_anchor_values():
    assert true_f(CASE1, 0.5) == pytest.approx(1.5, abs=1e-15)
    # quadratic term vanishes at its vertex
    assert true_f(CASE2, 0.5) == pytest.approx(1.5, abs=1e-15)
    # bump center: exp(0) = 1
    assert true_f(CASE3, 0.25) == pytest.approx(0.25, abs=1e-15)


def test_true_f_matches_direct_transcription():
    direct = {
        "case1": lambda x: 1 + x,
        "case2": lambda x: 1 + x + 0.7 * (x - 0.5) ** 2,
        "case3": lambda x: 1 + x - np.exp(-200 * (x - 0.25) ** 2),
    }
    x = np.linspace(0.0, 1.0, 1001)
    for name, fn in direct.items():
        got = true_f(resolve_scenario(name), x)
        assert np.max(np.abs(got - fn(x))) <= 1e-15


def test_mean_model_returns_mu():
    scen = resolve_scenario("mean(2.5)")
    assert true_f(scen, 0.1) == 2.5
    assert scen.best == "mean"
    assert resolve_scenario("mean(0)").best == "zero"


def test_gen_sample_bit_reproducible():
    a = gen_sample(CASE1, 100, rng.stream(11, "case1", 100, 0))
    b = gen_sample(CASE1, 100, rng.stream(11, "case1", 100, 0))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = gen_sample(CASE1, 100, rng.stream(11, "case1", 100, 1))
    assert not np.array_equal(a.y, c.y)


def test_gen_sample_zero_noise_is_exact():
    scen = replace(CASE1, sigma=0.0)
    s = gen_sample(scen, 5, rng.stream(3))
    assert np.array_equal(s.y, 1.0 + s.x)


def test_mean_model_clt_anchor():
    # CLT bound, cross-checked with an independent generator.
    scen = replace(resolve_scenario("mean(0)"), sigma=1.0)
    s = gen_sample(scen, 100_000, rng.stream(5, "clt"))
    assert abs(float(np.mean(s.y))) < 0.02
    other = np.random.default_rng(5).standard_normal(100_000)
    assert abs(float(np.mean(other))) < 0.02


def test_residuals_zero_sigma():
    scen = replace(CASE2, sigma=0.0)
    s = gen_sample(scen, 40, rng.stream(9))
    assert np.max(np.abs(residuals(scen, s))) == 0.0


def test_residuals_mean_model_by_hand():
    scen = resolve_scenario("mean(2)")
    s = Sample(x=np.array([0.2, 0.8]), y=np.array([2.1, 1.9]))
    assert residuals(scen, s) == pytest.approx([0.1, -0.1])


def test_residuals_match_regenerated_noise():
    # Regenerating from the same stream recovers the injected noise.
    key = (17, "case2", 64)
    s = gen_sample(CASE2, 64, rng.stream(*key))
    g = rng.stream(*key)
    rng.uniforms(g, 64)  # skip the x draws
    z = rng.normals(g, 64)
    assert residuals(CASE2, s) == pytest.approx(0.3 * z, abs=1e-15)


def test_residual_variance_tracks_sigma():
    s = gen_sample(CASE1, 100_000, rng.stream(21, "var"))
    v = float(np.var(residuals(CASE1, s)))
    assert abs(v - 0.09) <= 0.02 * 0.09


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(x=np.array([0.1, 0.2]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(x=np.array([np.nan]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(x=np.empty(0), y=np.empty(0))


def test_sample_is_immutable():
    s = gen_sample(CASE1, 10, rng.stream(1))
    with pytest.raises(ValueError):
        s.y[0] = 0.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        replace(CASE1, sigma=-0.1)
    with pytest.raises(ValueError):
        Scenario(np.sin, sigma=float("nan"))


def test_custom_function_scenario():
    # any vectorized f makes a scenario; built-in ones survive pickling
    scen = Scenario(np.sin, sigma=0.1)
    assert true_f(scen, 0.0) == 0.0
    assert true_f(scen, np.array([0.0, np.pi / 2])) == pytest.approx([0.0, 1.0])
    for name in ("case1", "case3", "mean(1.5)"):
        scen = resolve_scenario(name)
        x = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(true_f(pickle.loads(pickle.dumps(scen)), x), true_f(scen, x))
    with pytest.raises(UnknownFunction):
        resolve_scenario("case9")
    with pytest.raises(UnknownFunction):
        resolve_scenario("mean(x)")


@pytest.mark.parametrize("n,seed", [(10, 0), (257, 1), (1000, 2)])
def test_gen_sample_shapes_and_ranges(n, seed):
    s = gen_sample(CASE3, n, rng.stream("shape", seed))
    assert s.n == n
    assert np.all((s.x > 0) & (s.x < 1))
    assert np.all(np.isfinite(s.y))
