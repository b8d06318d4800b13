import re
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (
    dense_loclin_batch,
    reference_spline_curve,
    reference_spline_design,
    solve_longdouble,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from cv_arbiter import estimators, rng
from cv_arbiter.errors import (
    BandwidthTooSmall,
    CvArbiterError,
    DegenerateDenominator,
    RankDeficient,
    SampleTooSmall,
)
from cv_arbiter.estimators import (
    PROCEDURES,
    ProcedureSpec,
    _bspline_rows,
    _loclin_batch,
    _spline_curve,
    _spline_design,
    _spline_penalty,
    fit_local_linear,
    fit_mean_model,
    fit_polynomial,
    fit_procedure,
    fit_smoothing_spline,
    gcv_profile,
)
from cv_arbiter.scenarios import Sample

GRID_10001 = np.linspace(0.0, 1.0, 10_001)


def _noisy_sine(n=50, seed=7, sigma=0.3):
    g = rng.stream("sine", n, seed)
    x = rng.uniforms(g, n)
    y = np.sin(2 * np.pi * x) + sigma * rng.normals(g, n)
    return Sample(x=x, y=y)


# --- polynomial ----------------------------------------------------------------


def test_polynomial_exact_on_collinear_points():
    s = Sample(x=np.array([0.0, 1.0, 2.0]), y=np.array([1.0, 2.0, 3.0]))
    m = fit_polynomial(s, 1)
    for x in (0.0, 0.37, 1.0, 2.0):
        assert m.predict(x) == pytest.approx(1.0 + x, abs=1e-12)
    assert m.dof == 2.0


def test_polynomial_degree_zero_is_mean():
    s = _noisy_sine(30)
    m = fit_polynomial(s, 0)
    assert m.predict(0.123) == pytest.approx(float(np.mean(s.y)), abs=1e-12)


def test_polynomial_matches_normal_equation_oracle():
    # Independent dense 3x3 normal-equation solve.
    s = _noisy_sine(10, seed=3)
    m = fit_polynomial(s, 2)
    basis = np.vander(s.x, 3, increasing=True)
    oracle = np.linalg.solve(basis.T @ basis, basis.T @ s.y)
    assert m.coefficients == pytest.approx(oracle, rel=1e-10)


def test_polynomial_residuals_orthogonal_to_basis():
    s = _noisy_sine(40, seed=5)
    m = fit_polynomial(s, 2)
    basis = np.vander(s.x, 3, increasing=True)
    resid = s.y - m.predict(s.x)
    scale = float(np.linalg.norm(s.y))
    for col in basis.T:
        assert abs(float(col @ resid)) <= 1e-8 * scale * float(np.linalg.norm(col))


def test_polynomial_rank_deficient():
    s = Sample(x=np.array([0.5, 0.5, 0.5]), y=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(RankDeficient):
        fit_polynomial(s, 1)


def test_polynomial_reproduces_low_degree_data():
    g = rng.stream("poly-repro")
    x = rng.uniforms(g, 25)
    for d_data in (0, 1, 2, 3):
        coefs = rng.normals(g, d_data + 1)
        y = np.polynomial.polynomial.polyval(x, coefs)
        scale = max(1.0, float(np.max(np.abs(y))))
        for d_fit in range(d_data, 4):
            m = fit_polynomial(Sample(x=x, y=y), d_fit)
            assert np.max(np.abs(m.predict(x) - y)) <= 1e-9 * scale


def test_polynomial_nested_rss_monotone():
    s = _noisy_sine(60, seed=11)
    rss = []
    for d in range(0, 5):
        m = fit_polynomial(s, d)
        rss.append(float(np.sum((s.y - m.predict(s.x)) ** 2)))
    for lo, hi in zip(rss[1:], rss[:-1]):
        assert lo <= hi + 1e-9


# --- mean models ----------------------------------------------------------------


def test_zero_model_predicts_zero():
    s = _noisy_sine(15)
    m = fit_mean_model(s, with_mean=False)
    assert m.predict(0.3) == 0.0
    assert m.dof == 0.0


def test_mean_model_predicts_average():
    s = Sample(x=np.array([0.1, 0.5, 0.9]), y=np.array([1.0, 2.0, 3.0]))
    m = fit_mean_model(s, with_mean=True)
    assert m.predict(0.0) == pytest.approx(2.0)
    assert m.predict(1.0) == pytest.approx(2.0)


def test_mean_model_constant_data():
    s = Sample(x=np.linspace(0, 1, 12), y=np.full(12, 3.25))
    assert fit_mean_model(s, True).predict(0.77) == pytest.approx(3.25)


# --- smoothing spline -------------------------------------------------------------


def test_spline_reproduces_line_at_every_grid_lambda():
    # Penalty null space contains linear functions: exact-line data must
    # be returned untouched no matter the lambda.
    g = rng.stream("line", 50)
    x = rng.uniforms(g, 50)
    y = 0.7 + 1.3 * x
    s = Sample(x=x, y=y)
    xx = GRID_10001
    for point in gcv_profile(s):
        m = fit_smoothing_spline(s, [point.lam])
        assert np.max(np.abs(m.predict(xx) - (0.7 + 1.3 * xx))) <= 1e-6


def test_spline_on_adjacent_float_knots_is_rank_deficient_without_warnings():
    # knots a few ulps apart round two Greville abscissae onto one float
    sample = Sample(x=1 + 2.0**-52 * np.arange(60), y=np.sin(np.arange(60.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient, match="Greville"):
            fit_smoothing_spline(sample)


def test_spline_top_lambda_matches_linear_fit():
    s = _noisy_sine(50, seed=2)
    top = gcv_profile(s)[-1].lam
    m = fit_smoothing_spline(s, [top])
    line = fit_polynomial(s, 1)
    gap = np.max(np.abs(m.predict(GRID_10001) - line.predict(GRID_10001)))
    assert gap <= 1e-6


def test_spline_gcv_beats_linear_on_sine():
    s = _noisy_sine(50, seed=4)
    m = fit_smoothing_spline(s)
    line = fit_polynomial(s, 1)
    rss_spline = float(np.sum((s.y - m.predict(s.x)) ** 2))
    rss_line = float(np.sum((s.y - line.predict(s.x)) ** 2))
    assert rss_spline < rss_line


def test_gcv_profile_top_dof_is_two():
    s = _noisy_sine(80, seed=6)
    prof = gcv_profile(s)
    assert prof == sorted(prof, key=lambda p: p.lam)
    assert abs(prof[-1].dof - 2.0) <= 0.01


def test_gcv_profile_dof_monotone_in_lambda():
    s = _noisy_sine(35, seed=9)
    dofs = [p.dof for p in gcv_profile(s)]
    assert all(b <= a + 1e-10 for a, b in zip(dofs[:-1], dofs[1:]))


def test_gcv_trace_matches_dense_hat_oracle():
    # Brute-force dense hat matrix trace tr[(B'B + lam D'D)^{-1} B'B]
    # at n = 25, solved in extended precision; even that oracle loses
    # float accuracy once lam * ||D'D|| passes ~1e6 * ||B'B||, so the
    # stiffest grid points are left to the analytic dof -> 2 tests.
    g = rng.stream("hat-oracle")
    x = np.sort(rng.uniforms(g, 25))
    y = np.sin(2 * np.pi * x) + 0.3 * rng.normals(g, 25)
    s = Sample(x=x, y=y)
    t, By = _spline_design(np.sort(x), y)
    D = _spline_penalty(t)
    Bd = By[:, :-1].astype(np.longdouble)
    gram = Bd.T @ Bd
    pen = D.astype(np.longdouble).T @ D.astype(np.longdouble)
    gram_scale = float(np.linalg.norm(gram.astype(float)))
    pen_scale = float(np.linalg.norm(pen.astype(float)))
    checked = 0
    for point in gcv_profile(s):
        if point.lam * pen_scale > 1e6 * gram_scale:
            continue
        trace = float(np.trace(solve_longdouble(gram + np.longdouble(point.lam) * pen, gram)))
        assert abs(trace - point.dof) <= 1e-8
        checked += 1
    assert checked >= 30  # the oracle-valid range spans the dof transition


def test_gcv_value_matches_dense_hat_oracle():
    # The spectral RSS r^2 + sum((w * (1 - shrink))^2) against the
    # residuals of the dense penalized solve (B'B + lam D'D) c = B'y in
    # extended precision, on the same oracle-valid lambda range.
    g = rng.stream("hat-oracle")
    x = np.sort(rng.uniforms(g, 25))
    y = np.sin(2 * np.pi * x) + 0.3 * rng.normals(g, 25)
    t, By = _spline_design(x, y)
    D = _spline_penalty(t)
    Bd = By[:, :-1].astype(np.longdouble)
    yl = y.astype(np.longdouble)
    gram = Bd.T @ Bd
    pen = D.astype(np.longdouble).T @ D.astype(np.longdouble)
    gram_scale = float(np.linalg.norm(gram.astype(float)))
    pen_scale = float(np.linalg.norm(pen.astype(float)))
    checked = 0
    for point in gcv_profile(Sample(x=x, y=y)):
        if point.lam * pen_scale > 1e6 * gram_scale:
            continue
        m = gram + np.longdouble(point.lam) * pen
        coefs = solve_longdouble(m, (Bd.T @ yl)[:, None])[:, 0]
        trace = np.trace(solve_longdouble(m, gram))
        rss = np.sum((yl - Bd @ coefs) ** 2)
        gcv = float(25 * rss / (25 - trace) ** 2)
        assert abs(point.gcv - gcv) <= 1e-9 * gcv
        checked += 1
    assert checked >= 30


def _penalty_loop(t):
    """Reference penalty, built one row at a time."""
    k = len(t) - 4
    greville = (t[1:-3] + t[2:-2] + t[3:-1]) / 3.0
    D = np.zeros((k - 2, k))
    for i in range(k - 2):
        h1 = greville[i + 1] - greville[i]
        h2 = greville[i + 2] - greville[i + 1]
        span = greville[i + 2] - greville[i]
        D[i, i] = 2.0 / (h1 * span)
        D[i, i + 1] = -2.0 / (h1 * h2)
        D[i, i + 2] = 2.0 / (h2 * span)
    return D


@pytest.mark.parametrize("n", [10, 25, 90, 400])
def test_penalty_is_bit_identical_to_row_loop(n):
    x = np.sort(rng.uniforms(rng.stream("penalty", n), n))
    t, _ = _spline_design(x, x)
    assert np.array_equal(_spline_penalty(t), _penalty_loop(t))


def _tied_sorted_x(seed, n, levels, step, base):
    """n sorted points on ``levels`` equally spaced sites, ties likely."""
    g = np.random.default_rng(seed)
    return base + step * np.sort(g.integers(0, levels, n)).astype(float)


_TIED_X = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 2000),
    levels=st.integers(2, 5000),
    # 2**-52 on base 1 puts the sites on adjacent floats
    step=st.sampled_from([2.0**-52, 1e-9, 1 / 7, 0.01, 1.0, 3e5]),
    base=st.sampled_from([0.0, 1.0, -3.7, 1e8]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**_TIED_X)
def test_spline_design_matches_public_calls(seed, n, levels, step, base):
    x = _tied_sorted_x(seed, n, levels, step, base)
    y = np.random.default_rng(seed).normal(size=n)
    if len(np.unique(x)) < 4:
        with pytest.raises(RankDeficient):
            _spline_design(x, y)
        return
    t, By = _spline_design(x, y)
    t_ref, B_ref = reference_spline_design(x)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(By[:, :-1], B_ref)
    assert np.array_equal(By[:, -1], y)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**_TIED_X, where=st.sampled_from(["inside", "below", "above", "around"]))
def test_spline_curve_matches_scalar_end_calls(seed, n, levels, step, base, where):
    x = _tied_sorted_x(seed, n, levels, step, base)
    assume(len(np.unique(x)) >= 4)
    t, By = _spline_design(x, x)
    g = np.random.default_rng(seed)
    c = g.normal(size=By.shape[1] - 1)
    a, b = t[3], t[-4]
    width = b - a
    lo, hi = {
        "inside": (a, b), "below": (a - width, a), "above": (b, b + width),
        "around": (a - width, b + width),
    }[where]
    xv = np.concatenate([g.uniform(lo, hi, 50), [lo, hi, a, b]])
    assert np.array_equal(_spline_curve(t, c)(xv), reference_spline_curve(t, c)(xv))


@pytest.mark.parametrize("spacing", ["random", "adjacent-floats"])
def test_spline_knots_match_np_quantile_at_every_site_count(spacing):
    for count in range(4, 120):
        if spacing == "random":
            xd = np.sort(rng.uniforms(rng.stream("knots", count), count))
        else:
            xd = 2.0 - 2.0**-52 * np.arange(count, 0, -1)  # ends next to a power of 2
        t_ref, _ = reference_spline_design(xd)
        assert np.array_equal(estimators._spline_knots(xd), t_ref)


def test_bspline_rows_kernel_agrees_with_public_design_matrix():
    # estimators builds the dense basis from the kernel behind
    # BSpline.design_matrix; a library upgrade that changes either one
    # must fail here, not move the golden digests
    for n, seed in ((10, 0), (90, 1), (1440, 2)):
        x = _tied_sorted_x(seed, n, n // 2, 0.01, 0.0)
        t, _ = reference_spline_design(x)
        values, offsets, _ = _bspline_rows(x, t, 3, np.ones_like(x), False)
        public = BSpline.design_matrix(x, t, 3)
        assert np.array_equal(values, public.data.reshape(n, 4)), (
            "scipy's B-spline kernel values differ from BSpline.design_matrix"
        )
        assert np.array_equal(offsets, public.indices.reshape(n, 4)[:, 0]), (
            "scipy's B-spline kernel offsets differ from BSpline.design_matrix"
        )


def test_spline_sample_too_small():
    g = rng.stream("small")
    x = rng.uniforms(g, 9)
    with pytest.raises(SampleTooSmall):
        fit_smoothing_spline(Sample(x=x, y=x))


def test_spline_degenerate_denominator():
    # k = n basis with an effectively unpenalized single-lambda grid:
    # the smoother trace reaches n, every GCV value is the sentinel
    g = rng.stream("degen")
    x = rng.uniforms(g, 10)
    y = rng.normals(g, 10)
    s = Sample(x=x, y=y)
    profile = gcv_profile(s, [1e-300])
    assert profile[0].gcv == np.inf
    with pytest.raises(DegenerateDenominator):
        fit_smoothing_spline(s, [1e-300])


def test_spline_needs_four_distinct_x():
    x = np.repeat([0.1, 0.4, 0.9], 4)
    y = np.arange(12.0)
    with pytest.raises(RankDeficient):
        fit_smoothing_spline(Sample(x=x, y=y))


def test_spline_handles_duplicate_x():
    g = rng.stream("dups")
    x = np.repeat(rng.uniforms(g, 12), 2)
    y = 1 + x + 0.1 * rng.normals(g, 24)
    m = fit_smoothing_spline(Sample(x=x, y=y))
    assert np.all(np.isfinite(m.predict(GRID_10001)))


def test_lambda_grid_validation():
    s = _noisy_sine(30, seed=3)
    for bad in ([0.0, 1.0], [np.inf], [np.nan], [-1.0], []):
        with pytest.raises(ValueError):
            fit_smoothing_spline(s, bad)
        with pytest.raises(ValueError):
            gcv_profile(s, bad)
    lams = [p.lam for p in gcv_profile(s)]
    assert len(lams) == estimators.LAMBDA_POINTS == 81
    assert lams[-1] / lams[0] == pytest.approx(1e16, rel=1e-6)
    assert [p.lam for p in gcv_profile(s, [3.0, 1.0, 2.0])] == [1.0, 2.0, 3.0]


# --- local linear -----------------------------------------------------------------


def test_local_linear_constant_data():
    s = Sample(x=np.linspace(0, 1, 20), y=np.full(20, 2.5))
    for h in (0.05, 0.3, 2.0):
        m = fit_local_linear(s, h)
        assert np.max(np.abs(m.predict(GRID_10001) - 2.5)) <= 1e-10


def test_local_linear_huge_bandwidth_matches_ols():
    s = _noisy_sine(40, seed=12)
    m = fit_local_linear(s, 1e6)
    line = fit_polynomial(s, 1)
    gap = np.max(np.abs(m.predict(GRID_10001) - line.predict(GRID_10001)))
    assert gap <= 1e-4


def test_local_linear_matches_weighted_solve_oracle():
    # Independently coded weighted normal-equation solve at one query.
    x = np.array([0.1, 0.25, 0.4, 0.6, 0.9])
    y = np.array([0.3, 0.1, -0.2, 0.5, 0.8])
    h, x0 = 0.5, 0.3
    m = fit_local_linear(Sample(x=x, y=y), h)
    w = 0.75 * np.maximum(0.0, 1.0 - ((x - x0) / h) ** 2)
    design = np.vstack([np.ones_like(x), x - x0]).T
    coef = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * y))
    assert m.predict(x0) == pytest.approx(coef[0], rel=1e-10)


def test_local_linear_auto_bandwidth():
    s = _noisy_sine(60, seed=13)
    m = fit_local_linear(s, "auto")
    assert m.lam > 0
    assert np.all(np.isfinite(m.predict(GRID_10001)))


def test_local_linear_bandwidth_too_small():
    s = Sample(x=np.full(6, 0.5), y=np.arange(6.0))
    with pytest.raises(BandwidthTooSmall):
        fit_local_linear(s, "auto")


def test_local_linear_needs_five_points():
    s = Sample(x=np.linspace(0, 1, 4), y=np.zeros(4))
    with pytest.raises(SampleTooSmall):
        fit_local_linear(s)


def test_local_linear_fallback_finite_far_from_data():
    # Tiny fixed bandwidth: most grid queries have no in-window points
    # and must fall back to the nearest-data prediction.
    s = Sample(x=np.array([0.1, 0.101, 0.9, 0.901, 0.5]), y=np.array([1, 1, 2, 2, 3.0]))
    m = fit_local_linear(s, 0.005)
    pred = m.predict(GRID_10001)
    assert np.all(np.isfinite(pred))
    assert m.predict(0.0) == pytest.approx(1.0)  # nearest cluster


def _assert_batch_matches_oracle(x, y, h, queries):
    """Fast windowed smoother vs the dense n x n oracle, plain and delete-1.

    Predictions agree to 1e-9 everywhere and validity flags exactly; the
    self weights, which only enter the dof at the data points, agree to
    1e-9 relative there.
    """
    for q, drop_self in ((queries, False), (x, False), (x, True)):
        pred, selfw, valid = _loclin_batch(x, y, h, q, drop_self)
        opred, oselfw, ovalid = dense_loclin_batch(x, y, h, q, drop_self)
        assert valid == ovalid
        assert np.max(np.abs(pred - opred)) <= 1e-9
        if q is x:
            np.testing.assert_allclose(selfw, oselfw, rtol=1e-9, atol=0.0)


def _oracle_fit(monkeypatch, sample, bandwidth):
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_loclin_batch", dense_loclin_batch)
        return fit_local_linear(sample, bandwidth)


def _battery_sample(kind, n):
    g = rng.stream("loclin-battery", kind, n)
    x = rng.uniforms(g, n)
    if kind == "round2":
        x = np.round(x, 2)  # ties
    elif kind == "round1":
        x = np.round(x, 1)  # windows of one repeated x: degenerate spread
    elif kind == "dyadic":
        x = np.floor(x * 64) / 64  # points at exactly distance h = 1/8 or 1/4
    y = np.sin(2 * np.pi * x) + 0.3 * rng.normals(g, n)
    if kind == "offset":
        y += 1000.0  # long prefix sums of large terms: cancellation shows here
    return Sample(x=x, y=y)


@pytest.mark.parametrize(
    "kind, n",
    [("uniform", 5), ("uniform", 17), ("uniform", 60), ("uniform", 250), ("uniform", 1500),
     ("offset", 1500), ("round2", 400), ("round1", 600), ("dyadic", 200)],
)
def test_loclin_batch_matches_dense_oracle(kind, n, monkeypatch):
    s = _battery_sample(kind, n)
    order = np.lexsort((s.y, s.x))
    x, y = s.x[order], s.y[order]
    span = x[-1] - x[0]
    g = rng.stream("loclin-battery-queries", kind, n)
    smallest_auto = max(span / (n - 1) * 1.5, span * 1e-3)
    for h in (smallest_auto, 0.01, 0.05, 0.125, 0.25, 0.7, 1e6, 1e-300, np.inf):
        reach = 0.5 * min(h, span)
        outside = np.concatenate([x[0] - reach * rng.uniforms(g, 5), x[-1] + reach * rng.uniforms(g, 5)])
        queries = np.concatenate([rng.uniforms(g, 40), outside])
        _assert_batch_matches_oracle(x, y, h, queries)
    if n <= 600:
        try:
            slow = _oracle_fit(monkeypatch, s, "auto")
        except BandwidthTooSmall:
            with pytest.raises(BandwidthTooSmall):
                fit_local_linear(s, "auto")
            return
        fast = fit_local_linear(s, "auto")
        assert fast.lam == slow.lam
        assert fast.dof == pytest.approx(slow.dof, rel=1e-9)


@pytest.mark.parametrize("n", [5, 20, 59])
def test_loclin_line_that_overflows_falls_back_to_the_local_mean(n):
    # an x spread of 1e-12 against |y| ~ 1e299 overflows the slope
    # sxy / sxx; the window then predicts its weighted mean, as a flat
    # spread does, on the direct (n <= 32) and the prefix-sum path
    s = rng.stream("loclin-line-overflow", n)
    x = np.sort(1e-12 * rng.uniforms(s, n))
    y = 2.6e299 * (2.0 * rng.uniforms(s, n) - 1.0)
    for q, drop_self in ((np.array([0.0, 5e-13, 1e-12]), False), (x, False), (x, True)):
        pred, selfw, valid = _loclin_batch(x, y, 0.3, q, drop_self)
        opred, oselfw, ovalid = dense_loclin_batch(x, y, 0.3, q, drop_self)
        assert np.all(np.isfinite(pred)) and valid == ovalid
        assert np.max(np.abs(pred - opred)) <= 1e-9 * 2.6e299
        np.testing.assert_allclose(selfw, oselfw, rtol=1e-9, atol=0.0)
    model = fit_local_linear(Sample(x=x, y=y), 0.3)
    assert np.all(np.isfinite(model.predict(GRID_10001)))
    assert 0.0 <= model.dof <= n


def test_loclin_prefix_sums_hand_back_windows_outside_their_group():
    # A window reaches past its prefix-sum group only by rounding at the
    # group's far edge; such rows must be left for point-by-point sums.
    x = np.linspace(0.0, 1.0, 200)
    stats = np.zeros((6, 2))
    lo, hi = np.array([0, 80]), np.array([200, 120])
    outside = estimators._prefix_stats(
        x, x.copy(), 0.1, np.array([0.0, 0.5]), lo, hi, None, stats, np.arange(2)
    )
    assert outside.tolist() == [True, False]
    assert np.all(stats[:, 0] == 0.0) and stats[0, 1] > 0.0


def test_loclin_nearest_fallback_large_n_matches_oracle():
    # h = 1e-6 leaves nearly every window with one point, so almost every
    # query takes the nearest-data fallback.  Dyadic x give exact ties,
    # and the midpoint queries sit at equal distance from both neighbours.
    g = rng.stream("loclin-fallback")
    x = np.floor(rng.uniforms(g, 5000) * 4096) / 4096
    y = rng.normals(g, 5000)
    m = fit_local_linear(Sample(x=x, y=y), 1e-6)
    order = np.lexsort((y, x))
    xt, yt = x[order], y[order]
    queries = np.concatenate([(np.arange(4096) + 0.5) / 4096, rng.uniforms(g, 1000), xt])
    oracle = np.concatenate([
        dense_loclin_batch(xt, yt, 1e-6, queries[i : i + 500])[0]
        for i in range(0, len(queries), 500)
    ])
    assert np.max(np.abs(m.predict(queries) - oracle)) <= 1e-12
    selfw = np.concatenate([
        dense_loclin_batch(xt, yt, 1e-6, xt[i : i + 500])[1] for i in range(0, 5000, 500)
    ])
    assert m.dof == pytest.approx(np.clip(selfw.sum(), 0, 5000), rel=1e-12)


def test_loclin_fit_and_predict_memory_is_linear():
    # A dense n x n temporary alone would take 200 MB at this size.
    g = rng.stream("loclin-memory")
    s = Sample(x=rng.uniforms(g, 5000), y=rng.normals(g, 5000))
    grid = np.linspace(0.0, 1.0, 5000)
    tracemalloc.start()
    try:
        m = fit_local_linear(s, "auto")
        m.predict(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


_GRID_X = st.integers(0, 40).map(lambda k: k / 40)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    x=st.lists(_GRID_X, min_size=5, max_size=30),
    data=st.data(),
    h=st.sampled_from([0.013, 0.07, 0.21, 0.5, 3.0, 1e6, 1e-300, np.inf]),
    drop_self=st.booleans(),
)
def test_loclin_batch_matches_oracle_property(x, data, h, drop_self):
    x = np.sort(np.array(x))
    y = np.array(data.draw(st.lists(
        st.integers(-40, 40).map(lambda k: k / 8), min_size=len(x), max_size=len(x)
    )))
    if drop_self:
        queries = x
    else:
        queries = np.array(data.draw(st.lists(
            st.integers(-20, 100).map(lambda k: k / 80), min_size=1, max_size=20
        )))
    pred, selfw, valid = _loclin_batch(x, y, h, queries, drop_self)
    opred, oselfw, ovalid = dense_loclin_batch(x, y, h, queries, drop_self)
    assert valid == ovalid
    assert np.max(np.abs(pred - opred)) <= 1e-9
    np.testing.assert_allclose(selfw, oselfw, rtol=1e-9, atol=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    x=st.lists(_GRID_X, min_size=5, max_size=40),
    data=st.data(),
    bandwidth=st.sampled_from(["auto", 0.05, 0.3]),
)
def test_loclin_fit_invariant_to_row_order(x, data, bandwidth):
    n = len(x)
    y = rng.normals(rng.stream("loclin-order", n), n)
    perm = np.array(data.draw(st.permutations(range(n))))
    a_sample = Sample(x=np.array(x), y=y)
    b_sample = Sample(x=a_sample.x[perm], y=y[perm])
    try:
        a = fit_local_linear(a_sample, bandwidth)
    except BandwidthTooSmall:
        with pytest.raises(BandwidthTooSmall):
            fit_local_linear(b_sample, bandwidth)
        return
    b = fit_local_linear(b_sample, bandwidth)
    xx = np.linspace(-0.1, 1.1, 121)
    assert a.lam == b.lam and a.dof == b.dof
    assert np.array_equal(a.predict(xx), b.predict(xx))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x=st.lists(_GRID_X, min_size=8, max_size=40),
    data=st.data(),
    proc=st.sampled_from(["poly:0", "poly:1", "poly:3", "spline"]),
)
def test_poly_and_spline_predict_bit_identically_under_row_permutation(x, data, proc):
    # y on a coarse grid repeats whole (x, y) rows
    n = len(x)
    y = np.array(data.draw(st.lists(
        st.integers(-8, 8).map(lambda k: k / 4), min_size=n, max_size=n
    )))
    perm = np.array(data.draw(st.permutations(range(n))))
    a_sample = Sample(x=np.array(x), y=y)
    b_sample = Sample(x=a_sample.x[perm], y=y[perm])
    fit = fit_smoothing_spline if proc == "spline" else (
        lambda s: fit_polynomial(s, ProcedureSpec.parse(proc).arg))
    try:
        a = fit(a_sample)
    except (RankDeficient, SampleTooSmall, DegenerateDenominator) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fit(b_sample)
        return
    b = fit(b_sample)
    xx = np.linspace(-0.1, 1.1, 121)
    assert np.array_equal(a.predict(xx), b.predict(xx))
    assert a.dof == b.dof and a.lam == b.lam


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    y=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
    data=st.data(),
)
def test_mean_fit_under_row_permutation(y, data):
    # fit_mean_model sums y in (x, y)-sorted order, so a permutation
    # leaves the mean bit-identical
    n = len(y)
    perm = np.array(data.draw(st.permutations(range(n))))
    x = np.linspace(0.0, 1.0, n)
    a_sample = Sample(x=x, y=np.array(y))
    b_sample = Sample(x=x[perm], y=a_sample.y[perm])
    xx = np.linspace(-0.1, 1.1, 7)
    assert np.array_equal(fit_mean_model(a_sample, False).predict(xx),
                          fit_mean_model(b_sample, False).predict(xx))
    a = fit_mean_model(a_sample, True).predict(xx)
    b = fit_mean_model(b_sample, True).predict(xx)
    assert np.all(a == a[0]) and np.all(b == b[0])
    assert np.array_equal(a, b)


# One id per PROCEDURES row and argument kind; the fixed bandwidths are
# not scaled with x, so at large |x| they fall back to the nearest mean.
ROW_ORDER_IDS = [
    "poly:0", "poly:1", "poly:3", "zero", "mean", "spline",
    "loclin:auto", "loclin:0.05", "loclin:0.3",
]
_MAGNITUDE = st.integers(-300, 300).map(lambda e: 10.0**e)  # |x| and |y| scales


@st.composite
def _row_order_inputs(draw):
    """A sample of 5 to 200 rows and a permutation of them.

    x is a tied grid (k / 40), adjacent floats (k ulps above the scale)
    or spread floats in [0, 1], times a scale 10^e with e in [-300, 300],
    of either sign.  y is a coarse grid (k / 4, so whole (x, y) rows
    repeat) or any float in [-1, 1], times its own scale.
    """
    n = draw(st.integers(5, 200))
    xscale, yscale = draw(_MAGNITUDE), draw(_MAGNITUDE)
    kind = draw(st.sampled_from(["ties", "adjacent", "spread"]))
    if kind == "spread":
        x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) * xscale
    else:
        k = np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), dtype=float)
        x = k / 40 * xscale if kind == "ties" else xscale + k * np.spacing(xscale)
    if draw(st.booleans()):
        x = -x
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4
    else:
        y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))))
    return Sample(x=x, y=y * yscale), perm


def _fit_or_error(spec, sample):
    try:
        return fit_procedure(spec, sample)
    except CvArbiterError as exc:
        return exc


# The local linear and spline arithmetic overflows at the extreme scales
# drawn here; the fits still fail or agree, so the warnings are not checked.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(inputs=_row_order_inputs())
def test_every_fit_is_exactly_invariant_to_row_order(inputs):
    # The engine fits on halves cut from a sample it sorted once, which is
    # sound only if every fit sees the (x, y)-sorted rows whatever the
    # order.  Each row either fails with the same package error on both
    # orders or fits bit-identical models that are finite on [0, 1].
    assert {ProcedureSpec.parse(p).name for p in ROW_ORDER_IDS} == set(PROCEDURES)
    a_sample, perm = inputs
    b_sample = Sample(x=a_sample.x[perm], y=a_sample.y[perm])
    xx = np.linspace(-0.1, 1.1, 121)
    inside = (xx >= 0.0) & (xx <= 1.0)
    for proc_id in ROW_ORDER_IDS:
        spec = ProcedureSpec.parse(proc_id)
        a, b = _fit_or_error(spec, a_sample), _fit_or_error(spec, b_sample)
        if isinstance(a, CvArbiterError) or isinstance(b, CvArbiterError):
            assert (type(a), str(a)) == (type(b), str(b)), proc_id
            continue
        pa, pb = a.predict(xx), b.predict(xx)
        assert np.all(np.isfinite(pa[inside])), proc_id
        assert np.array_equal(pa, pb, equal_nan=True), proc_id
        assert a.lam == b.lam and a.dof == b.dof, proc_id
        if spec.name in ("zero", "mean"):
            assert np.all(pa == pa[0]), proc_id
            assert np.array_equal(fit_mean_model(b_sample, spec.name == "mean").predict(xx), pa)


# --- cross-cutting properties ------------------------------------------------------


@pytest.mark.parametrize("fitter", ["poly", "spline", "loclin"])
def test_fits_invariant_to_row_order(fitter):
    s = _noisy_sine(40, seed=21)
    perm = rng.stream("perm", fitter).permutation(40)
    shuffled = Sample(x=s.x[perm], y=s.y[perm])
    if fitter == "poly":
        a, b = fit_polynomial(s, 2), fit_polynomial(shuffled, 2)
    elif fitter == "spline":
        a, b = fit_smoothing_spline(s), fit_smoothing_spline(shuffled)
    else:
        a, b = fit_local_linear(s, 0.2), fit_local_linear(shuffled, 0.2)
    xx = np.linspace(0, 1, 501)
    assert np.max(np.abs(a.predict(xx) - b.predict(xx))) <= 1e-12


def test_predictions_finite_on_dense_grid():
    s = _noisy_sine(90, seed=22)
    for m in (fit_smoothing_spline(s), fit_local_linear(s, "auto")):
        assert np.all(np.isfinite(m.predict(GRID_10001)))


def test_dof_at_most_train_n():
    s = _noisy_sine(25, seed=23)
    for spec in ("poly:3", "zero", "mean", "spline", "loclin:0.3"):
        m = fit_procedure(ProcedureSpec.parse(spec), s)
        assert 0.0 <= m.dof <= s.n


def test_procedure_spec_parse_roundtrip():
    names = set()
    for text in ("poly:0", "poly:2", "zero", "mean", "spline", "loclin:auto", "loclin:0.5"):
        spec = ProcedureSpec.parse(text)
        assert spec.id == text
        assert ProcedureSpec.parse(spec.id) == spec
        names.add(spec.name)
    assert names == set(PROCEDURES)
    assert ProcedureSpec.parse("poly:0") == ProcedureSpec("poly", 0)
    # a numeric bandwidth prints as the float it parses to
    assert ProcedureSpec.parse("loclin:5").id == "loclin:5.0"
    for bad in ("wavelet", "loclin:-1", "zero:1", "poly:", "poly", "poly:-1", "loclin:0",
                "loclin:nan"):
        with pytest.raises(ValueError):
            ProcedureSpec.parse(bad)


def test_loclin_batch_delete_one_marks_self():
    x = np.linspace(0, 1, 10)
    y = x.copy()
    pred_self, _, _ = _loclin_batch(x, y, 0.4, x, drop_self=False)
    pred_loo, _, _ = _loclin_batch(x, y, 0.4, x, drop_self=True)
    assert np.all(np.isfinite(pred_loo))
    # both reproduce the line on linear data
    assert pred_self == pytest.approx(y, abs=1e-10)
    assert pred_loo == pytest.approx(y, abs=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_loclin_tiny_bandwidth_fits_without_overflow_warning():
    x = rng.uniforms(rng.stream("loclin-tiny"), 50)
    model = fit_procedure(ProcedureSpec.parse("loclin:1e-300"), Sample(x=x, y=2.0 * x))
    # no window holds two points, so every prediction is the nearest datum
    assert model.predict(x[:5]) == pytest.approx(2.0 * x[:5])
