from dataclasses import replace

import numpy as np
import pytest

from cv_arbiter import rng
from cv_arbiter.diagnostics import (
    SUP_GRID,
    _l2_l4,
    better_prob,
    condition_scales,
    diagnostics_report,
    empirical_norm,
    loss_ratio_prob,
    rate_slope,
)
from cv_arbiter.errors import DegenerateRisk
from cv_arbiter.estimators import FittedModel, ProcedureSpec
from cv_arbiter.scenarios import resolve_scenario
from cv_arbiter.splits import SplitSchedule

CASE1 = resolve_scenario("case1")
CASE2 = resolve_scenario("case2")
CASE3 = resolve_scenario("case3")
MEAN_MODEL = resolve_scenario("mean(1)")
ZERO_SCEN = resolve_scenario("mean(0)")
P = ProcedureSpec.parse


def _model(fn):
    return FittedModel(predict=lambda x: np.asarray(fn(np.asarray(x, float))), trace=lambda: 0.0)


def test_constant_error_gives_constant_norms():
    m = _model(lambda x: np.full_like(x, -1.7))  # f == 0, so |f - fhat| == 1.7
    for q in (2, 4):
        val, se = empirical_norm(m, ZERO_SCEN, q, 10_000, rng.stream("c", q))
        assert val == pytest.approx(1.7, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)
    val, se = empirical_norm(m, ZERO_SCEN, np.inf, 100, rng.stream("c-inf"))
    assert val == pytest.approx(1.7, abs=1e-12) and se == 0.0


def test_identity_error_matches_analytic_moments():
    # fhat - f = x on Uniform(0,1): L2 = 3^{-1/2}, L4 = 5^{-1/4}
    m = _model(lambda x: x)
    l2, se2 = empirical_norm(m, ZERO_SCEN, 2, 100_000, rng.stream("anchor", 2))
    assert abs(l2 - 3 ** -0.5) <= 3 * se2
    l4, se4 = empirical_norm(m, ZERO_SCEN, 4, 100_000, rng.stream("anchor", 4))
    assert abs(l4 - 5 ** -0.25) <= 3 * se4
    linf, se_inf = empirical_norm(m, ZERO_SCEN, np.inf, 100, rng.stream("anchor-inf"))
    assert linf == 1.0 and se_inf == 0.0  # attained at the grid point x = 1


def test_norm_needs_enough_draws():
    with pytest.raises(ValueError):
        empirical_norm(_model(lambda x: x), ZERO_SCEN, 2, 50, rng.stream("few"))


def test_l2_le_l4_on_shared_draws():
    # power-mean inequality holds exactly per replication
    g = rng.stream("power-mean")
    m = _model(lambda x: np.sin(5 * x))
    for _ in range(20):
        x = rng.uniforms(g, 500)
        l2, l4 = _l2_l4(m, ZERO_SCEN, x)
        assert l2 <= l4 + 1e-12


def test_rate_slope_parametric_anchor():
    # mean estimator on the mean model has risk sigma^2 / n exactly
    slope = rate_slope(P("mean"), MEAN_MODEL, [50, 100, 200, 400, 800], 200, rng.stream("d-slope-mean"))
    assert abs(slope - (-1.0)) <= 0.15


def test_rate_slope_nonconverging_is_flat():
    slope = rate_slope(P("zero"), MEAN_MODEL, [50, 100, 200, 400, 800], 20, rng.stream("d-slope-zero"))
    assert abs(slope) <= 0.05


def test_rate_slope_spline_is_nonparametric():
    slope = rate_slope(P("spline"), CASE3, [100, 200, 400], 20, rng.stream("d-slope"))
    assert -1.0 < slope < -0.2


def test_rate_slope_preconditions():
    with pytest.raises(ValueError):
        rate_slope(P("mean"), MEAN_MODEL, [50, 100], 50, rng.stream("x"))
    with pytest.raises(ValueError):
        rate_slope(P("mean"), MEAN_MODEL, [50, 100, 200], 5, rng.stream("x"))


def test_rate_slope_degenerate_risk():
    noiseless = replace(ZERO_SCEN, sigma=0.0)
    with pytest.raises(DegenerateRisk):
        rate_slope(P("zero"), noiseless, [50, 100, 200], 20, rng.stream("deg"))


def test_better_prob_identical_procedures():
    assert better_prob(P("poly:1"), P("poly:1"), CASE1, 100, 50, 0.5, rng.stream("same")) == 0.0


def test_better_prob_case2_quadratic_dominates_line():
    bp = better_prob(P("poly:2"), P("poly:1"), CASE2, 400, 100, 0.5, rng.stream("bp1"))
    assert bp >= 0.95


def test_better_prob_case1_same_rate_is_inconclusive():
    bp = better_prob(P("poly:1"), P("poly:2"), CASE1, 400, 100, 0.01, rng.stream("bp-c1"))
    assert 0.2 < bp < 1.0


def test_condition_scales_constant_error_ratio_one():
    sup_scale, ratio_scale = condition_scales(P("mean"), MEAN_MODEL, 50, 50, rng.stream("cs-mean"))
    assert ratio_scale == pytest.approx(1.0, abs=1e-9)
    assert sup_scale > 0


def test_condition_scales_zero_estimator_sup_is_two():
    # |f| attains 2 at x = 1 for the linear case; fit is deterministic
    sup_scale, _ = condition_scales(P("zero"), CASE1, 60, 50, rng.stream("cs-zero"))
    assert sup_scale == pytest.approx(2.0, abs=1e-12)


def test_condition_scales_spline_ratio_bounded():
    _, ratio_scale = condition_scales(P("spline"), CASE3, 400, 50, rng.stream("cs"))
    assert ratio_scale < 3.0


def test_condition_scales_degenerate_risk():
    noiseless = replace(ZERO_SCEN, sigma=0.0)
    with pytest.raises(DegenerateRisk):
        condition_scales(P("zero"), noiseless, 50, 50, rng.stream("cs-deg"))


def test_loss_ratio_identical_procedures():
    sched = SplitSchedule.parse("ratio:5:5")
    assert loss_ratio_prob(P("poly:1"), P("poly:1"), CASE1, 100, sched, 50, 0.5, rng.stream("lr0")) == 0.0


def test_loss_ratio_case3_line_is_far_worse():
    sched = SplitSchedule.parse("ratio:5:5")
    lr = loss_ratio_prob(P("spline"), P("poly:1"), CASE3, 400, sched, 60, 1.0, rng.stream("lr"))
    assert lr >= 0.95


def test_loss_ratio_monotone_in_alpha():
    sched = SplitSchedule.parse("ratio:5:5")
    vals = [
        loss_ratio_prob(P("poly:2"), P("poly:1"), CASE2, 100, sched, 50, alpha, rng.stream("lr-mono"))
        for alpha in (0.1, 0.5, 1.0, 2.0)
    ]
    assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


def test_better_prob_monotone_in_threshold():
    vals = [
        better_prob(P("poly:2"), P("poly:1"), CASE2, 100, 50, c, rng.stream("bp-mono"))
        for c in (0.05, 0.2, 0.8)
    ]
    assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


def test_sup_grid_shape():
    assert len(SUP_GRID) == 10_001
    assert SUP_GRID[0] == 0.0 and SUP_GRID[-1] == 1.0


def test_diagnostics_report_round_trip():
    report = diagnostics_report(
        ["poly:1", "poly:2"], "case2", CASE2, 100, 50, seed=5, norm_draws=2000
    )
    d = report.to_dict()
    assert d["procedures"] == ["poly:1", "poly:2"]
    assert len(d["norms"]) == 2
    assert len(d["rate_slopes"]) == 2
    assert d["better_prob"] is not None
    assert 0.0 <= d["better_prob"] <= 1.0
    assert d["loss_ratio_prob"] is not None
    for entry in d["norms"]:
        (l2, _), (l4, se4), (linf, _) = entry["l2"], entry["l4"], entry["linf"]
        assert l2 <= l4 + 1e-9
        assert l4 <= linf + 3 * se4  # grid sup bounds L4 up to MC error
