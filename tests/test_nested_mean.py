import math

import numpy as np
import pytest
from helpers import sequential_selection_prob

from cv_arbiter import nested_mean, rng
from cv_arbiter.errors import ExhaustiveTooLarge, OverflowRisk
from cv_arbiter.nested_mean import (
    NestedMeanInstance,
    brute_force_multifold,
    closed_cv_pair,
    enumeration_check,
    f_reference_prob,
    normalized_cv_diff,
    selection_prob,
    split_count_factor,
)
from cv_arbiter.splits import EXHAUSTIVE_CAP


def test_zero_noise_zero_mu_means_exact_tie():
    inst = NestedMeanInstance(mu=0.0, eps=np.zeros(6), n1=3)
    assert normalized_cv_diff(inst) == 0.0
    assert closed_cv_pair(inst) == (0.0, 0.0)
    assert brute_force_multifold(inst.y, 3) == (0.0, 0.0)


def test_hand_enumerated_four_point_case():
    eps = np.array([0.1, -0.2, 0.3, -0.4])
    inst = NestedMeanInstance(mu=0.0, eps=eps, n1=2)
    cv1, cv2 = closed_cv_pair(inst)
    # every point is evaluated in C(3,1) = 3 splits: CV(1) = 3 * 0.30
    assert cv1 == pytest.approx(0.90, abs=1e-12)
    b1, b2 = brute_force_multifold(inst.y, 2)
    assert b1 == pytest.approx(cv1, rel=1e-12)
    assert b2 == pytest.approx(cv2, rel=1e-12)
    k = float(split_count_factor(4, 2))
    assert normalized_cv_diff(inst) == pytest.approx((b1 - b2) / k, rel=1e-12)


def test_brute_force_three_point_hand_case():
    cv1, cv2 = brute_force_multifold(np.array([1.0, 0.0, 0.0]), 1)
    # the nonzero point is evaluated in 2 of the 3 splits
    assert cv1 == pytest.approx(2.0)
    assert cv2 == pytest.approx(4.0)


def test_closed_pair_matches_enumeration_grid():
    for n in range(4, 9):
        for n1 in range(1, n):
            for seed in range(3):
                for mu in (0.0, 1.0):
                    eps = rng.normals(rng.stream("pair", n, n1, seed, mu), n)
                    inst = NestedMeanInstance(mu=mu, eps=eps, n1=n1)
                    cv1, cv2 = closed_cv_pair(inst)
                    b1, b2 = brute_force_multifold(inst.y, n1)
                    assert cv1 == pytest.approx(b1, rel=1e-9)
                    assert cv2 == pytest.approx(b2, rel=1e-9)
                    assert cv1 >= 0 and cv2 >= 0


def test_normalized_diff_equals_proof_event_form():
    # For mu = 0 the positive-difference event is equivalently
    # (n-1) n1 / n * S^2 > (n + n1) * sum((eps - mean)^2).
    g = rng.stream("event-form")
    for _ in range(1000):
        n = int(5 + 20 * rng.uniforms(g, 1)[0])
        n1 = 1 + int((n - 1) * rng.uniforms(g, 1)[0])
        eps = rng.normals(g, n)
        inst = NestedMeanInstance(mu=0.0, eps=eps, n1=n1)
        s = eps.sum()
        lhs = (n - 1) * n1 / n * s * s
        rhs = (n + n1) * float(np.sum((eps - eps.mean()) ** 2))
        assert (normalized_cv_diff(inst) > 0) == (lhs > rhs)


def test_diff_depends_only_on_sums():
    g = rng.stream("perm-inv")
    eps = rng.normals(g, 12)
    inst = NestedMeanInstance(mu=0.3, eps=eps, n1=5)
    perm = NestedMeanInstance(mu=0.3, eps=eps[::-1].copy(), n1=5)
    assert normalized_cv_diff(inst) == pytest.approx(normalized_cv_diff(perm), rel=1e-14)


def test_diff_scales_quadratically_at_zero_mu():
    eps = rng.normals(rng.stream("scaling"), 9)
    base = normalized_cv_diff(NestedMeanInstance(mu=0.0, eps=eps, n1=4))
    scaled = normalized_cv_diff(NestedMeanInstance(mu=0.0, eps=3.0 * eps, n1=4))
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)
    assert np.sign(scaled) == np.sign(base)


def test_overflow_guard():
    inst = NestedMeanInstance(mu=0.0, eps=np.ones(61) * 0.1, n1=30)
    with pytest.raises(OverflowRisk):
        closed_cv_pair(inst)
    # the normalized path has no such cap
    assert math.isfinite(normalized_cv_diff(inst))


def test_brute_force_cap(monkeypatch):
    # the oracle enumerates on its own but shares the engine's cap
    with pytest.raises(ExhaustiveTooLarge, match=f"exceeds {EXHAUSTIVE_CAP}"):
        brute_force_multifold(np.zeros(40), 20)
    monkeypatch.setattr(nested_mean, "EXHAUSTIVE_CAP", math.comb(20, 10) - 1)
    with pytest.raises(ExhaustiveTooLarge):
        brute_force_multifold(np.zeros(20), 10)


def test_selection_prob_zero_noise():
    assert selection_prob(20, 10, 0.0, 0.0, 100, rng.stream("sp0")) == 0.0
    # with a real mean and no noise the mean model always wins
    assert selection_prob(20, 10, 1.0, 0.0, 100, rng.stream("sp1")) == 1.0


def test_selection_prob_tracks_f_reference():
    p = selection_prob(30, 15, 0.0, 1.0, 40_000, rng.stream("sp-ref"))
    ref = f_reference_prob(30, 15)
    se = math.sqrt(ref * (1 - ref) / 40_000)
    assert abs(p - ref) <= 4 * se


def test_selection_prob_correct_when_mean_model_true():
    p = selection_prob(100, 50, 1.0, 0.3, 5_000, rng.stream("sp-mu"))
    assert p > 0.99  # wrong selection of the zero model is rare here


def test_selection_prob_increasing_in_n1():
    vals = [
        selection_prob(60, n1, 0.0, 1.0, 20_000, rng.stream("sp-mono", n1))
        for n1 in (10, 30, 50)
    ]
    assert vals[0] < vals[1] < vals[2]


def _pre_drawn(stream, pre):
    """Leave ``stream`` part way into its block: ``pre`` 53-bit words
    drawn, or one 32-bit draw ("u32") that also leaves a 32-bit carry."""
    if pre == "u32":
        stream.integers(0, 10)
    else:
        stream.integers(0, 1 << 53, size=pre)
    return stream


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "n, n1, mu, sigma, reps, pre",
    [
        (20, 10, 0.0, 1.0, 10_000, 0),  # 4 chunks, the last a remainder
        (33, 17, 0.0, 1.0, 5_000, 0),  # odd n: chunk starts off the 4-word grid
        (33, 17, 0.0, 1.0, 100, 1),  # below one chunk
        (7, 3, 0.0, 1.0, 1, 2),  # a single replication
        (101, 50, 0.2, 1.0, 3_000, 3),  # mu != 0
        (21, 10, 0.0, 0.0, 5_000, 1),  # sigma = 0: every d is 0
        (999, 500, 0.0, 1.0, 4_100, "u32"),  # two 4e6-draw chunks of the oracle
        (70_001, 35_000, 0.1, 1.0, 3, 3),  # n above a chunk: one row each
    ],
)
def test_selection_prob_bit_identical_to_sequential(n, n1, mu, sigma, reps, pre, workers):
    got_stream = _pre_drawn(rng.stream("sp-bits", n, reps), pre)
    want_stream = _pre_drawn(rng.stream("sp-bits", n, reps), pre)
    got = selection_prob(n, n1, mu, sigma, reps, got_stream, workers=workers)
    assert got == sequential_selection_prob(n, n1, mu, sigma, reps, want_stream)
    # the caller's stream ends where the sequential draw leaves it
    assert got_stream.integers(0, 1 << 53) == want_stream.integers(0, 1 << 53)
    assert got_stream.integers(0, 10, size=3).tolist() == want_stream.integers(0, 10, size=3).tolist()


def test_selection_prob_is_scale_free_and_exact_at_zero_noise():
    # the margin is scored on the standardized draws, so any finite sigma
    # with mu = sigma * theta gives the sigma = 1 answer for theta, bit for bit
    want = selection_prob(40, 20, 0.3, 1.0, 3_000, rng.stream("sp-scale"))
    for sigma in (1e-300, 1e-170, 0.25, 1e160, 1e300):
        got = selection_prob(40, 20, 0.3 * sigma, sigma, 3_000, rng.stream("sp-scale"))
        assert got == want, sigma
    # no noise: the mean model wins exactly when mu != 0, however small
    assert selection_prob(20, 10, 1e-200, 0.0, 100, rng.stream("sp-tiny")) == 1.0


def test_selection_prob_is_exact_when_the_mu_term_overflows():
    # n1 (n-1) n theta^2 is not finite: the mean model wins every replication,
    # and the stream still ends where the draw would
    for mu, sigma in ((1.0, 1e-200), (1e300, 1e-300), (-1e200, 1.0)):
        stream = rng.stream("sp-huge")
        assert selection_prob(20, 10, mu, sigma, 100, stream) == 1.0
        want = rng.seek(rng.stream("sp-huge"), 100 * 20)
        assert stream.integers(0, 1 << 53, size=3).tolist() == want.integers(0, 1 << 53, size=3).tolist()


def test_selection_prob_still_refuses_any_other_non_finite_margin(monkeypatch):
    monkeypatch.setattr(rng, "normals", lambda gen, shape: np.full(shape, 1e200))
    with pytest.raises(OverflowRisk, match="margin overflows"):
        selection_prob(20, 10, 0.0, 1.0, 100, rng.stream("sp-inf"))


def test_selection_prob_argument_checks():
    with pytest.raises(ValueError, match="reps"):
        selection_prob(20, 10, 0.0, 1.0, 0, rng.stream("sp-bad"))
    for n1 in (0, 20):
        with pytest.raises(ValueError, match="n1"):
            selection_prob(20, n1, 0.0, 1.0, 10, rng.stream("sp-bad"))


def test_f_reference_limits():
    # fixed n1, huge n: threshold diverges, tail vanishes
    assert f_reference_prob(10**6, 5) < 1e-12
    # half split, large n: threshold 3, chi-square-1 tail
    assert f_reference_prob(2000, 1000) == pytest.approx(0.08326, abs=2e-3)
    # (100, 10): threshold 11
    assert f_reference_prob(100, 10) < 0.01


@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, 7, 10, 31, 100, 257, 1000, 4099, 10**5, 10**6, 2**31 - 1]
)
def test_f_reference_equals_scipy_stats_f_tail(n):
    # fdtrc is the kernel behind stats.f.sf, so the two agree bit for bit
    from scipy import stats

    for n1 in sorted({1, 2, math.isqrt(n), n // 10, n // 2, n - 1} - {0, n}):
        want = float(stats.f.sf((n + n1) / n1, 1, n - 1))
        assert f_reference_prob(n, n1) == want, (n, n1)


def test_f_reference_against_chi_square_monte_carlo():
    # independent oracle route: simulate the normal/chi-square ratio
    n, n1 = 100, 50
    g = np.random.default_rng(123)
    z2 = g.standard_normal(1_000_000) ** 2
    w = g.chisquare(n - 1, 1_000_000)
    mc = float(np.mean(z2 / (w / (n - 1)) > (n + n1) / n1))
    assert f_reference_prob(n, n1) == pytest.approx(mc, abs=0.002)


def test_enumeration_check_summary():
    res = enumeration_check(max_n=8, seeds=3)
    assert res["signs_agree"] is True
    assert res["worst_rel_error"] <= 1e-9
    assert res["instances"] == sum(2 * 3 * (n - 1) for n in range(4, 9))


def test_instance_validation():
    with pytest.raises(ValueError):
        NestedMeanInstance(mu=0.0, eps=np.zeros(5), n1=5)
    with pytest.raises(ValueError):
        NestedMeanInstance(mu=0.0, eps=np.zeros(1), n1=0)


def test_instance_freezes_a_copy_and_leaves_the_callers_eps_writeable():
    eps = np.linspace(-1.0, 1.0, 6)
    inst = NestedMeanInstance(mu=0.0, eps=eps, n1=3)
    assert eps.flags.writeable
    eps[0] = 9.0
    assert inst.eps[0] == -1.0
    with pytest.raises(ValueError):
        inst.eps[1] = 0.0
