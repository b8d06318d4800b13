from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import per_split_criteria_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from cv_arbiter import rng, selection
from cv_arbiter.errors import AllProceduresFailed, NonFinitePrediction
from cv_arbiter.estimators import FittedModel, ProcedureSpec, fit_polynomial
from cv_arbiter.nested_mean import NestedMeanInstance, normalized_cv_diff
from cv_arbiter.scenarios import Sample, gen_sample, resolve_scenario
from cv_arbiter.selection import (
    _criteria_matrix,
    averaged_criteria,
    cv_criterion,
    run_selection,
    select_on_plan,
    tally_votes,
)
from cv_arbiter.splits import SelectionScheme, SplitSchedule, make_splits

SINGLE = SelectionScheme.parse("single")


def _model(fn, label="m"):
    return FittedModel(
        predict=lambda x: np.asarray(fn(np.asarray(x, float))), trace=lambda: 0.0, label=label
    )


# --- criterion -----------------------------------------------------------------


def test_criterion_zero_for_perfect_predictions():
    m = _model(lambda x: 1.0 + x)
    x = np.array([0.1, 0.5, 0.9])
    assert cv_criterion(m, x, 1.0 + x) == 0.0


def test_criterion_counts_unit_residuals():
    m = _model(lambda x: np.zeros_like(x))
    assert cv_criterion(m, np.array([0.1, 0.2, 0.3]), np.ones(3)) == pytest.approx(3.0)


def test_criterion_hand_case():
    m = _model(lambda x: np.array([1.0, 2.0]))
    assert cv_criterion(m, np.array([0.0, 1.0]), np.array([1.5, 1.0])) == pytest.approx(1.25)


def test_criterion_rejects_non_finite():
    m = _model(lambda x: np.full_like(x, np.inf))
    with pytest.raises(NonFinitePrediction):
        cv_criterion(m, np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        cv_criterion(m, np.empty(0), np.empty(0))


# --- vote / average helpers (crafted matrices) -----------------------------------


def test_vote_tally_plurality():
    crit = np.zeros((100, 2))
    crit[:60, 0], crit[:60, 1] = 0.0, 1.0  # first 60 splits prefer index 0
    crit[60:, 0], crit[60:, 1] = 1.0, 0.0
    votes = tally_votes(crit)
    assert votes.tolist() == [60, 40]
    assert int(np.argmax(votes)) == 0


def test_vote_tie_goes_to_lower_index():
    crit = np.zeros((100, 2))
    crit[:50, 1] = 1.0
    crit[50:, 0] = 1.0
    votes = tally_votes(crit)
    assert votes.tolist() == [50, 50]
    assert int(np.argmax(votes)) == 0


def test_averaging_tie_goes_to_lower_index():
    crit = np.array([[2.0, 1.0], [4.0, 5.0]])
    avg = averaged_criteria(crit)
    assert avg.tolist() == [3.0, 3.0]
    assert int(np.argmin(avg)) == 0


def test_averaging_ranks_criteria_whose_sum_overflows():
    # each criterion is finite but the column sums overflow; tied at inf,
    # the lower index would win
    crit = np.array([[1.5e308, 1.0e308], [1.5e308, 1.0e308]])
    assert averaged_criteria(crit).tolist() == [1.5e308, 1.0e308]
    assert averaged_criteria(crit[:, ::-1]).tolist() == [1.0e308, 1.5e308]


def test_two_procedure_vote_matches_majority_rule():
    # index 0 wins exactly when it wins at least half the splits
    g = rng.stream("vote-rule")
    for trial in range(200):
        crit = rng.uniforms(g, (7, 2))
        votes = tally_votes(crit)
        wins0 = int(np.sum(crit[:, 0] <= crit[:, 1]))
        assert (int(np.argmax(votes)) == 0) == (wins0 >= (len(crit) + 1) // 2)


@st.composite
def _tied_criteria(draw):
    """A criteria matrix of small integers (so ties are common) with some,
    but not all, columns NaN, as disqualification leaves them."""
    n_splits = draw(st.integers(1, 6))
    n_procs = draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(0, 2), min_size=n_splits * n_procs,
                           max_size=n_splits * n_procs))
    crit = np.array(values, dtype=float).reshape(n_splits, n_procs)
    dead = draw(st.lists(st.booleans(), min_size=n_procs, max_size=n_procs))
    if all(dead):
        dead[draw(st.integers(0, n_procs - 1))] = False
    crit[:, dead] = np.nan
    return crit, [j for j in range(n_procs) if not dead[j]]


@settings(max_examples=300, deadline=None)
@given(_tied_criteria(), st.booleans())
def test_select_on_plan_ties_pick_the_lowest_index(generated, vote):
    crit, alive = generated
    n_splits, n_procs = crit.shape
    sample = Sample(x=np.linspace(0.0, 1.0, 4), y=np.zeros(4))
    plan = np.tile([True, True, False, False], (n_splits, 1))
    procs = [ProcedureSpec.parse("zero")] * n_procs
    disqualified = {j: "RankDeficient" for j in range(n_procs) if j not in alive}
    with mock.patch.object(selection, "_criteria_matrix", return_value=(crit, disqualified)):
        out = select_on_plan(procs, sample, plan, vote)
    if vote:
        # each split's winner: the first live column at the row minimum
        votes = [0] * n_procs
        for row in crit:
            best = min(row[j] for j in alive)
            votes[next(j for j in alive if row[j] == best)] += 1
        expected = votes.index(max(votes))
        assert out.votes.tolist() == votes
    else:
        sums = {j: sum(int(v) for v in crit[:, j]) for j in alive}
        expected = next(j for j in alive if sums[j] == min(sums.values()))
    assert out.selected == expected
    assert out.selected in alive


# --- end-to-end selectors ---------------------------------------------------------


def test_single_tie_selects_first_procedure():
    s = gen_sample(resolve_scenario("case1"), 40, rng.stream("tie"))
    procs = [ProcedureSpec.parse("zero"), ProcedureSpec.parse("zero")]
    out = run_selection(procs, s, SplitSchedule.parse("ratio:5:5"), SINGLE, rng.stream("tie-split"))
    assert out.selected == 0
    assert out.per_split_criteria[0, 0] == out.per_split_criteria[0, 1]


def test_single_zero_noise_perfect_fit_wins():
    scen = replace(resolve_scenario("case1"), sigma=0.0)
    s = gen_sample(scen, 50, rng.stream("perfect"))
    procs = [ProcedureSpec.parse("poly:1"), ProcedureSpec.parse("zero")]
    sched = SplitSchedule.parse("ratio:5:5")
    out = run_selection(procs, s, sched, SINGLE, rng.stream("perfect-split"))
    assert out.selected == 0
    assert out.per_split_criteria[0, 0] == pytest.approx(0.0, abs=1e-18)


def test_single_case3_spline_dominates():
    # seeded repetitions of the easiest comparison: the spline is the
    # only converging candidate
    scen = resolve_scenario("case3")
    procs = [ProcedureSpec.parse(p) for p in ("poly:1", "poly:2", "spline")]
    sched = SplitSchedule.parse("ratio:9:1")
    wins = 0
    for rep in range(100):
        s = gen_sample(scen, 400, rng.stream("case3-single", rep, "sample"))
        out = run_selection(procs, s, sched, SINGLE, rng.stream("case3-single", rep, "split"))
        wins += int(out.selected == 2)
    assert wins >= 90


def test_averaging_of_one_split_equals_single():
    s = gen_sample(resolve_scenario("case2"), 60, rng.stream("avg1"))
    procs = [ProcedureSpec.parse(p) for p in ("poly:1", "poly:2")]
    sched = SplitSchedule.parse("ratio:5:5")
    single = run_selection(procs, s, sched, SINGLE, rng.stream("avg1-split"))
    plan = make_splits(s.n, sched, SINGLE, rng.stream("avg1-split"))
    averaged = select_on_plan(procs, s, plan, vote=False)
    assert averaged.selected == single.selected
    assert averaged.per_split_criteria == pytest.approx(single.per_split_criteria)


def test_averaged_column_means_match_matrix():
    s = gen_sample(resolve_scenario("case2"), 40, rng.stream("avgcol"))
    procs = [ProcedureSpec.parse(p) for p in ("poly:1", "poly:2")]
    plan = make_splits(s.n, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("rlt:7"), rng.stream("avgcol-s"))
    out = select_on_plan(procs, s, plan, vote=False)
    assert out.averaged == pytest.approx(out.per_split_criteria.mean(axis=0), abs=1e-12)
    assert int(np.sum(out.votes)) == 7


def test_exhaustive_averaging_matches_nested_mean_closed_form():
    # cross-module oracle: the zero-vs-mean decision under all-splits
    # averaging must equal the sign of the closed-form difference
    procs = [ProcedureSpec.parse("zero"), ProcedureSpec.parse("mean")]
    scheme = SelectionScheme.parse("exhaustive-a")
    for n, mu in [(6, 0.0), (8, 0.0), (8, 1.0), (10, 0.5), (12, 0.0)]:
        for n1 in {1, n // 2, n - 1}:
            for seed in range(4):
                g = rng.stream("exh-oracle", n, n1, mu, seed)
                eps = rng.normals(g, n)
                inst = NestedMeanInstance(mu=mu, eps=eps, n1=n1)
                sample = Sample(x=rng.uniforms(g, n), y=inst.y)
                sched = SplitSchedule.parse(f"n1:{n1}")
                out = run_selection(procs, sample, sched, scheme, rng.stream("unused"))
                expected = 0 if normalized_cv_diff(inst) <= 0 else 1
                assert out.selected == expected


def test_voting_unanimity():
    scen = resolve_scenario("case3")
    s = gen_sample(scen, 200, rng.stream("unanimous"))
    procs = [ProcedureSpec.parse("zero"), ProcedureSpec.parse("poly:1")]
    plan = make_splits(s.n, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("rsv:12"), rng.stream("u-s"))
    out = select_on_plan(procs, s, plan, vote=True)
    # the line always beats predicting zero on this scenario
    assert out.votes.tolist() == [0, 12]
    assert out.selected == 1


def test_run_selection_dispatch_matches_components():
    s = gen_sample(resolve_scenario("case2"), 80, rng.stream("dispatch"))
    procs = [ProcedureSpec.parse(p) for p in ("poly:1", "poly:2")]
    sched = SplitSchedule.parse("ratio:5:5")
    plan = make_splits(s.n, sched, SINGLE, rng.stream("d", 1))
    direct = select_on_plan(procs, s, plan, SINGLE.vote)
    via_run = run_selection(procs, s, sched, SINGLE, rng.stream("d", 1))
    assert direct.selected == via_run.selected
    assert direct.per_split_criteria == pytest.approx(via_run.per_split_criteria)

    scheme = SelectionScheme.parse("rsv:9")
    plan = make_splits(s.n, sched, scheme, rng.stream("d", 2))
    direct_v = select_on_plan(procs, s, plan, scheme.vote)
    via_run_v = run_selection(procs, s, sched, scheme, rng.stream("d", 2))
    assert direct_v.selected == via_run_v.selected
    assert direct_v.votes.tolist() == via_run_v.votes.tolist()


def test_label_permutation_equivariance():
    s = gen_sample(resolve_scenario("case2"), 120, rng.stream("equivariance"))
    order_a = ["poly:1", "poly:2", "spline"]
    order_b = ["spline", "poly:1", "poly:2"]
    sched = SplitSchedule.parse("ratio:5:5")
    scheme = SelectionScheme.parse("rlt:11")
    out_a = run_selection([ProcedureSpec.parse(p) for p in order_a], s, sched, scheme, rng.stream("e", 3))
    out_b = run_selection([ProcedureSpec.parse(p) for p in order_b], s, sched, scheme, rng.stream("e", 3))
    # identical splits, so criteria columns are permutations of
    # one another; verify no exact ties then compare winning labels
    assert len(np.unique(out_a.per_split_criteria)) == out_a.per_split_criteria.size
    assert order_a[out_a.selected] == order_b[out_b.selected]


def test_outcome_invariant_to_plan_presentation_order():
    # averaging and voting depend only on the index sets, not on the
    # order of splits in the plan nor the order of the sample's rows
    s = gen_sample(resolve_scenario("case1"), 50, rng.stream("planorder"))
    procs = [ProcedureSpec.parse(p) for p in ("poly:1", "poly:2")]
    sched = SplitSchedule.parse("ratio:5:5")
    plan = make_splits(s.n, sched, SelectionScheme.parse("rsv:8"), rng.stream("po", 1))
    g = np.random.default_rng(0)
    rows, cols = g.permutation(len(plan)), g.permutation(s.n)
    shuffled = Sample(x=s.x[cols], y=s.y[cols])
    for vote in (False, True):
        a = select_on_plan(procs, s, plan, vote)
        b = select_on_plan(procs, shuffled, plan[rows][:, cols], vote)
        assert a.selected == b.selected
        assert np.sort(a.averaged) == pytest.approx(np.sort(b.averaged))


@pytest.mark.parametrize("scheme_id", ["kfold-a:5", "kfold-v:5"])
def test_kfold_selection_end_to_end(scheme_id):
    s = gen_sample(resolve_scenario("case2"), 100, rng.stream("kfold-e2e", scheme_id))
    procs = [ProcedureSpec.parse(p) for p in ("poly:1", "poly:2", "spline")]
    out = run_selection(
        procs, s, SplitSchedule.parse("ratio:5:5"),
        SelectionScheme.parse(scheme_id), rng.stream("kfold-s", scheme_id),
    )
    assert out.per_split_criteria.shape == (5, 3)
    assert int(np.sum(out.votes)) == 5
    assert 0 <= out.selected < 3
    assert np.all(np.isfinite(out.per_split_criteria))


def test_disqualified_never_selected():
    # spline cannot fit on 5 estimation points; it must be recorded as
    # disqualified and the remaining candidate wins
    s = gen_sample(resolve_scenario("case1"), 30, rng.stream("dq"))
    procs = [ProcedureSpec.parse("spline"), ProcedureSpec.parse("poly:1")]
    sched = SplitSchedule.parse("n1:5")
    out = run_selection(procs, s, sched, SelectionScheme.parse("rlt:4"), rng.stream("dq-s"))
    assert out.selected == 1
    assert 0 in out.disqualified and "SampleTooSmall" in out.disqualified[0]
    assert np.all(np.isnan(out.per_split_criteria[:, 0]))


def test_overflowing_criterion_disqualifies_its_procedure():
    # zero's squared errors of 1e160 overflow to inf; the mean's stay finite
    s = rng.stream("criterion-overflow")
    sample = Sample(x=rng.uniforms(s, 30), y=1e160 + 1e150 * rng.normals(s, 30))
    procs = [ProcedureSpec.parse("zero"), ProcedureSpec.parse("mean")]
    scheme = SelectionScheme.parse("kfold-a:5")
    out = run_selection(procs, sample, SplitSchedule.parse("ratio:5:5"), scheme, s)
    assert out.selected == 1 and list(out.disqualified) == [0]
    assert out.disqualified[0] == "OverflowRisk: zero's squared errors sum to inf"
    assert np.all(np.isfinite(out.per_split_criteria[:, 1]))


def test_all_procedures_failed():
    s = gen_sample(resolve_scenario("case1"), 30, rng.stream("allfail"))
    with pytest.raises(AllProceduresFailed):
        run_selection(
            [ProcedureSpec.parse("spline")], s,
            SplitSchedule.parse("n1:5"), SelectionScheme.parse("single"), rng.stream("af-s"),
        )


@pytest.mark.parametrize(
    "plan",
    [
        np.ones((2, 20), dtype=np.int64),  # would fancy-index rows 0 and 1
        np.ones((2, 19), dtype=bool),  # wrong column count
        np.ones(20, dtype=bool),  # one split must still be a 2-d row
        np.zeros((0, 20), dtype=bool),  # no split
    ],
)
def test_select_on_plan_rejects_malformed_plans(plan):
    s = gen_sample(resolve_scenario("case1"), 20, rng.stream("bad-plan"))
    procs = [ProcedureSpec.parse("zero"), ProcedureSpec.parse("mean")]
    with pytest.raises(ValueError, match="2-d bool array with 20 columns"):
        select_on_plan(procs, s, plan, vote=False)


@pytest.mark.parametrize(
    "plan",
    [
        np.array([[True] * 20, [True] * 10 + [False] * 10]),  # a split with no evaluation point
        np.array([[False] * 20]),  # a split with no estimation point
    ],
)
def test_select_on_plan_rejects_splits_without_both_halves(plan):
    s = gen_sample(resolve_scenario("case1"), 20, rng.stream("bad-plan"))
    procs = [ProcedureSpec.parse("zero"), ProcedureSpec.parse("mean")]
    with pytest.raises(ValueError, match="estimation point and an evaluation point"):
        select_on_plan(procs, s, plan, vote=False)


# --- the engine against the per-split oracle ------------------------------------------

ORACLE_PROCS = ["poly:1", "poly:2", "poly:45", "spline", "zero", "mean", "loclin:0.3", "loclin:auto"]


def _oracle_samples():
    noisy = gen_sample(resolve_scenario("case2"), 41, rng.stream("oracle", "noisy"))
    # duplicated x: 41 points on 11 distinct sites, some (x, y) rows repeated
    g = rng.stream("oracle", "dup")
    x = np.round(rng.uniforms(g, 41), 1)
    y = np.round(np.sin(2 * np.pi * x) + 0.3 * rng.normals(g, 41), 1)
    # zero noise: poly:1 and poly:2 both fit exactly and tie at 0
    line = replace(resolve_scenario("case1"), sigma=0.0)
    exact = gen_sample(line, 41, rng.stream("oracle", "exact"))
    return {"noisy": noisy, "duplicated-x": Sample(x=x, y=y), "zero-noise": exact}


def _assert_engine_matches_oracle(procs, sample, plan):
    try:
        expected = per_split_criteria_matrix(procs, sample, plan)
    except AllProceduresFailed as exc:
        with pytest.raises(AllProceduresFailed) as got:
            _criteria_matrix(procs, sample, plan)
        assert str(got.value) == str(exc)
        return None
    crit, disqualified = _criteria_matrix(procs, sample, plan)
    assert crit.tobytes() == expected[0].tobytes()
    assert disqualified == expected[1]
    return crit, disqualified


@pytest.mark.parametrize("sample_id", ["noisy", "duplicated-x", "zero-noise"])
@pytest.mark.parametrize("scheme_id", ["single", "rlt:6", "rsv:6", "kfold-a:4", "kfold-v:3"])
@pytest.mark.parametrize("schedule_id", ["ratio:5:5", "ratio:9:1", "n1:8"])
def test_criteria_matrix_equals_per_split_oracle(sample_id, scheme_id, schedule_id):
    # every procedure family, bit for bit, with the oracle's disqualification
    # messages; 41 points make the k-fold folds unequal
    sample = _oracle_samples()[sample_id]
    procs = [ProcedureSpec.parse(p) for p in ORACLE_PROCS]
    scheme, schedule = SelectionScheme.parse(scheme_id), SplitSchedule.parse(schedule_id)
    plan = make_splits(sample.n, schedule, scheme, rng.stream("oracle-plan", scheme_id, schedule_id))
    crit, disqualified = _assert_engine_matches_oracle(procs, sample, plan)
    assert disqualified[2].startswith("RankDeficient: degree 45 needs 46 distinct x values")
    if sample_id == "zero-noise":
        assert np.all(crit[:, :2] == 0.0)
    if plan.sum(axis=1).min() < 10:  # n1:8 outside k-fold
        assert disqualified[3] == "SampleTooSmall: spline needs >= 10 points, got 8"
    else:
        assert 3 not in disqualified


@pytest.mark.parametrize("schedule_id", ["ratio:5:5", "n1:4"])
def test_criteria_matrix_equals_oracle_on_exhaustive_plans(schedule_id):
    sample = gen_sample(resolve_scenario("case3"), 10, rng.stream("oracle", "exhaustive"))
    procs = [ProcedureSpec.parse(p) for p in ORACLE_PROCS]
    scheme, schedule = SelectionScheme.parse("exhaustive-a"), SplitSchedule.parse(schedule_id)
    plan = make_splits(sample.n, schedule, scheme, rng.stream("oracle-plan", "exhaustive"))
    _, disqualified = _assert_engine_matches_oracle(procs, sample, plan)
    assert "SampleTooSmall" in disqualified[3]


def test_criteria_matrix_equals_oracle_beyond_the_knots():
    # every evaluation point lies outside the estimation half's x range, so
    # the spline and the polynomials extrapolate
    sample = _oracle_samples()["noisy"]
    inner = (sample.x > 0.25) & (sample.x < 0.75)
    outer = ~inner
    plan = np.array([inner, inner & (sample.x < 0.6) | outer & (sample.x > 0.9)])
    procs = [ProcedureSpec.parse(p) for p in ORACLE_PROCS]
    crit, _ = _assert_engine_matches_oracle(procs, sample, plan)
    assert np.all(np.isfinite(crit[:, 3]))


def test_criteria_matrix_equals_oracle_when_every_procedure_fails():
    sample = _oracle_samples()["noisy"]
    plan = make_splits(sample.n, SplitSchedule.parse("n1:3"), SelectionScheme.parse("rlt:3"),
                       rng.stream("oracle-plan", "all-fail"))
    procs = [ProcedureSpec.parse(p) for p in ("poly:45", "spline", "loclin:auto")]
    assert _assert_engine_matches_oracle(procs, sample, plan) is None
