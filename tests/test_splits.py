import math

import numpy as np
import pytest

from cv_arbiter import rng
from cv_arbiter.errors import ExhaustiveTooLarge
from cv_arbiter.splits import SelectionScheme, SplitSchedule, estimation_size, make_splits

SINGLE = SelectionScheme.parse("single")


def test_ratio_schedule_resolution():
    assert SplitSchedule.parse("ratio:9:1").resolve(100) == 90
    assert SplitSchedule.parse("ratio:5:5").resolve(100) == 50
    assert SplitSchedule.parse("ratio:3:7").resolve(200) == 60
    assert SplitSchedule.parse("ratio:1:9").resolve(400) == 40
    # floor for non-divisible n, clamped into [1, n-1]
    assert SplitSchedule.parse("ratio:9:1").resolve(7) == 6
    assert SplitSchedule.parse("ratio:1:9").resolve(5) == 1


def test_estimation_dominant_schedule():
    # n1 = n - floor(sqrt(n) * log n)
    sched = SplitSchedule.parse("est-dom")
    assert sched.resolve(100) == 100 - math.floor(10 * math.log(100))
    assert sched.resolve(100) == 54
    assert sched.resolve(4) == 2
    assert sched.resolve(2) == 1  # clamped


def test_evaluation_dominant_schedule():
    sched = SplitSchedule.parse("eval-dom")
    assert sched.resolve(100) == 10
    assert sched.resolve(101) == 11
    assert sched.resolve(2) == 1  # ceil(sqrt(2)) = 2 clamped to n-1


def test_explicit_schedule_and_errors():
    assert SplitSchedule.parse("n1:17").resolve(100) == 17
    assert SplitSchedule.parse("n1:99").resolve(10) == 9  # clamped
    with pytest.raises(ValueError):
        SplitSchedule.parse("n1:0")
    with pytest.raises(ValueError):
        SplitSchedule.parse("ratio:0:5")
    with pytest.raises(ValueError):
        SplitSchedule.parse("half")
    with pytest.raises(ValueError):
        SplitSchedule.parse("ratio:5:5").resolve(1)


def test_scheme_parse_ids():
    for text, kind, agg in [
        ("single", "single", "single"),
        ("rlt:100", "random", "average"),
        ("rsv:25", "random", "vote"),
        ("kfold-a:5", "kfold", "average"),
        ("kfold-v:10", "kfold", "vote"),
        ("exhaustive-a", "exhaustive", "average"),
        ("exhaustive-v", "exhaustive", "vote"),
    ]:
        scheme = SelectionScheme.parse(text)
        assert (scheme.split_kind, scheme.aggregate) == (kind, agg)
        assert scheme.id == text
    with pytest.raises(ValueError):
        SelectionScheme.parse("rlt:0")
    with pytest.raises(ValueError):
        SelectionScheme.parse("loo")


def test_exhaustive_enumerates_all_subsets():
    plan = make_splits(4, SplitSchedule.parse("n1:2"), SelectionScheme.parse("exhaustive-a"), rng.stream(0))
    assert len(plan) == 6
    seen = {tuple(est) for est, _ in plan.splits}
    assert len(seen) == 6
    for est, ev in plan.splits:
        assert sorted(set(est) | set(ev)) == [0, 1, 2, 3]
        assert len(est) == 2 and len(ev) == 2


def test_exhaustive_cap():
    with pytest.raises(ExhaustiveTooLarge):
        make_splits(50, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("exhaustive-v"), rng.stream(0))


def test_kfold_fold_sizes_and_cover():
    plan = make_splits(10, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("kfold-a:4"), rng.stream(3))
    assert len(plan) == 4
    eval_sizes = sorted(len(ev) for _, ev in plan.splits)
    assert eval_sizes == [2, 2, 3, 3]
    all_eval = np.concatenate([ev for _, ev in plan.splits])
    assert sorted(all_eval.tolist()) == list(range(10))
    for est, ev in plan.splits:
        assert sorted(np.concatenate([est, ev]).tolist()) == list(range(10))
    assert plan.n1 == 7
    with pytest.raises(ValueError):
        make_splits(3, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("kfold-a:5"), rng.stream(0))


@pytest.mark.parametrize(
    "n, scheme, schedule",
    [(10, "kfold-a:4", "ratio:5:5"), (11, "kfold-v:11", "n1:3"), (100, "kfold-a:7", "ratio:9:1"),
     (40, "rlt:3", "ratio:3:7"), (25, "single", "est-dom"), (5, "exhaustive-a", "n1:2")],
)
def test_estimation_size_matches_plans(n, scheme, schedule):
    sched, sch = SplitSchedule.parse(schedule), SelectionScheme.parse(scheme)
    plan = make_splits(n, sched, sch, rng.stream("n1", n))
    assert estimation_size(n, sched, sch) == plan.n1
    assert min(len(est) for est, _ in plan.splits) == plan.n1
    assert max(len(ev) for _, ev in plan.splits) == n - plan.n1


def test_random_splits_deterministic_given_stream():
    sched = SplitSchedule.parse("ratio:5:5")
    scheme = SelectionScheme.parse("rlt:100")
    a = make_splits(30, sched, scheme, rng.stream("splits", 1))
    b = make_splits(30, sched, scheme, rng.stream("splits", 1))
    assert len(a) == len(b) == 100
    for (ea, va), (eb, vb) in zip(a.splits, b.splits):
        assert np.array_equal(ea, eb) and np.array_equal(va, vb)
    c = make_splits(30, sched, scheme, rng.stream("splits", 2))
    assert any(not np.array_equal(ea, ec) for (ea, _), (ec, _) in zip(a.splits, c.splits))


def test_single_split_partitions():
    plan = make_splits(25, SplitSchedule.parse("ratio:9:1"), SINGLE, rng.stream(5))
    assert len(plan) == 1
    est, ev = plan.splits[0]
    assert len(est) == 22 and len(ev) == 3  # floor(25 * 0.9)
    assert sorted(np.concatenate([est, ev]).tolist()) == list(range(25))
    assert plan.n1 == 22


def test_estimation_sets_are_sorted():
    plan = make_splits(40, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("rsv:10"), rng.stream(8))
    for est, ev in plan.splits:
        assert np.all(np.diff(est) > 0)
        assert np.all(np.diff(ev) > 0)
