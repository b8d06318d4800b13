import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv_arbiter import rng
from cv_arbiter.errors import ExhaustiveTooLarge
from cv_arbiter.splits import (
    SCHEDULES,
    SCHEMES,
    SelectionScheme,
    SplitSchedule,
    estimation_size,
    make_splits,
)

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


def test_schedule_ids_round_trip():
    for text, expected in [
        ("ratio:9:1", "ratio:9:1"),
        ("ratio:18:2", "ratio:9:1"),  # the ratio prints reduced
        ("ratio:2:6", "ratio:1:3"),
        (" ratio:5:5 ", "ratio:1:1"),
        ("est-dom", "est-dom"),
        ("eval-dom", "eval-dom"),
        ("n1:17", "n1:17"),
    ]:
        assert SplitSchedule.parse(text).id == expected
        assert SplitSchedule.parse(expected).id == expected
    for bad in ["ratio", "ratio:", "ratio:9", "ratio:9:1:1", "ratio:a:b", "est-dom:3", "n1", "n1:x"]:
        with pytest.raises(ValueError):
            SplitSchedule.parse(bad)


def test_scheme_parse_ids():
    for text, name, count, vote in [
        ("single", "single", None, False),
        ("rlt:100", "rlt", 100, False),
        ("rsv:25", "rsv", 25, True),
        ("kfold-a:5", "kfold-a", 5, False),
        ("kfold-v:10", "kfold-v", 10, True),
        ("exhaustive-a", "exhaustive-a", None, False),
        ("exhaustive-v", "exhaustive-v", None, True),
    ]:
        scheme = SelectionScheme.parse(text)
        assert (scheme.name, scheme.count, scheme.vote) == (name, count, vote)
        assert scheme.id == text
    for bad in ["rlt:0", "loo", "kfold-a:1", "single:1", "rsv", "rlt:", "exhaustive", "exhaustive-a:3"]:
        with pytest.raises(ValueError):
            SelectionScheme.parse(bad)


def test_exhaustive_enumerates_all_subsets():
    plan = make_splits(4, SplitSchedule.parse("n1:2"), SelectionScheme.parse("exhaustive-a"), rng.stream(0))
    assert plan.shape == (6, 4) and plan.dtype == bool
    assert len({row.tobytes() for row in plan}) == 6
    assert plan.sum(axis=1).tolist() == [2] * 6
    # lexicographic order of the estimation sets
    assert [np.flatnonzero(row).tolist() for row in plan] == [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
    ]


def test_exhaustive_cap():
    with pytest.raises(ExhaustiveTooLarge):
        make_splits(50, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("exhaustive-v"), rng.stream(0))


def test_kfold_fold_sizes_and_cover():
    plan = make_splits(10, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("kfold-a:4"), rng.stream(3))
    assert plan.shape == (4, 10)
    assert sorted((~plan).sum(axis=1).tolist()) == [2, 2, 3, 3]
    # the evaluation folds partition range(10)
    assert (~plan).sum(axis=0).tolist() == [1] * 10
    assert estimation_size(10, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("kfold-a:4")) == 7
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
    n1 = estimation_size(n, sched, sch)
    assert plan.sum(axis=1).min() == n1
    assert (~plan).sum(axis=1).max() == n - n1


def test_random_splits_deterministic_given_stream():
    sched = SplitSchedule.parse("ratio:5:5")
    scheme = SelectionScheme.parse("rlt:100")
    a = make_splits(30, sched, scheme, rng.stream("splits", 1))
    b = make_splits(30, sched, scheme, rng.stream("splits", 1))
    assert a.shape == b.shape == (100, 30)
    assert np.array_equal(a, b)
    c = make_splits(30, sched, scheme, rng.stream("splits", 2))
    assert not np.array_equal(a, c)


def test_single_split_partitions():
    plan = make_splits(25, SplitSchedule.parse("ratio:9:1"), SINGLE, rng.stream(5))
    assert plan.shape == (1, 25)
    assert plan.sum() == 22  # floor(25 * 0.9)
    assert estimation_size(25, SplitSchedule.parse("ratio:9:1"), SINGLE) == 22


def test_single_split_is_one_random_split():
    sched = SplitSchedule.parse("ratio:3:7")
    single = make_splits(40, sched, SINGLE, rng.stream("one", 4))
    rlt1 = make_splits(40, sched, SelectionScheme.parse("rlt:1"), rng.stream("one", 4))
    assert np.array_equal(single, rlt1)
    # the estimation half is the head of one permutation of range(n)
    perm = rng.stream("one", 4).permutation(40)
    assert np.flatnonzero(single[0]).tolist() == sorted(perm[:12].tolist())


def test_estimation_sets_are_sorted():
    # boolean indexing reads each half in the sample's index order
    plan = make_splits(40, SplitSchedule.parse("ratio:5:5"), SelectionScheme.parse("rsv:10"), rng.stream(8))
    index = np.arange(40)
    for row in plan:
        assert np.all(np.diff(index[row]) > 0)
        assert np.all(np.diff(index[~row]) > 0)


# --- plan invariants (property) -------------------------------------------------


@st.composite
def _plan_inputs(draw):
    scheme_name = draw(st.sampled_from(sorted(SCHEMES)))
    schedule_name = draw(st.sampled_from(sorted(SCHEDULES)))
    n = draw(st.integers(2, 12 if scheme_name.startswith("exhaustive") else 60))
    scheme = {
        "rlt": f"rlt:{draw(st.integers(1, 6))}",
        "rsv": f"rsv:{draw(st.integers(1, 6))}",
        "kfold-a": f"kfold-a:{draw(st.integers(2, n))}",
        "kfold-v": f"kfold-v:{draw(st.integers(2, n))}",
    }.get(scheme_name, scheme_name)
    schedule = {
        "ratio": f"ratio:{draw(st.integers(1, 9))}:{draw(st.integers(1, 9))}",
        "n1": f"n1:{draw(st.integers(1, 2 * n))}",
    }.get(schedule_name, schedule_name)
    return n, SelectionScheme.parse(scheme), SplitSchedule.parse(schedule), draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_plan_inputs())
def test_plan_invariants(inputs):
    n, scheme, schedule, seed = inputs
    n1 = estimation_size(n, schedule, scheme)
    plan = make_splits(n, schedule, scheme, rng.stream("plan-props", seed))
    assert plan.dtype == bool and plan.ndim == 2 and plan.shape[1] == n
    assert 1 <= n1 <= n - 1
    if scheme.name.startswith("kfold"):
        assert (~plan).sum(axis=0).tolist() == [1] * n  # held-out folds partition range(n)
        assert plan.sum(axis=1).min() == n1
    else:
        assert plan.sum(axis=1).tolist() == [n1] * len(plan)
    if scheme.name.startswith("exhaustive"):
        assert len(plan) == math.comb(n, n1)
        assert len({row.tobytes() for row in plan}) == len(plan)
    else:
        assert len(plan) == (scheme.count or 1)  # single draws one split
    again = make_splits(n, schedule, scheme, rng.stream("plan-props", seed))
    assert np.array_equal(plan, again)
