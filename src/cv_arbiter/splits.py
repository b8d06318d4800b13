"""Data-splitting schedules, schemes and plan generation.

A schedule decides how many points go to the estimation half (n1); a
scheme decides how many splits are drawn and whether the per-split
results are averaged or voted.  A plan is a (splits x n) boolean array
that is True on each split's estimation points, in the sample's index
order; its complement marks the evaluation points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import ExhaustiveTooLarge

EXHAUSTIVE_CAP = 10**6


@dataclass(frozen=True)
class SplitSchedule:
    """Resolves a sample size n to an estimation size n1.

    Ids: ``ratio:a:b`` (n1 = floor(n * a/(a+b))), ``est-dom``
    (n1 = n - floor(sqrt(n) * log n)), ``eval-dom`` (n1 = ceil(sqrt(n))),
    ``n1:<k>`` (explicit).  ``name`` is the id's key in ``SCHEDULES`` and
    ``arg`` its parsed argument, None for an id without one.  Resolution
    clamps to [1, n-1].
    """

    name: str
    arg: Fraction | int | None = None

    @property
    def id(self) -> str:
        return self.name if self.arg is None else f"{self.name}:{self.arg}"

    @classmethod
    def parse(cls, text: str) -> "SplitSchedule":
        return cls(*_lookup(SCHEDULES, text, "schedule"))

    def resolve(self, n: int) -> int:
        if n < 2:
            raise ValueError("need n >= 2 to split")
        return min(max(SCHEDULES[self.name].n1(n, self.arg), 1), n - 1)


@dataclass(frozen=True)
class SelectionScheme:
    """How splits are drawn and how the winner is decided.

    Ids: ``single``, ``rlt:m`` (m random splits, averaged), ``rsv:m``
    (m random splits, voted), ``kfold-a:r`` / ``kfold-v:r``,
    ``exhaustive-a`` / ``exhaustive-v``.  ``name`` is the id's key in
    ``SCHEMES`` and ``count`` its split or fold count, None for an id
    without one.
    """

    name: str
    count: int | None = None

    @property
    def id(self) -> str:
        return self.name if self.count is None else f"{self.name}:{self.count}"

    @property
    def vote(self) -> bool:
        """True when the plurality of per-split winners decides."""
        return SCHEMES[self.name].vote

    @classmethod
    def parse(cls, text: str) -> "SelectionScheme":
        return cls(*_lookup(SCHEMES, text, "scheme"))


def _lookup(table: dict, text: str, family: str) -> tuple[str, object]:
    """Split an id into its table key and parsed argument (None without one)."""
    name, colon, arg = text.strip().partition(":")
    entry = table.get(name)
    if entry is None or (entry.parse_arg is None) == bool(colon):
        raise ValueError(f"unknown {family} id: {text!r}")
    return name, entry.parse_arg(arg) if colon else None


def estimation_size(n: int, schedule: SplitSchedule, scheme: SelectionScheme) -> int:
    """n1 of the splits a scheme draws from n points.

    Raises ValueError for k-fold r > n and ExhaustiveTooLarge when an
    exhaustive plan would exceed EXHAUSTIVE_CAP splits.
    """
    return SCHEMES[scheme.name].size(n, schedule, scheme.count)


def make_splits(
    n: int, schedule: SplitSchedule, scheme: SelectionScheme, stream: np.random.Generator
) -> np.ndarray:
    """Draw the scheme's (splits x n) estimation mask; deterministic given
    the stream.

    K-fold ignores the schedule (fold sizes set n1); exhaustive
    enumeration is capped at EXHAUSTIVE_CAP subsets.
    """
    n1 = estimation_size(n, schedule, scheme)
    return SCHEMES[scheme.name].draw(n, n1, scheme.count, stream)


# --- the schedule table -------------------------------------------------------


def _at_least(low: int, what: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{what} must be >= {low}, got {value}")
        return value

    return parse


class _Share(Fraction):
    """An estimation share a/(a+b) that prints as the reduced ratio ``a:b``."""

    def __str__(self) -> str:
        return f"{self.numerator}:{self.denominator - self.numerator}"


def _share(text: str) -> _Share:
    a, b = map(int, text.split(":"))
    if a < 1 or b < 1:
        raise ValueError(f"ratio parts must be positive: {text!r}")
    return _Share(a, a + b)


class Schedule(NamedTuple):
    parse_arg: Callable[[str], object] | None  # None: the id takes no argument
    n1: Callable[[int, object], int]  # (n, arg) -> n1 before clamping


SCHEDULES: dict[str, Schedule] = {
    "ratio": Schedule(_share, lambda n, share: int(n * share)),  # exact Fraction floor
    "est-dom": Schedule(None, lambda n, _: n - math.floor(math.sqrt(n) * math.log(n))),
    "eval-dom": Schedule(None, lambda n, _: math.ceil(math.sqrt(n))),
    "n1": Schedule(_at_least(1, "explicit n1"), lambda n, k: k),
}


# --- the scheme table ---------------------------------------------------------


def _random(n: int, n1: int, m: int, stream: np.random.Generator) -> np.ndarray:
    """m splits, each the first n1 entries of a fresh permutation."""
    plan = np.zeros((m, n), dtype=bool)
    for row in plan:
        row[stream.permutation(n)[:n1]] = True
    return plan


def _kfold(n: int, _n1: int, r: int, stream: np.random.Generator) -> np.ndarray:
    """r folds of one permutation; split i holds out fold i."""
    plan = np.ones((r, n), dtype=bool)
    for i, fold in enumerate(np.array_split(stream.permutation(n), r)):
        plan[i, fold] = False
    return plan


def _exhaustive(n: int, n1: int, _count, _stream) -> np.ndarray:
    """Every n1-subset, in lexicographic order; draws nothing."""
    total = math.comb(n, n1)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), n1))
    est = np.fromiter(flat, dtype=np.intp, count=total * n1).reshape(total, n1)
    plan = np.zeros((total, n), dtype=bool)
    np.put_along_axis(plan, est, True, axis=1)
    return plan


def _kfold_size(n: int, _schedule, r: int) -> int:
    if r > n:
        raise ValueError(f"kfold r={r} exceeds n={n}")
    return n - -(-n // r)  # largest fold: ceil(n / r)


def _exhaustive_size(n: int, schedule: SplitSchedule, _count) -> int:
    n1 = schedule.resolve(n)
    if (total := math.comb(n, n1)) > EXHAUSTIVE_CAP:
        raise ExhaustiveTooLarge(f"C({n},{n1}) = {total} exceeds {EXHAUSTIVE_CAP}")
    return n1


class Scheme(NamedTuple):
    parse_arg: Callable[[str], int] | None  # None: the id takes no argument
    draw: Callable[..., np.ndarray]  # (n, n1, count, stream) -> plan
    vote: bool  # plurality of per-split winners, else lowest mean criterion
    size: Callable[..., int] = lambda n, schedule, _: schedule.resolve(n)  # -> n1


SCHEMES: dict[str, Scheme] = {
    "single": Scheme(None, lambda n, n1, _, stream: _random(n, n1, 1, stream), False),
    "rlt": Scheme(_at_least(1, "split count"), _random, False),
    "rsv": Scheme(_at_least(1, "split count"), _random, True),
    "kfold-a": Scheme(_at_least(2, "fold count"), _kfold, False, _kfold_size),
    "kfold-v": Scheme(_at_least(2, "fold count"), _kfold, True, _kfold_size),
    "exhaustive-a": Scheme(None, _exhaustive, False, _exhaustive_size),
    "exhaustive-v": Scheme(None, _exhaustive, True, _exhaustive_size),
}
