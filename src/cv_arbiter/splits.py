"""Data-splitting schedules, schemes and plan generation.

A schedule decides how many points go to the estimation half (n1); a
scheme decides how many splits are drawn and how per-split results are
aggregated (single split, averaging, or voting).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ExhaustiveTooLarge

EXHAUSTIVE_CAP = 10**6


@dataclass(frozen=True)
class SplitSchedule:
    """Resolves a sample size n to an estimation size n1.

    Ids: ``ratio:a:b`` (n1 = floor(n * a/(a+b))), ``est-dom``
    (n1 = n - floor(sqrt(n) * log n)), ``eval-dom`` (n1 = ceil(sqrt(n))),
    ``n1:<k>`` (explicit).  Resolution clamps to [1, n-1].
    """

    kind: str  # 'ratio' | 'est-dom' | 'eval-dom' | 'explicit'
    share: Fraction | None = None
    n1: int | None = None

    @property
    def id(self) -> str:
        if self.kind == "ratio":
            return f"ratio:{self.share.numerator}:{self.share.denominator - self.share.numerator}"
        if self.kind == "explicit":
            return f"n1:{self.n1}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "SplitSchedule":
        t = text.strip()
        if t == "est-dom":
            return cls("est-dom")
        if t == "eval-dom":
            return cls("eval-dom")
        if t.startswith("ratio:"):
            a_str, b_str = t[6:].split(":")
            a, b = int(a_str), int(b_str)
            if a < 1 or b < 1:
                raise ValueError(f"ratio parts must be positive: {text!r}")
            return cls("ratio", share=Fraction(a, a + b))
        if t.startswith("n1:"):
            k = int(t[3:])
            if k < 1:
                raise ValueError("explicit n1 must be >= 1")
            return cls("explicit", n1=k)
        raise ValueError(f"unknown schedule id: {text!r}")

    def resolve(self, n: int) -> int:
        if n < 2:
            raise ValueError("need n >= 2 to split")
        if self.kind == "ratio":
            n1 = int(n * self.share)  # exact Fraction arithmetic, floor
        elif self.kind == "est-dom":
            n1 = n - math.floor(math.sqrt(n) * math.log(n))
        elif self.kind == "eval-dom":
            n1 = math.ceil(math.sqrt(n))
        else:
            n1 = self.n1
        return min(max(n1, 1), n - 1)


@dataclass(frozen=True)
class SelectionScheme:
    """How splits are drawn and how the winner is decided.

    Ids: ``single``, ``rlt:m`` (m random splits, averaged), ``rsv:m``
    (m random splits, voted), ``kfold-a:r`` / ``kfold-v:r``,
    ``exhaustive-a`` / ``exhaustive-v``.
    """

    split_kind: str  # 'single' | 'random' | 'kfold' | 'exhaustive'
    aggregate: str  # 'single' | 'average' | 'vote'
    count: int | None = None

    @property
    def id(self) -> str:
        if self.split_kind == "single":
            return "single"
        if self.split_kind == "random":
            return ("rlt" if self.aggregate == "average" else "rsv") + f":{self.count}"
        if self.split_kind == "kfold":
            return f"kfold-{self.aggregate[0]}:{self.count}"
        return f"exhaustive-{self.aggregate[0]}"

    @classmethod
    def parse(cls, text: str) -> "SelectionScheme":
        t = text.strip()
        if t == "single":
            return cls("single", "single")
        for prefix, kind, agg in (
            ("rlt:", "random", "average"),
            ("rsv:", "random", "vote"),
            ("kfold-a:", "kfold", "average"),
            ("kfold-v:", "kfold", "vote"),
        ):
            if t.startswith(prefix):
                count = int(t[len(prefix) :])
                if count < 1 or (kind == "kfold" and count < 2):
                    raise ValueError(f"bad scheme count in {text!r}")
                return cls(kind, agg, count)
        if t == "exhaustive-a":
            return cls("exhaustive", "average")
        if t == "exhaustive-v":
            return cls("exhaustive", "vote")
        raise ValueError(f"unknown scheme id: {text!r}")


@dataclass(frozen=True)
class SplitPlan:
    """A list of (estimation indices, evaluation indices) partitions."""

    splits: tuple[tuple[np.ndarray, np.ndarray], ...]
    scheme_id: str
    n: int
    n1: int

    def __len__(self) -> int:
        return len(self.splits)


def _pair(n: int, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    est = np.sort(np.asarray(est, dtype=np.intp))
    mask = np.ones(n, dtype=bool)
    mask[est] = False
    return est, np.flatnonzero(mask)


def estimation_size(n: int, schedule: SplitSchedule, scheme: SelectionScheme) -> int:
    """n1 of the splits a scheme draws from n points.

    Raises ValueError for k-fold r > n and ExhaustiveTooLarge when an
    exhaustive plan would exceed EXHAUSTIVE_CAP splits.
    """
    if scheme.split_kind == "kfold":
        if scheme.count > n:
            raise ValueError(f"kfold r={scheme.count} exceeds n={n}")
        return n - -(-n // scheme.count)  # largest fold: ceil(n / r)
    n1 = schedule.resolve(n)
    if scheme.split_kind == "exhaustive" and (total := math.comb(n, n1)) > EXHAUSTIVE_CAP:
        raise ExhaustiveTooLarge(f"C({n},{n1}) = {total} exceeds {EXHAUSTIVE_CAP}")
    return n1


def make_splits(
    n: int,
    schedule: SplitSchedule,
    scheme: SelectionScheme,
    stream: np.random.Generator,
) -> SplitPlan:
    """Generate the split plan for a scheme; deterministic given the stream.

    K-fold ignores the schedule (fold sizes set n1); exhaustive
    enumeration is capped at EXHAUSTIVE_CAP subsets.
    """
    kind = scheme.split_kind
    n1 = estimation_size(n, schedule, scheme)
    if kind == "kfold":
        r = scheme.count
        perm = stream.permutation(n)
        folds = np.array_split(perm, r)
        splits = []
        for i in range(r):
            est = np.concatenate([folds[j] for j in range(r) if j != i])
            splits.append(_pair(n, est))
        return SplitPlan(tuple(splits), scheme.id, n, n1)
    if kind == "single":
        est = stream.permutation(n)[:n1]
        return SplitPlan((_pair(n, est),), scheme.id, n, n1)
    if kind == "random":
        splits = tuple(_pair(n, stream.permutation(n)[:n1]) for _ in range(scheme.count))
        return SplitPlan(splits, scheme.id, n, n1)
    # exhaustive (estimation_size has checked the cap)
    splits = tuple(
        _pair(n, np.array(c, dtype=np.intp))
        for c in itertools.combinations(range(n), n1)
    )
    return SplitPlan(splits, scheme.id, n, n1)
