"""The selection engine: the hold-out criterion, per-split evaluation,
and one selection rule over a split plan.

A plan is a (splits x n) boolean array, True on each split's estimation
points.  Within one plan every procedure sees exactly the same splits,
and each procedure is fitted once per split, by its ``PROCEDURES`` row's
fit, and scored by ``cv_criterion``.  Voting schemes select the
procedure that wins the most splits; every other scheme selects the
lowest criterion averaged over splits, the single split being a plan
of one split.  Ties always break toward the lowest procedure index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllProceduresFailed, CvArbiterError, NonFinitePrediction, OverflowRisk
from .estimators import PROCEDURES, FittedModel, ProcedureSpec, xy_order
from .scenarios import Sample
from .splits import SelectionScheme, SplitSchedule, make_splits


def cv_criterion(model: FittedModel, eval_x: np.ndarray, eval_y: np.ndarray) -> float:
    """Sum of squared prediction errors on the evaluation points.

    Residuals at floating-point noise level (within 1e-12 of the data
    scale) count as an exact fit and return exactly 0, so competing
    perfect fits tie deterministically instead of being ranked by
    rounding noise.  Raises NonFinitePrediction for a prediction that is
    not finite and OverflowRisk for a sum that is not.
    """
    eval_x = np.asarray(eval_x, dtype=float)
    eval_y = np.asarray(eval_y, dtype=float)
    if len(eval_x) < 1 or len(eval_x) != len(eval_y):
        raise ValueError("evaluation vectors must be nonempty and equal length")
    pred = model.predict(eval_x)
    if not np.isfinite(pred).all():
        raise NonFinitePrediction(f"{model.label or 'model'} predicted non-finite values")
    resid = eval_y - pred
    if np.abs(resid).max() <= 1e-12 * (1.0 + np.abs(eval_y).max()):
        return 0.0
    crit = float((resid**2).sum())
    if not crit < np.inf:  # NaN fails too; tied at inf, the lowest index would win
        raise OverflowRisk(f"{model.label or 'model'}'s squared errors sum to {crit}")
    return crit


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one selection run.

    ``per_split_criteria`` is (splits x procedures); columns of
    disqualified procedures are NaN.  ``votes`` counts per-split wins
    (they sum to the split count) and ``averaged`` is the per-procedure
    mean criterion over splits.
    """

    selected: int
    per_split_criteria: np.ndarray
    votes: np.ndarray
    averaged: np.ndarray
    disqualified: dict[int, str]


# Extreme data overflow the fits' arithmetic, but every non-finite outcome
# ends in a package error, so the float warnings would add nothing.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _criteria_matrix(
    procedures: list[ProcedureSpec], sample: Sample, plan: np.ndarray
) -> tuple[np.ndarray, dict[int, str]]:
    """Fit every procedure on every split's estimation half and score it.

    The sample is sorted by (x, y) once for all procedures and splits, and
    every estimation half is cut from the sorted rows.  Each criterion is
    ``cv_criterion`` of the split's fit at its evaluation points, in row
    order.  A procedure that fails on any split is disqualified outright
    (its column becomes NaN); package errors disqualify, anything else
    propagates.
    """
    n_splits, n_procs = len(plan), len(procedures)
    crit = np.full((n_splits, n_procs), np.nan)
    disqualified: dict[int, str] = {}
    order = xy_order(sample)
    x, y, est_plan = sample.x[order], sample.y[order], plan[:, order]
    ev_plan = ~plan
    eval_y = [sample.y[ev] for ev in ev_plan]
    for j, spec in enumerate(procedures):
        fit = PROCEDURES[spec.name].fit
        try:
            for i, (est, ev) in enumerate(zip(est_plan, ev_plan)):
                crit[i, j] = cv_criterion(fit(x[est], y[est], spec.arg), sample.x[ev], eval_y[i])
        except CvArbiterError as exc:
            crit[:, j] = np.nan
            disqualified[j] = f"{type(exc).__name__}: {exc}"
    if len(disqualified) == n_procs:
        raise AllProceduresFailed(
            "; ".join(f"{procedures[j].id}: {msg}" for j, msg in disqualified.items())
        )
    return crit, disqualified


def _masked(values: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(values), np.inf, values)


def tally_votes(crit: np.ndarray) -> np.ndarray:
    """Per-split winners (argmin, lowest index on ties), counted per column."""
    winners = np.argmin(_masked(crit), axis=1)
    return np.bincount(winners, minlength=crit.shape[1])


@np.errstate(over="ignore")
def averaged_criteria(crit: np.ndarray) -> np.ndarray:
    """Column means over splits; NaN columns stay NaN.  A column whose sum
    overflows is averaged from its terms divided by the split count."""
    mean = crit.mean(axis=0)
    over = mean == np.inf
    mean[over] = (crit[:, over] / len(crit)).sum(axis=0)
    return mean


def select_on_plan(
    procedures: list[ProcedureSpec], sample: Sample, plan: np.ndarray, vote: bool
) -> SelectionOutcome:
    """Score every procedure on every split of the plan and select one.

    ``plan`` is a (splits x sample.n) boolean array, True on each split's
    estimation points.  With ``vote`` the plurality of the per-split
    winners is selected, so with two candidates procedure 0 wins when it
    wins at least half the splits.  Otherwise the argmin of the mean
    criterion over splits is selected, unweighted even when k-fold
    evaluation sizes differ by one; the mean of one split is that
    split's criterion exactly.
    """
    plan = np.asarray(plan)
    if plan.dtype != bool or plan.ndim != 2 or plan.shape[1] != sample.n or len(plan) < 1:
        raise ValueError(f"plan must be a nonempty 2-d bool array with {sample.n} columns")
    if not (plan.any(axis=1).all() and (~plan).any(axis=1).all()):
        raise ValueError("every split needs an estimation point and an evaluation point")
    crit, disqualified = _criteria_matrix(procedures, sample, plan)
    votes = tally_votes(crit)
    averaged = averaged_criteria(crit)
    selected = np.argmax(votes) if vote else np.argmin(_masked(averaged))
    return SelectionOutcome(int(selected), crit, votes, averaged, disqualified)


def run_selection(
    procedures: list[ProcedureSpec],
    sample: Sample,
    schedule: SplitSchedule,
    scheme: SelectionScheme,
    stream: np.random.Generator,
) -> SelectionOutcome:
    """Draw the scheme's split plan from the stream and select on it."""
    plan = make_splits(sample.n, schedule, scheme, stream)
    return select_on_plan(procedures, sample, plan, scheme.vote)
