"""Shared test oracles."""

import numpy as np
from scipy.interpolate import BSpline

from cv_arbiter import rng
from cv_arbiter.errors import AllProceduresFailed, CvArbiterError
from cv_arbiter.estimators import MAX_INTERIOR_SITES, fit_procedure
from cv_arbiter.scenarios import Sample
from cv_arbiter.selection import cv_criterion


def solve_longdouble(a, rhs):
    """Gaussian elimination with partial pivoting in extended precision.

    Keeps the dense hat-matrix oracle accurate a few decades further
    into the stiff end of the lambda grid than float64 allows.
    """
    a = a.astype(np.longdouble).copy()
    rhs = rhs.astype(np.longdouble).copy()
    n = len(a)
    for i in range(n):
        p = i + int(np.argmax(np.abs(a[i:, i])))
        if p != i:
            a[[i, p]] = a[[p, i]]
            rhs[[i, p]] = rhs[[p, i]]
        f = a[i + 1 :, i : i + 1] / a[i, i]
        a[i + 1 :, i:] -= f * a[i, i:]
        rhs[i + 1 :] -= f * rhs[i]
    x = np.zeros_like(rhs)
    for i in range(n - 1, -1, -1):
        x[i] = (rhs[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def dense_hat_trace(basis_dense, penalty, lam):
    """Brute-force trace of the smoother hat matrix at one lambda."""
    gram = basis_dense.T @ basis_dense
    m = gram + np.longdouble(lam) * (penalty.T @ penalty)
    return float(np.trace(solve_longdouble(m, gram)))


def reference_spline_design(x):
    """Reference for ``estimators._spline_design``'s knots and basis on
    sorted x, through the public library calls: interior knots from
    ``np.quantile`` + ``np.unique`` of ``np.unique(x)``, the dense basis
    from ``BSpline.design_matrix(...).toarray()``.  Returns (t, B).
    """
    xd = np.unique(x)
    n_sites = min(len(xd) - 2, MAX_INTERIOR_SITES)
    m = n_sites - 2
    a, b = xd[0], xd[-1]
    if m > 0:
        interior = np.quantile(xd, np.arange(1, m + 1) / (m + 1))
        interior = np.unique(interior[(interior > a) & (interior < b)])
    else:
        interior = np.empty(0)
    t = np.concatenate([[a] * 4, interior, [b] * 4])
    return t, BSpline.design_matrix(x, t, 3).toarray()


def reference_spline_curve(t, c):
    """Reference for ``estimators._spline_curve``: the same spline, linear
    beyond the knot range, from four scalar end-point evaluations."""
    spl = BSpline.construct_fast(t, c, 3)
    a, b = t[3], t[-4]

    def raw(xv):
        below, above = xv < a, xv > b
        if not (below.any() or above.any()):
            return spl(xv)
        der = spl.derivative()
        fa, fb = float(spl(a)), float(spl(b))
        da, db = float(der(a)), float(der(b))
        out = spl(np.clip(xv, a, b))
        out = np.where(below, fa + da * (xv - a), out)
        return np.where(above, fb + db * (xv - b), out)

    return raw


def _epanechnikov(u):
    with np.errstate(over="ignore"):  # u * u overflows to inf at a tiny h; the weight is 0
        return 0.75 * np.maximum(0.0, 1.0 - u * u)


def dense_loclin_batch(xt, yt, h, queries, drop_self=False):
    """Dense n x n reference for ``estimators._loclin_batch``.

    Local linear predictions at ``queries``; optionally delete-1.

    Uses the centered weighted-least-squares statistics (numerically
    stable even when the window barely identifies a slope).  Falls back
    to the nearest-data mean where fewer than two points carry positive
    weight, and to the local weighted mean where the weighted x spread
    is numerically degenerate.  Returns (predictions, self-weight
    diagonal contribution for dof bookkeeping, all-windows-regular flag).
    """
    dx = xt[None, :] - queries[:, None]
    w = _epanechnikov(dx / h)
    if drop_self:
        np.fill_diagonal(w, 0.0)
    s0 = w.sum(axis=1)
    s1 = (w * dx).sum(axis=1)
    s2 = (w * dx * dx).sum(axis=1)
    t0 = w @ yt
    t1 = (w * dx) @ yt
    npos = (w > 0).sum(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        ybar = t0 / s0
        ubar = s1 / s0
        sxx = s2 - s1 * ubar  # weighted spread of the centered design
        sxy = t1 - s1 * ybar
        ok_line = sxx > 1e-5 * np.maximum(s2, 1e-300)
        slope = np.where(ok_line, sxy, 0.0) / np.where(ok_line, sxx, 1.0)
        pred = ybar - slope * ubar  # prediction at the query (u = 0)
        selfw = np.where(
            ok_line,
            0.75 * (1.0 / s0 + ubar * ubar / np.where(ok_line, sxx, 1.0)),
            0.75 / np.maximum(s0, 1e-300),
        )

    few = npos < 2
    if np.any(few):
        for i in np.flatnonzero(few):
            d = np.abs(xt - queries[i])
            if drop_self:
                d[i] = np.inf
            nearest = d <= d.min() + 1e-300
            pred[i] = yt[nearest].mean()
            selfw[i] = 0.0
    return pred, selfw, bool(np.all(ok_line & (npos >= 2)))


def sequential_selection_prob(n, n1, mu, sigma, reps, stream):
    """Reference for ``nested_mean.selection_prob``: the whole draw read
    from ``stream`` in order, in chunks of 4e6 draws, on one thread."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 1 <= n1 <= n - 1:
        raise ValueError(f"n1 must be in [1, {n - 1}], got {n1}")
    hits = 0
    done = 0
    chunk_rows = max(1, int(4_000_000 // max(n, 1)))
    mu_term = n1 * (n - 1) * n * mu * mu
    while done < reps:
        c = min(chunk_rows, reps - done)
        eps = sigma * rng.normals(stream, (c, n))
        s = eps.sum(axis=1)
        u = np.einsum("ij,ij->i", eps, eps)
        d = mu_term + n1 * (n - 1) * 2 * mu * s + (n1 + 1) * s * s - (n1 + n) * u
        hits += int(np.count_nonzero(d > 0))
        done += c
    return hits / reps


def per_split_criteria_matrix(procedures, sample, plan):
    """Reference for ``selection._criteria_matrix``: every procedure fitted
    through ``fit_procedure`` on a fresh ``Sample`` of each split's
    estimation half, and scored by ``cv_criterion``.

    A procedure that fails on any split is disqualified outright (its
    column becomes NaN); package errors disqualify, anything else
    propagates.
    """
    n_splits, n_procs = len(plan), len(procedures)
    crit = np.full((n_splits, n_procs), np.nan)
    disqualified: dict[int, str] = {}
    for j, spec in enumerate(procedures):
        try:
            for i, (est, ev) in enumerate(zip(plan, ~plan)):
                sub = Sample(x=sample.x[est], y=sample.y[est])
                model = fit_procedure(spec, sub)
                crit[i, j] = cv_criterion(model, sample.x[ev], sample.y[ev])
        except CvArbiterError as exc:
            crit[:, j] = np.nan
            disqualified[j] = f"{type(exc).__name__}: {exc}"
    if len(disqualified) == n_procs:
        raise AllProceduresFailed(
            "; ".join(f"{procedures[j].id}: {msg}" for j, msg in disqualified.items())
        )
    return crit, disqualified
