"""Competing regression procedures.

Implements the candidate fits the selection engine arbitrates between:
polynomial least squares, the trivial zero/constant-mean fits, a
penalized cubic B-spline smoother tuned by generalized cross validation,
and a local linear kernel smoother.

Each ``PROCEDURES`` row holds the one function that builds its
procedure's ``FittedModel`` from arrays x and y.  The polynomial, spline
and local linear rows are ``canonical``: their fits take rows sorted by
(x, y), so they are exactly invariant to the ordering of sample rows.
The zero and mean fits take the sample's row order, in which the mean
sums y.  ``fit_procedure`` and the public ``fit_*`` order a whole sample
that way; the selection engine sorts a sample once and cuts each split's
estimation half from it.  Every returned prediction function is total
on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.interpolate import BSpline

# The B-spline rows kernel (de Boor's recursion) behind
# ``BSpline.design_matrix``: per point, the 4 nonzero cubic basis values
# and the column they start at.  The public call wraps them in a sparse
# CSR array that the spline fit would only densify again.  Scattering
# them straight into the QR input builds [B, y] in 13 us instead of
# 61 us at n1 = 90, and in 120 us instead of 315 us at n1 = 1440 (one
# Xeon core).  tests/test_estimators.py pins it to the public call.
from scipy.interpolate._dierckx import data_matrix as _bspline_rows
from scipy.linalg import solve_triangular

from .errors import (
    BandwidthTooSmall,
    DegenerateDenominator,
    RankDeficient,
    SampleTooSmall,
)
from .scenarios import Sample
from .splits import _lookup

MAX_INTERIOR_SITES = 35  # cap on distinct knot sites (incl. the two boundary knots)


# The default smoothing-parameter grid: LAMBDA_POINTS values spaced
# geometrically over LAMBDA_DECADES decades, topped at TOP_STIFFNESS / s_min,
# where s_min is the smallest nonzero eigenvalue of the fit's normalized
# penalty.  That pins the top at effective degrees of freedom 2 (the
# penalty null space) while the bottom reaches the unpenalized end.
LAMBDA_POINTS = 81
LAMBDA_DECADES = 16.0
TOP_STIFFNESS = 1e8
_LAMBDA_TEMPLATE = np.geomspace(10.0 ** (-LAMBDA_DECADES), 1.0, LAMBDA_POINTS)
_LAMBDA_TEMPLATE.flags.writeable = False


@dataclass(frozen=True)
class ProcedureSpec:
    """A candidate procedure, addressable by a string id.

    Ids: ``poly:d``, ``zero``, ``mean``, ``spline``, ``loclin:h`` or
    ``loclin:auto``.  ``name`` is the id's key in ``PROCEDURES`` and
    ``arg`` its parsed argument, None for an id without one.
    """

    name: str
    arg: int | float | str | None = None

    @property
    def id(self) -> str:
        return self.name if self.arg is None else f"{self.name}:{self.arg}"

    @classmethod
    def parse(cls, text: str) -> "ProcedureSpec":
        return cls(*_lookup(PROCEDURES, text, "procedure"))


@dataclass(frozen=True)
class FittedModel:
    """An immutable fitted procedure: a prediction function plus metadata.

    ``trace`` computes the effective degrees of freedom; it runs once, on
    the first read of ``dof``, so a fit whose dof nothing reads never
    pays for it.
    """

    predict: Callable[[np.ndarray], np.ndarray]
    trace: Callable[[], float]
    lam: float | None = None
    coefficients: np.ndarray | None = None
    label: str = ""

    @cached_property
    def dof(self) -> float:
        return self.trace()


class GcvPoint(NamedTuple):
    lam: float
    gcv: float
    dof: float


def _canonical(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by (x, y), the order the canonical fits take."""
    order = np.lexsort((sample.y, sample.x))
    return sample.x[order], sample.y[order]


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted, nonempty x (``np.unique`` without the sort)."""
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _vectorized(fn: Callable[[np.ndarray], np.ndarray]):
    def predict(x):
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        out = fn(xv)
        return out if np.ndim(x) else float(out[0])

    return predict


# --- polynomial and mean fits -------------------------------------------------


def _poly_model(x: np.ndarray, y: np.ndarray, degree: int) -> FittedModel:
    """Least-squares polynomial on (x, y)-sorted rows."""
    distinct = len(_distinct(x))
    if distinct < degree + 1:
        raise RankDeficient(
            f"degree {degree} needs {degree + 1} distinct x values, got {distinct}"
        )
    basis = np.vander(x, degree + 1, increasing=True)
    coefs, *_ = np.linalg.lstsq(basis, y, rcond=None)  # lowest order first
    return FittedModel(
        predict=_vectorized(lambda xv: np.polynomial.polynomial.polyval(xv, coefs)),
        trace=lambda: float(degree + 1),
        coefficients=coefs,
        label=f"poly:{degree}",
    )


def fit_polynomial(sample: Sample, degree: int) -> FittedModel:
    """Least-squares polynomial of the given degree.

    Solved through an orthogonal factorization (LAPACK least squares);
    no explicit normal-equation inverse is ever formed.

    Raises RankDeficient when the sample has fewer than degree + 1
    distinct x values.
    """
    return _poly_model(*_canonical(sample), degree)


def _mean_model(y: np.ndarray, with_mean: bool) -> FittedModel:
    value = float(np.mean(y)) if with_mean else 0.0
    return FittedModel(
        predict=_vectorized(lambda xv: np.full_like(xv, value)),
        trace=lambda: float(with_mean),
        coefficients=np.array([value]),
        label="mean" if with_mean else "zero",
    )


def fit_mean_model(sample: Sample, with_mean: bool) -> FittedModel:
    """The two nested trivial fits: predict 0, or predict the sample mean.

    The mean is summed in the sample's row order, so permuting the rows
    can move it by a rounding error.
    """
    return _mean_model(sample.y, with_mean)


# --- penalized cubic B-spline smoother ----------------------------------------


def _spline_knots(xd: np.ndarray) -> np.ndarray:
    """Cubic knot vector on the distinct sorted x values ``xd`` (>= 4).

    The m interior knots sit at the (1..m)/(m+1) quantiles of ``xd``,
    with m capped so there are at most MAX_INTERIOR_SITES knot sites;
    the boundary knots have multiplicity 4.  The quantiles are
    ``np.quantile``'s ``linear`` method written out bit for bit.  As
    m <= len(xd) - 4, consecutive virtual indexes lie more than 1 apart,
    so the knots come out strictly increasing and strictly inside
    (xd[0], xd[-1]), with no sort, dedupe or filter needed.
    """
    m = min(len(xd) - 2, MAX_INTERIOR_SITES) - 2
    virtual = (len(xd) - 1) * (np.arange(1, m + 1) / (m + 1))
    i = np.floor(virtual).astype(np.intp)
    gamma = virtual - i
    lo, hi = xd[i], xd[i + 1]
    diff = hi - lo
    # numpy's two-sided lerp, exact at both ends of each gap
    interior = np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)
    return np.concatenate([[xd[0]] * 4, interior, [xd[-1]] * 4])


def _spline_design(x: np.ndarray, y: np.ndarray):
    """Knots and dense augmented design [B, y] for the penalized spline
    on sorted x.

    B is the cubic B-spline basis on ``_spline_knots`` of the distinct x
    values, written straight into the array the QR takes, with y as its
    last column.
    """
    xd = _distinct(x)
    if len(xd) < 4:
        raise RankDeficient("spline needs >= 4 distinct x values")
    t = _spline_knots(xd)
    k = len(t) - 4
    n = len(x)
    values, offsets, _ = _bspline_rows(x, t, 3, np.ones_like(x), False)
    By = np.zeros((n, k + 1))
    # row j's 4 nonzero values start at column offsets[j]
    By.ravel()[(np.arange(n) * (k + 1) + offsets)[:, None] + np.arange(4)] = values
    By[:, k] = y
    return t, By


def _spline_penalty(t: np.ndarray) -> np.ndarray:
    """Penalty D on the coefficients of the cubic basis on knots ``t``.

    D takes second-order divided differences of the coefficients at the
    basis' Greville abscissae, so its null space is exactly the linear
    functions of x.  Knots a few ulps apart can round two abscissae onto
    one float; that raises RankDeficient, as no divided difference spans
    a zero gap.
    """
    k = len(t) - 4
    g = (t[1:-3] + t[2:-2] + t[3:-1]) / 3.0  # Greville abscissae
    h1, h2, span = g[1:-1] - g[:-2], g[2:] - g[1:-1], g[2:] - g[:-2]
    if not (np.all(h1 > 0) and np.all(h2 > 0)):
        raise RankDeficient("spline knots are too close: two Greville abscissae coincide")
    rows = np.arange(k - 2)
    D = np.zeros((k - 2, k))
    D[rows, rows] = 2.0 / (h1 * span)
    D[rows, rows + 1] = -2.0 / (h1 * h2)
    D[rows, rows + 2] = 2.0 / (h2 * span)
    return D


def _spline_system(x: np.ndarray, y: np.ndarray):
    """Diagonalize the penalized least-squares problem.

    Returns (t, R, v, s, w, r) such that the coefficients at a given
    lambda are ``R^{-1} v (w / (1 + lam * s))`` and the residual sum of
    squares is ``r^2 + sum((w * lam * s / (1 + lam * s))^2)``.  One thin
    QR of the augmented design [B, y], with no Q formed, gives R, Q'y
    (its last column) and the unpenalized residual norm r (its corner);
    QR rather than a Gram-matrix factorization keeps the conditioning at
    kappa(B) and not its square.  One small SVD of the whitened penalty
    then makes each grid lambda a diagonal rescale, which stays
    numerically exact even at the stiff top of the grid.
    """
    t, By = _spline_design(x, y)
    D = _spline_penalty(t)
    k = len(t) - 4
    Ra = np.linalg.qr(By, mode="r")
    R = Ra[:k, :k]
    diag = np.abs(np.diag(R))
    if np.min(diag) <= 1e-10 * np.max(diag):
        raise RankDeficient("spline design matrix is numerically rank deficient")
    r = abs(Ra[k, k]) if len(y) > k else 0.0
    E = solve_triangular(R.T, D.T, lower=True).T  # D R^{-1}
    # Shrinkage spectrum via the SVD of E (not eigh of E'E, which would
    # square the conditioning); the penalty null space has dimension
    # exactly 2, appended as explicit zeros.
    _, sigma, vh = np.linalg.svd(E, full_matrices=True)
    v = vh.T[:, ::-1]  # columns now ordered by ascending penalty strength
    s = np.concatenate([np.zeros(2), sigma[::-1] ** 2])
    w = v.T @ Ra[:k, k]
    return t, R, v, s, w, r


def _spline_profile(x: np.ndarray, y: np.ndarray, lams: Sequence[float] | None):
    """GCV over the lambda grid on (x, y)-sorted rows; returns
    (t, lams, gcv, dof, coefs_at(j)) with ``lams`` ascending.

    ``lams`` None is the default grid; explicit values must be positive
    and finite.
    """
    if lams is not None:
        lams = np.sort(np.asarray(lams, dtype=float))
        if lams.ndim != 1 or not lams.size or not np.all(np.isfinite(lams) & (lams > 0)):
            raise ValueError("explicit lambda grid must be positive and finite")
    if len(x) < 10:
        raise SampleTooSmall(f"spline needs >= 10 points, got {len(x)}")
    t, R, v, s, w, r = _spline_system(x, y)
    if s[2] <= 0.0:
        raise RankDeficient("spline penalty is rank deficient beyond its null space")
    if lams is None:
        lams = TOP_STIFFNESS / s[2] * _LAMBDA_TEMPLATE
    stiff = np.outer(s, lams)  # k x L
    shrink = 1.0 / (1.0 + stiff)
    # RSS is a sum of nonnegative terms: 1 - shrink is formed as
    # stiff / (1 + stiff), so nothing cancels.
    damped = w[:, None] * (stiff / (1.0 + stiff))
    rss = r * r + np.einsum("ij,ij->j", damped, damped)
    dof = shrink.sum(axis=0)
    n = len(y)
    denom = n - dof
    with np.errstate(divide="ignore", invalid="ignore"):
        gcv = np.where(denom > 0, n * rss / denom**2, np.inf)

    def coefs_at(j: int) -> np.ndarray:
        return solve_triangular(R, v @ (w * shrink[:, j]), lower=False)

    return t, lams, gcv, dof, coefs_at


def gcv_profile(sample: Sample, lams: Sequence[float] | None = None) -> list[GcvPoint]:
    """GCV score n*RSS / (n - tr S)^2 and trace over the lambda grid.

    ``lams`` replaces the default grid with explicit positive, finite
    values.  Grid points whose smoother trace reaches n are reported
    with a ``gcv`` of +inf (the denominator is degenerate there);
    entries are ordered by ascending lambda.
    """
    _, lams, gcv, dof, _ = _spline_profile(*_canonical(sample), lams)
    return [GcvPoint(float(l), float(g), float(d)) for l, g, d in zip(lams, gcv, dof)]


def _spline_curve(t: np.ndarray, c: np.ndarray):
    """The spline's prediction function, linear beyond the knot range."""
    spl = BSpline.construct_fast(t, c, 3)  # t and c come valid from _spline_model
    a, b = t[3], t[-4]

    def raw(xv):
        below, above = xv < a, xv > b
        if not (below.any() or above.any()):
            return spl(xv)
        out = spl(np.concatenate([np.clip(xv, a, b), [a, b]]))
        out, (fa, fb) = out[:-2], out[-2:]
        da, db = spl.derivative()(np.array([a, b]))
        out = np.where(below, fa + da * (xv - a), out)
        return np.where(above, fb + db * (xv - b), out)

    return raw


def _spline_model(x: np.ndarray, y: np.ndarray, lams: Sequence[float] | None) -> FittedModel:
    """GCV-tuned spline on (x, y)-sorted rows."""
    t, lams, gcv, dof, coefs_at = _spline_profile(x, y, lams)
    if not np.any(np.isfinite(gcv)):
        raise DegenerateDenominator("smoother trace reaches n at every grid lambda")
    best = int(np.argmin(gcv))  # first minimum = smallest lambda on ties
    c = coefs_at(best)
    return FittedModel(
        predict=_vectorized(_spline_curve(t, c)),
        trace=lambda: float(dof[best]),
        lam=float(lams[best]),
        coefficients=c,
        label="spline",
    )


def fit_smoothing_spline(sample: Sample, lams: Sequence[float] | None = None) -> FittedModel:
    """Penalized cubic B-spline with GCV-selected lambda.

    ``lams`` replaces the default grid with explicit positive, finite
    values.  Ties on the GCV grid break toward the smallest lambda.
    Predictions extrapolate linearly outside the knot range.  Raises
    DegenerateDenominator if no grid point has a usable GCV value.
    """
    return _spline_model(*_canonical(sample), lams)


# --- local linear kernel smoother ---------------------------------------------


DIRECT_MAX = 32  # windows of at most this many points are summed point by point
GATHER_CELLS = 1 << 16  # bound on the gathered (window x point) block per chunk
CELLS_PER_H = 4  # prefix-sum anchors sit at most h / CELLS_PER_H left of a window


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    # At a tiny h, u * u overflows to inf; the weight is then 0, as it must be.
    with np.errstate(over="ignore"):
        return 0.75 * np.maximum(0.0, 1.0 - u * u)


def _snap_runs(xt, q, lo, hi, inside):
    """Move ``lo``/``hi`` (in place) onto the ends of the run of sorted
    ``xt`` where ``inside(j, rows)`` holds for each query in ``q``.

    The verdict must be monotone in the distance to the query and true
    at distance 0; equal x share it, so each step jumps a whole tie run.
    The guesses only need to be close: the moves absorb the rounding
    difference between a searchsorted edge and the exact predicate.
    """
    n = len(xt)
    moves = (
        (lo, -1, "left", inside),
        (lo, 0, "right", lambda j, r: (xt[j] < q[r]) & ~inside(j, r)),
        (hi, 0, "right", inside),
        (hi, -1, "left", lambda j, r: (xt[j] > q[r]) & ~inside(j, r)),
    )
    for pos, off, side, move in moves:
        rows = np.arange(len(q))
        while rows.size:
            j = pos[rows] + off
            ok = (j >= 0) & (j < n)
            rows, j = rows[ok], j[ok]
            step = move(j, rows)
            rows, j = rows[step], j[step]
            pos[rows] = np.searchsorted(xt, xt[j], side)


def _gathered_stats(xt, yt, q, lo, hi, skip, weight, out, rows):
    """Window statistics of ``rows`` summed point by point into ``out``.

    The same per-point arithmetic as a dense weight matrix, restricted to
    each window [lo, hi) minus the ``skip`` index, in chunks of at most
    GATHER_CELLS gathered points.  Rows of ``out``: s0, s2, ubar, sxx,
    ybar, sxy (see ``_loclin_batch``).
    """
    if rows.size == 0:
        return
    width = max(int(np.max(hi[rows] - lo[rows])), 1)
    step = max(1, GATHER_CELLS // width)
    for start in range(0, rows.size, step):
        r = rows[start : start + step]
        idx = lo[r, None] + np.arange(width)
        keep = idx < hi[r, None]
        if skip is not None:
            keep &= idx != skip[r, None]
        idx = np.minimum(idx, len(xt) - 1)
        dx = xt[idx] - q[r, None]
        w = np.where(keep, weight(dx), 0.0)
        wx = w * dx
        yg = yt[idx]
        s0, s1, s2 = w.sum(1), wx.sum(1), (wx * dx).sum(1)
        t0, t1 = (w * yg).sum(1), (wx * yg).sum(1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ybar, ubar = t0 / s0, s1 / s0
            out[:, r] = [s0, s2, ubar, s2 - s1 * ubar, ybar, t1 - s1 * ybar]


def _prefix_stats(xt, yt, h, q, lo, hi, skip, out, rows):
    """Window statistics of ``rows`` from block-anchored prefix sums.

    The kernel is a quadratic in the offset d of a point from any anchor,
    so each weighted sum is a fixed combination of the power sums
    sum d^p (p <= 4) and sum d^p y (p <= 3) over the window, and each of
    those is a difference of two prefix sums.  Raw-power prefix sums
    cancel catastrophically, so the points are cut into cells of width
    h / CELLS_PER_H and each occupied cell anchors, at its first point,
    prefix sums over itself and the cells that follow within 2h.  A window
    whose first point lies in that cell falls inside the group, every
    offset stays below 2h + h / CELLS_PER_H, and the line is fitted in
    the anchor's coordinates, so nothing is re-centered by more than the
    window's own width.  Returns a mask of the rows whose window is not
    inside its group (possible only by rounding); the caller sums those
    point by point.
    """
    inv_h2 = 1.0 / (h * h)
    cell = np.floor((xt - xt[0]) * (CELLS_PER_H / h))  # exact: span < h * 2**40
    start = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    end = np.searchsorted(cell, cell[start] + (2 * CELLS_PER_H + 1))
    length = end - start
    offset = np.r_[0, np.cumsum(length)]
    idx = np.repeat(start - offset[:-1], length) + np.arange(offset[-1])
    d = xt[idx] - np.repeat(xt[start], length)
    powers = d ** np.arange(5)[:, None]
    terms = np.vstack([powers[1:], powers[:4] * yt[idx]])
    # Each group opens with a slot that takes back the previous group's
    # total, so the running sum restarts near 0 and its values stay at
    # the group's own scale.
    totals = np.add.reduceat(terms, offset[:-1], axis=1)
    restart = np.hstack([np.zeros((len(terms), 1)), -totals[:, :-1]])
    terms = np.insert(terms, offset[:-1], restart, axis=1)
    prefix = np.zeros((len(terms), terms.shape[1] + 1))
    np.cumsum(terms, axis=1, out=prefix[:, 1:])

    g = np.searchsorted(start, lo[rows], "right") - 1
    outside = hi[rows] > end[g]
    rows, g = rows[~outside], g[~outside]
    count = (hi - lo)[rows]
    a = offset[g] + g + 1 + lo[rows] - start[g]
    m1, m2, m3, m4, n0, n1, n2, n3 = prefix[:, a + count] - prefix[:, a]
    delta = xt[start[g]] - q[rows]  # anchor minus query
    # The weight at offset d from the anchor is alpha + beta d + gamma d^2.
    alpha = 0.75 * (1.0 - delta * delta * inv_h2)
    beta = -1.5 * delta * inv_h2
    gamma = -0.75 * inv_h2
    w0 = alpha * count + beta * m1 + gamma * m2
    w1 = alpha * m1 + beta * m2 + gamma * m3
    w2 = alpha * m2 + beta * m3 + gamma * m4
    v0 = alpha * n0 + beta * n1 + gamma * n2
    v1 = alpha * n1 + beta * n2 + gamma * n3
    if skip is not None:  # the self point sits at the query, where w = 0.75
        y_self = yt[skip[rows]]
        d_self = -delta
        w0, w1, w2 = w0 - 0.75, w1 - 0.75 * d_self, w2 - 0.75 * d_self * d_self
        v0, v1 = v0 - 0.75 * y_self, v1 - 0.75 * d_self * y_self
    with np.errstate(divide="ignore", invalid="ignore"):
        dbar, ybar = w1 / w0, v0 / w0
        sxx = w2 - w1 * dbar  # spread is the same about any origin
        ubar = dbar + delta
        out[:, rows] = [w0, sxx + w0 * ubar * ubar, ubar, sxx, ybar, v1 - w1 * ybar]
    return outside


def _loclin_batch(xt, yt, h, queries, drop_self=False):
    """Local linear predictions at ``queries``; optionally delete-1.

    ``xt`` must be sorted; ``drop_self`` requires ``queries`` to be
    ``xt``.  Each Epanechnikov window is the contiguous run of ``xt``
    with positive weight, found by searchsorted and then snapped to the
    exact weight predicate, so window membership matches a dense weight
    matrix point for point.  Small windows are summed point by point;
    larger ones come from block-anchored prefix sums, so one bandwidth
    costs O((n + m) log n) time and O(n + m) memory.

    Uses the centered weighted-least-squares statistics (numerically
    stable even when the window barely identifies a slope).  Falls back
    to the nearest-data mean where fewer than two points carry positive
    weight, and to the local weighted mean where the weighted x spread
    is numerically degenerate.  Returns (predictions, self-weight
    diagonal contribution for dof bookkeeping, all-windows-regular flag).
    """
    q = np.asarray(queries, dtype=float)
    m = len(q)
    skip = np.arange(m) if drop_self else None
    lo = np.searchsorted(xt, q - h, "left")
    hi = np.searchsorted(xt, q + h, "right")
    _snap_runs(xt, q, lo, hi, lambda j, r: _epanechnikov((xt[j] - q[r]) / h) > 0)
    npos = hi - lo - int(drop_self)

    # Rows: s0 = sum w, s2 = sum w u^2 (u = x - query), the weighted means
    # ubar and ybar, and the centered sums sxx and sxy.
    stats = np.zeros((6, m))
    big = np.flatnonzero(hi - lo > DIRECT_MAX)
    # Cell ids must be exact small integers and 1 / h^2 a normal float.
    if big.size and h * h >= np.finfo(float).tiny and xt[-1] - xt[0] < h * 2.0**40:
        big = big[_prefix_stats(xt, yt, h, q, lo, hi, skip, stats, big)]

    def kernel(dx):
        return _epanechnikov(dx / h)

    small = np.flatnonzero(hi - lo <= DIRECT_MAX)
    for rows in (small, big):
        _gathered_stats(xt, yt, q, lo, hi, skip, kernel, stats, rows)
    s0, s2, ubar, sxx, ybar, sxy = stats

    with np.errstate(divide="ignore", invalid="ignore"):
        ok_line = sxx > 1e-5 * np.maximum(s2, 1e-300)
        slope = np.where(ok_line, sxy, 0.0) / np.where(ok_line, sxx, 1.0)
        pred = ybar - slope * ubar  # prediction at the query (u = 0)
        selfw = np.where(
            ok_line,
            0.75 * (1.0 / s0 + ubar * ubar / np.where(ok_line, sxx, 1.0)),
            0.75 / np.maximum(s0, 1e-300),
        )

    few = np.flatnonzero(npos < 2)
    if few.size:
        pred[few] = _nearest_mean(xt, yt, q[few], None if skip is None else skip[few])
        selfw[few] = 0.0
    return pred, selfw, bool(np.all(ok_line & (npos >= 2)))


def _nearest_mean(xt, yt, q, skip):
    """Mean y over every point within dmin + 1e-300 of each query.

    dmin is the distance to the nearest point other than ``skip``; ties
    count on both sides, as do runs of equal x.
    """
    n = len(xt)
    left = np.searchsorted(xt, q, "left")
    right = np.searchsorted(xt, q, "right")
    equal = right - left - (0 if skip is None else 1)
    with np.errstate(invalid="ignore"):
        below = np.where(left > 0, q - xt[np.maximum(left - 1, 0)], np.inf)
        above = np.where(right < n, xt[np.minimum(right, n - 1)] - q, np.inf)
        reach = np.where(equal > 0, 0.0, np.minimum(below, above)) + 1e-300
        lo = np.searchsorted(xt, q - reach, "left")
        hi = np.searchsorted(xt, q + reach, "right")
    _snap_runs(xt, q, lo, hi, lambda j, r: np.abs(xt[j] - q[r]) <= reach[r])
    stats = np.zeros((6, len(q)))
    _gathered_stats(xt, yt, q, lo, hi, skip, np.ones_like, stats, np.arange(len(q)))
    return stats[4]


def _loclin_bandwidth(xt: np.ndarray, yt: np.ndarray, bandwidth: float | str) -> float:
    """The bandwidth h of a local linear fit on (x, y)-sorted rows."""
    n = len(xt)
    if n < 5:
        raise SampleTooSmall(f"local linear needs >= 5 points, got {n}")
    if bandwidth != "auto":
        h = float(bandwidth)
        if h <= 0:
            raise ValueError("bandwidth must be positive")
        return h
    span = xt[-1] - xt[0]
    if span <= 0:
        raise BandwidthTooSmall("all x values coincide; no bandwidth works")
    lo = max(span / (n - 1) * 1.5, span * 1e-3)
    best_h, best_score = None, np.inf
    for h in np.geomspace(lo, span, 15):
        pred, _, valid = _loclin_batch(xt, yt, h, xt, drop_self=True)
        if not valid:
            continue
        score = float(np.sum((yt - pred) ** 2))
        if score < best_score:  # strict: ties keep the smaller h
            best_h, best_score = float(h), score
    if best_h is None:
        raise BandwidthTooSmall("no bandwidth on the grid supports delete-1 fits")
    return best_h


def _loclin_model(xt: np.ndarray, yt: np.ndarray, bandwidth: float | str) -> FittedModel:
    """Local linear fit on (x, y)-sorted rows; its dof costs one more pass."""
    h = _loclin_bandwidth(xt, yt, bandwidth)
    return FittedModel(
        predict=_vectorized(lambda xv: _loclin_batch(xt, yt, h, xv)[0]),
        trace=lambda: float(np.clip(np.sum(_loclin_batch(xt, yt, h, xt)[1]), 0.0, len(xt))),
        lam=h,
        label=f"loclin:{bandwidth}",
    )


def fit_local_linear(sample: Sample, bandwidth: float | str = "auto") -> FittedModel:
    """Local linear fit with Epanechnikov weights at scale h.

    ``bandwidth='auto'`` selects h by delete-1 cross validation over a
    geometric grid; a grid bandwidth is usable only if every delete-1
    fit supports a non-degenerate line.  Raises BandwidthTooSmall when
    no grid bandwidth is usable.
    """
    return _loclin_model(*_canonical(sample), bandwidth)


# --- the procedure table ------------------------------------------------------


def _degree(text: str) -> int:
    degree = int(text)
    if degree < 0:
        raise ValueError("polynomial degree must be >= 0")
    return degree


def _bandwidth(text: str) -> float | str:
    if text == "auto":
        return text
    h = float(text)
    if not h > 0:
        raise ValueError("bandwidth must be positive or 'auto'")
    return h


class Procedure(NamedTuple):
    parse_arg: Callable[[str], object] | None  # None: the id takes no argument
    fit: Callable[[np.ndarray, np.ndarray, object], FittedModel]  # (x, y, arg) -> model
    canonical: bool = True  # fit takes rows sorted by (x, y), else in row order


PROCEDURES: dict[str, Procedure] = {
    "poly": Procedure(_degree, _poly_model),
    "zero": Procedure(None, lambda x, y, _: _mean_model(y, False), canonical=False),
    "mean": Procedure(None, lambda x, y, _: _mean_model(y, True), canonical=False),
    "spline": Procedure(None, _spline_model),  # arg None: the default grid
    "loclin": Procedure(_bandwidth, _loclin_model),
}


def fit_procedure(spec: ProcedureSpec, sample: Sample) -> FittedModel:
    """Fit one candidate procedure on a sample."""
    row = PROCEDURES[spec.name]
    x, y = _canonical(sample) if row.canonical else (sample.x, sample.y)
    return row.fit(x, y, spec.arg)
