"""Competing regression procedures.

Implements the candidate fits the selection engine arbitrates between:
polynomial least squares, the trivial zero/constant-mean fits, a
penalized cubic B-spline smoother tuned by generalized cross validation,
and a local linear kernel smoother.

The polynomial, spline and local linear fits canonicalize the sample by
sorting on (x, y) first, so they are exactly invariant to the ordering
of sample rows; the mean fit averages in row order.  Each of those three
fits is a sorted-input kernel, which the selection engine calls on the
estimation halves of a sample it has sorted once.  Every returned
prediction function is total on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import solve_triangular

from .errors import (
    BandwidthTooSmall,
    DegenerateDenominator,
    RankDeficient,
    SampleTooSmall,
)
from .scenarios import Sample

MAX_INTERIOR_SITES = 35  # cap on distinct knot sites (incl. the two boundary knots)


@dataclass(frozen=True)
class LambdaGrid:
    """Smoothing-parameter grid specification.

    A default grid has ``points`` logarithmically spaced values spanning
    ``decades`` decades.  Its top is anchored at
    ``top_stiffness / s_min`` where ``s_min`` is the smallest nonzero
    eigenvalue of the fit's normalized penalty, which pins the top of
    the grid at effective degrees of freedom 2 (the penalty null space)
    while the bottom reaches the unpenalized end.  ``values`` overrides
    everything with explicit absolute lambdas.
    """

    points: int = 81
    decades: float = 16.0
    top_stiffness: float = 1e8
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if not vals or any(not np.isfinite(v) or v <= 0 for v in vals):
                raise ValueError("explicit lambda grid must be positive and finite")
            object.__setattr__(self, "values", tuple(sorted(vals)))
        elif self.points < 1 or self.decades <= 0 or self.top_stiffness <= 0:
            raise ValueError("bad lambda grid specification")

    @classmethod
    def explicit(cls, values) -> "LambdaGrid":
        return cls(values=tuple(values))

    def resolve(self, s_min_nonzero: float) -> np.ndarray:
        """Return the absolute, ascending lambda values for one fit."""
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        top = self.top_stiffness / s_min_nonzero
        if self.points == 1:
            return np.array([top])
        return top * _geomspace_template(self.decades, self.points)


@lru_cache(maxsize=None)
def _geomspace_template(decades: float, points: int) -> np.ndarray:
    template = np.geomspace(10.0 ** (-decades), 1.0, points)
    template.flags.writeable = False
    return template


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
        name, colon, arg = text.strip().partition(":")
        entry = PROCEDURES.get(name)
        if entry is None or (entry.parse_arg is None) == bool(colon):
            raise ValueError(f"unknown procedure id: {text!r}")
        return cls(name, entry.parse_arg(arg) if colon else None)


@dataclass(frozen=True)
class FittedModel:
    """An immutable fitted procedure: a prediction function plus metadata."""

    predict: Callable[[np.ndarray], np.ndarray]
    dof: float
    train_n: int
    lam: float | None = None
    coefficients: np.ndarray | None = None
    label: str = ""


class GcvPoint(NamedTuple):
    lam: float
    gcv: float
    dof: float


def _canonical(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows by (x, y); makes the sorted-input fits exactly order-invariant."""
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


def _poly_coefs(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares coefficients on (x, y)-sorted rows, lowest order first."""
    distinct = len(_distinct(x))
    if distinct < degree + 1:
        raise RankDeficient(
            f"degree {degree} needs {degree + 1} distinct x values, got {distinct}"
        )
    basis = np.vander(x, degree + 1, increasing=True)
    coefs, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return coefs


def _poly_predictor(x: np.ndarray, y: np.ndarray, degree: int):
    coefs = _poly_coefs(x, y, degree)
    return lambda xv: np.polynomial.polynomial.polyval(xv, coefs)


def fit_polynomial(sample: Sample, degree: int) -> FittedModel:
    """Least-squares polynomial of the given degree.

    Solved through an orthogonal factorization (LAPACK least squares);
    no explicit normal-equation inverse is ever formed.

    Raises RankDeficient when the sample has fewer than degree + 1
    distinct x values.
    """
    x, y = _canonical(sample)
    coefs = _poly_coefs(x, y, degree)
    return FittedModel(
        predict=_vectorized(lambda xv: np.polynomial.polynomial.polyval(xv, coefs)),
        dof=float(degree + 1),
        train_n=sample.n,
        coefficients=coefs,
        label=f"poly:{degree}",
    )


def _mean_value(y: np.ndarray, with_mean: bool) -> float:
    return float(np.mean(y)) if with_mean else 0.0


def fit_mean_model(sample: Sample, with_mean: bool) -> FittedModel:
    """The two nested trivial fits: predict 0, or predict the sample mean.

    The mean is summed in the sample's row order, so permuting the rows
    can move it by a rounding error.
    """
    value = _mean_value(sample.y, with_mean)
    return FittedModel(
        predict=_vectorized(lambda xv: np.full_like(xv, value)),
        dof=1.0 if with_mean else 0.0,
        train_n=sample.n,
        coefficients=np.array([value]),
        label="mean" if with_mean else "zero",
    )


# --- penalized cubic B-spline smoother ----------------------------------------


def _spline_design(x: np.ndarray):
    """Knots, sparse design and penalty for the penalized spline on sorted x.

    Cubic B-spline basis on interior knots at quantiles of the distinct
    x values, capped at MAX_INTERIOR_SITES knot sites; the penalty D
    takes second-order divided differences of the coefficients at the
    basis' Greville abscissae, so its null space is exactly the linear
    functions of x.
    """
    xd = _distinct(x)
    n_sites = min(len(xd) - 2, MAX_INTERIOR_SITES)
    m = n_sites - 2
    a, b = xd[0], xd[-1]
    if m > 0:
        interior = np.quantile(xd, np.arange(1, m + 1) / (m + 1))
        interior = np.unique(interior[(interior > a) & (interior < b)])
    else:
        interior = np.empty(0)
    t = np.concatenate([[a] * 4, interior, [b] * 4])
    k = len(t) - 4
    B = BSpline.design_matrix(x, t, 3)

    g = (t[1:-3] + t[2:-2] + t[3:-1]) / 3.0  # Greville abscissae
    h1, h2, span = g[1:-1] - g[:-2], g[2:] - g[1:-1], g[2:] - g[:-2]
    rows = np.arange(k - 2)
    D = np.zeros((k - 2, k))
    D[rows, rows] = 2.0 / (h1 * span)
    D[rows, rows + 1] = -2.0 / (h1 * h2)
    D[rows, rows + 2] = 2.0 / (h2 * span)
    return t, B, D


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
    t, B, D = _spline_design(x)
    k = len(t) - 4
    Ra = np.linalg.qr(np.column_stack([B.toarray(), y]), mode="r")
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


def _spline_profile(x, y, grid: LambdaGrid):
    """GCV over the grid; returns (t, lams, gcv, dof, coefs_at(j))."""
    t, R, v, s, w, r = _spline_system(x, y)
    if s[2] <= 0.0:
        raise RankDeficient("spline penalty is rank deficient beyond its null space")
    lams = grid.resolve(s[2])
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


def _check_spline_input(x: np.ndarray) -> None:
    if len(x) < 10:
        raise SampleTooSmall(f"spline needs >= 10 points, got {len(x)}")
    if len(_distinct(x)) < 4:
        raise RankDeficient("spline needs >= 4 distinct x values")


def gcv_profile(sample: Sample, grid: LambdaGrid | None = None) -> list[GcvPoint]:
    """GCV score n*RSS / (n - tr S)^2 and trace over the lambda grid.

    Grid points whose smoother trace reaches n are reported with a
    ``gcv`` of +inf (the denominator is degenerate there); entries are
    ordered by ascending lambda.
    """
    x, y = _canonical(sample)
    _check_spline_input(x)
    _, lams, gcv, dof, _ = _spline_profile(x, y, grid or LambdaGrid())
    return [GcvPoint(float(l), float(g), float(d)) for l, g, d in zip(lams, gcv, dof)]


def _spline_fit(x: np.ndarray, y: np.ndarray, grid: LambdaGrid | None):
    """GCV-tuned spline on (x, y)-sorted rows: (knots, coefficients, lambda, dof)."""
    _check_spline_input(x)
    t, lams, gcv, dof, coefs_at = _spline_profile(x, y, grid or LambdaGrid())
    if not np.any(np.isfinite(gcv)):
        raise DegenerateDenominator("smoother trace reaches n at every grid lambda")
    best = int(np.argmin(gcv))  # first minimum = smallest lambda on ties
    return t, coefs_at(best), float(lams[best]), float(dof[best])


def _spline_curve(t: np.ndarray, c: np.ndarray):
    """The spline's prediction function, linear beyond the knot range."""
    spl = BSpline.construct_fast(t, c, 3)  # t and c come valid from _spline_fit
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


def _spline_predictor(x: np.ndarray, y: np.ndarray, grid: LambdaGrid | None):
    return _spline_curve(*_spline_fit(x, y, grid)[:2])


def fit_smoothing_spline(sample: Sample, grid: LambdaGrid | None = None) -> FittedModel:
    """Penalized cubic B-spline with GCV-selected lambda.

    Ties on the GCV grid break toward the smallest lambda.  Predictions
    extrapolate linearly outside the knot range.  Raises
    DegenerateDenominator if no grid point has a usable GCV value.
    """
    t, c, lam, dof = _spline_fit(*_canonical(sample), grid)
    return FittedModel(
        predict=_vectorized(_spline_curve(t, c)),
        dof=dof,
        train_n=sample.n,
        lam=lam,
        coefficients=c,
        label="spline",
    )


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


def _loclin_predictor(xt: np.ndarray, yt: np.ndarray, bandwidth: float | str):
    h = _loclin_bandwidth(xt, yt, bandwidth)
    return lambda xv: _loclin_batch(xt, yt, h, xv)[0]


def fit_local_linear(sample: Sample, bandwidth: float | str = "auto") -> FittedModel:
    """Local linear fit with Epanechnikov weights at scale h.

    ``bandwidth='auto'`` selects h by delete-1 cross validation over a
    geometric grid; a grid bandwidth is usable only if every delete-1
    fit supports a non-degenerate line.  Raises BandwidthTooSmall when
    no grid bandwidth is usable.
    """
    xt, yt = _canonical(sample)
    h = _loclin_bandwidth(xt, yt, bandwidth)
    _, selfw, _ = _loclin_batch(xt, yt, h, xt)
    return FittedModel(
        predict=_vectorized(lambda xv: _loclin_batch(xt, yt, h, xv)[0]),
        dof=float(np.clip(np.sum(selfw), 0.0, sample.n)),
        train_n=sample.n,
        lam=h,
        label=f"loclin:{bandwidth}",
    )


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


def _split_fits(predictor, sorted_input: bool = True):
    """A ``holdout`` entry that fits ``predictor(x, y, arg)`` on each split.

    With ``sorted_input`` each estimation half is cut from the sample
    sorted once by (x, y), so it arrives canonical and ``predictor`` is a
    sorted-input kernel; otherwise the half keeps the sample's row order.
    Each split's predictions are made at its evaluation points, in row
    order.
    """

    def holdout(sample: Sample, plan: np.ndarray, order: np.ndarray, arg) -> Iterator:
        x, y, fit_plan = sample.x, sample.y, plan
        if sorted_input:
            x, y, fit_plan = x[order], y[order], plan[:, order]
        for est, ev in zip(fit_plan, ~plan):
            yield predictor(x[est], y[est], arg)(sample.x[ev])

    return holdout


class Procedure(NamedTuple):
    parse_arg: Callable[[str], object] | None  # None: the id takes no argument
    fit: Callable[[Sample, object], FittedModel]  # (sample, arg) -> model
    # (sample, plan, order, arg) -> each split's predictions at its evaluation
    # points; ``order`` sorts the sample's rows by (x, y)
    holdout: Callable[[Sample, np.ndarray, np.ndarray, object], Iterator[np.ndarray]]


def _trivial(with_mean: bool) -> Procedure:
    """The zero or mean row.  Its fits keep the sample's row order, the
    order in which ``fit_mean_model`` sums y."""

    def predictor(x, y, _):
        value = _mean_value(y, with_mean)
        return lambda xv: np.full_like(xv, value)

    return Procedure(
        None,
        lambda sample, _: fit_mean_model(sample, with_mean),
        _split_fits(predictor, sorted_input=False),
    )


PROCEDURES: dict[str, Procedure] = {
    "poly": Procedure(_degree, fit_polynomial, _split_fits(_poly_predictor)),
    "zero": _trivial(with_mean=False),
    "mean": _trivial(with_mean=True),
    # arg None: the default grid
    "spline": Procedure(None, fit_smoothing_spline, _split_fits(_spline_predictor)),
    "loclin": Procedure(_bandwidth, fit_local_linear, _split_fits(_loclin_predictor)),
}


def fit_procedure(spec: ProcedureSpec, sample: Sample) -> FittedModel:
    """Fit one candidate procedure on a sample."""
    return PROCEDURES[spec.name].fit(sample, spec.arg)
