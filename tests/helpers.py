"""Shared test oracles."""

import numpy as np


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


def _epanechnikov(u):
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
