"""Exact multifold-CV arithmetic for the nested mean-model pair.

Candidate 1 predicts zero, candidate 2 predicts the estimation-half
mean, and the criterion is summed over all C(n, n1) splits at a fixed
ratio.  The closed forms below reduce that enumeration to O(n)
statistics of the noise vector; ``brute_force_multifold`` is the
enumeration ground truth they are validated against.

With S = sum(eps) and U = sum(eps^2), both criteria share the positive
combinatorial factor K = (n-2)! / (n1 * n1! * (n2-1)!), and

    CV(1) - CV(2) = K * [ n1*(n-1)*(n*mu^2 + 2*mu*S)
                          + (n1+1)*S^2 - (n1+n)*U ].

The bracket is the normalized difference returned here.  (Caution when
re-deriving: it is easy to end up with the S^2 and U coefficient
factors swapped.  The form above is the one the enumeration oracle
confirms, and for mu = 0 it matches the equivalent event
(n-1)*n1/n * S^2 > (n+n1) * sum((eps - mean)^2).)
Candidate 1 is selected exactly when the difference is <= 0.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import fdtrc

from . import rng
from .blas import usable_cores
from .errors import ExhaustiveTooLarge, OverflowRisk
from .splits import EXHAUSTIVE_CAP

CLOSED_PAIR_MAX_N = 60
# Draws per selection_prob chunk: each temporary is 512 KB, so memory stays
# small and the chunks spread evenly over the threads.
CHUNK_DRAWS = 1 << 16
CHECK_MUS = (0.0, 1.0)  # the means enumeration_check crosses with every (n, n1)


@dataclass(frozen=True)
class NestedMeanInstance:
    """One realized dataset y_i = mu + eps_i with a splitting ratio; eps is a frozen copy."""

    mu: float
    eps: np.ndarray
    n1: int

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float)
        if eps.ndim != 1 or len(eps) < 2:
            raise ValueError("eps must be a vector of length >= 2")
        if not 1 <= self.n1 <= len(eps) - 1:
            raise ValueError(f"n1 must be in [1, {len(eps) - 1}], got {self.n1}")
        eps.flags.writeable = False
        object.__setattr__(self, "eps", eps)

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def n2(self) -> int:
        return self.n - self.n1

    @property
    def y(self) -> np.ndarray:
        return self.mu + self.eps


def split_count_factor(n: int, n1: int) -> Fraction:
    """The exact positive factor K relating the normalized difference
    to CV(1) - CV(2)."""
    n2 = n - n1
    return Fraction(math.factorial(n - 2), n1 * math.factorial(n1) * math.factorial(n2 - 1))


def normalized_cv_diff(inst: NestedMeanInstance) -> float:
    """(CV(1) - CV(2)) / K in O(n); same sign as the raw difference.

    Selecting the zero model corresponds to a value <= 0.
    """
    n, n1, mu = inst.n, inst.n1, inst.mu
    s = float(np.sum(inst.eps))
    u = float(np.sum(inst.eps**2))
    return n1 * (n - 1) * (n * mu * mu + 2 * mu * s) + (n1 + 1) * s * s - (n1 + n) * u


def closed_cv_pair(inst: NestedMeanInstance) -> tuple[float, float]:
    """Exact (CV(1), CV(2)) using integer binomials; n capped at 60.

    CV(1) counts each point once per split excluding it, so
    CV(1) = C(n-1, n2-1) * sum(y^2); CV(2) follows from the normalized
    difference.  Raises OverflowRisk beyond the exact-integer range.
    """
    n = inst.n
    if n > CLOSED_PAIR_MAX_N:
        raise OverflowRisk(f"closed pair limited to n <= {CLOSED_PAIR_MAX_N}, got {n}")
    y = inst.y
    cv1 = math.comb(n - 1, inst.n2 - 1) * float(np.sum(y * y))
    k = float(split_count_factor(n, inst.n1))
    cv2 = cv1 - k * normalized_cv_diff(inst)
    return cv1, cv2


def brute_force_multifold(y, n1: int) -> tuple[float, float]:
    """Enumerate every estimation subset of size n1 and sum both criteria.

    Ground-truth oracle: no closed forms, pure enumeration.  Capped at
    EXHAUSTIVE_CAP subsets.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if not 1 <= n1 <= n - 1:
        raise ValueError(f"n1 must be in [1, {n - 1}]")
    total = math.comb(n, n1)
    if total > EXHAUSTIVE_CAP:
        raise ExhaustiveTooLarge(f"C({n},{n1}) = {total} exceeds {EXHAUSTIVE_CAP}")
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), n1)),
        dtype=np.intp,
        count=total * n1,
    ).reshape(total, n1)
    sum_all = float(np.sum(y))
    sumsq_all = float(np.sum(y * y))
    est_sum = y[idx].sum(axis=1)
    est_sumsq = (y * y)[idx].sum(axis=1)
    eval_sumsq = sumsq_all - est_sumsq
    eval_sum = sum_all - est_sum
    mean_est = est_sum / n1
    cv1 = float(np.sum(eval_sumsq))
    cv2 = float(np.sum(eval_sumsq - 2.0 * mean_est * eval_sum + (n - n1) * mean_est**2))
    return cv1, cv2


def selection_prob(
    n: int,
    n1: int,
    mu: float,
    sigma: float,
    reps: int,
    stream: np.random.Generator,
    *,
    workers: int | None = None,
) -> float:
    """Monte Carlo frequency of the mean model being selected.

    Draws eps = sigma * z, z ~ N(0, 1)^n, and counts normalized_cv_diff
    > 0; O(n * reps) via the closed form.  That difference is homogeneous
    of degree 2 in (mu, eps), so it is scored on z with theta = mu / sigma
    and no sigma over- or underflows the squares.  Two cases are answered
    exactly, without scoring: sigma = 0 (1.0 when mu != 0, else 0.0), and
    a mu term n1 * (n - 1) * n * theta^2 too large to be finite, where the
    mean model wins every replication (1.0).  Both still move ``stream``
    as the draw would.  Any other non-finite margin raises OverflowRisk.
    The rows are scored in chunks of about CHUNK_DRAWS draws on ``workers``
    threads (default: every usable core).  Each chunk reads its own copy
    of ``stream`` moved to its first draw, so the result is the
    sequential draw's, bit for bit, for any thread count, and ``stream``
    is left where that draw ends.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 1 <= n1 <= n - 1:
        raise ValueError(f"n1 must be in [1, {n - 1}], got {n1}")
    if not 0 <= sigma < np.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if not np.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    rows = max(1, CHUNK_DRAWS // n)
    theta = mu / sigma if sigma else 0.0
    mu_term = n1 * (n - 1) * n * theta * theta

    def hits(start: int) -> int:
        c = min(rows, reps - start)
        z = rng.normals(rng.seek(stream, start * n), (c, n))
        s = z.sum(axis=1)
        u = np.einsum("ij,ij->i", z, z)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            d = mu_term + n1 * (n - 1) * 2 * theta * s + (n1 + 1) * s * s - (n1 + n) * u
        if not np.isfinite(d).all():
            raise OverflowRisk(f"selection margin overflows at mu / sigma = {theta:g}")
        return int(np.count_nonzero(d > 0))

    if sigma and math.isfinite(mu_term):
        with ThreadPoolExecutor(max_workers=workers or usable_cores()) as pool:
            total = sum(pool.map(hits, range(0, reps, rows)))
    else:
        total = reps if mu else 0
    stream.bit_generator.state = rng.seek(stream, reps * n).bit_generator.state
    return total / reps


def f_reference_prob(n: int, n1: int) -> float:
    """Analytic wrong-selection probability under mu = 0.

    The selection event reduces to an F(1, n-1) variable exceeding
    (n + n1) / n1; this is the reference value selection_prob converges
    to when mu = 0.
    """
    if n < 2 or not 1 <= n1 <= n - 1:
        raise ValueError(f"need n >= 2 and n1 in [1, n-1]; got n={n}, n1={n1}")
    return float(fdtrc(1, n - 1, (n + n1) / n1))


def enumeration_check(max_n: int = 10, seeds: int = 5) -> dict:
    """Cross-check the closed forms against enumeration on a small grid.

    Returns the number of instances checked, the worst relative error
    of the normalized difference, and whether every sign agreed.
    """
    checked = 0
    worst_rel = 0.0
    signs_agree = True
    for n in range(4, max_n + 1):
        for n1 in range(1, n):
            for mu in CHECK_MUS:
                for seed in range(seeds):
                    eps = rng.normals(rng.stream("enum-check", n, n1, mu, seed), n)
                    inst = NestedMeanInstance(mu=mu, eps=eps, n1=n1)
                    d = normalized_cv_diff(inst)
                    cv1, cv2 = brute_force_multifold(mu + eps, n1)
                    k = float(split_count_factor(n, n1))
                    ref = (cv1 - cv2) / k
                    scale = max(abs(ref), abs(d), 1e-12)
                    worst_rel = max(worst_rel, abs(d - ref) / scale)
                    if np.sign(d) != np.sign(ref) and abs(d - ref) > 1e-12 * scale:
                        signs_agree = False
                    checked += 1
    return {"instances": checked, "worst_rel_error": worst_rel, "signs_agree": signs_agree}
