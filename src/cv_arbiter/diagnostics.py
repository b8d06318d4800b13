"""Finite-sample probes for the quantities the selection theory is
phrased in: empirical L2/L4/sup norms of the estimation error,
log-risk-vs-log-n rate slopes, "one procedure is better" frequencies,
high quantiles of the sup-norm and L4/L2-ratio scales, and the
evaluation-half loss-ratio event.

These are fixed-n diagnostics of asymptotic statements: they report
evidence, they cannot certify a limit.  All probes consume their stream
sequentially, so results are deterministic given the stream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng
from .blas import single_threaded
from .errors import DegenerateRisk
from .estimators import FittedModel, ProcedureSpec, fit_procedure
from .scenarios import Sample, Scenario, gen_sample, true_f
from .splits import SelectionScheme, SplitSchedule, make_splits

SUP_GRID = np.linspace(0.0, 1.0, 10_001)
NORM_DRAWS = 2000  # design draws per replication that score its L2 and L4 losses


def empirical_norm(
    model: FittedModel,
    scenario: Scenario,
    q,
    draws: int,
    stream: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the L_q norm of f - f_hat under the design.

    For finite q the estimate is the q-th root of the mean of |f-f_hat|^q
    over fresh design draws with a delta-method standard error.  For
    q = inf the value is the max over a fixed 10,001-point grid (a lower
    bound of the essential sup; stderr 0).
    """
    if q in (np.inf, math.inf, "inf"):
        diff = np.abs(model.predict(SUP_GRID) - true_f(scenario, SUP_GRID))
        return float(np.max(diff)), 0.0
    q = float(q)
    if draws < 100:
        raise ValueError("need >= 100 draws for a finite-q norm estimate")
    x = rng.uniforms(stream, draws)
    g = np.abs(model.predict(x) - true_f(scenario, x)) ** q
    mean = float(np.mean(g))
    se_mean = float(np.std(g, ddof=1) / math.sqrt(draws))
    if mean == 0.0:
        return 0.0, 0.0
    value = mean ** (1.0 / q)
    stderr = se_mean * value / (q * mean)
    return value, stderr


def _l2_l4(model, scenario, x) -> tuple[float, float]:
    """L2 and L4 estimates from one shared set of design draws."""
    diff = np.abs(model.predict(x) - true_f(scenario, x))
    return float(np.mean(diff**2) ** 0.5), float(np.mean(diff**4) ** 0.25)


def rate_slope(
    proc: ProcedureSpec,
    scenario: Scenario,
    n_grid,
    reps: int,
    stream: np.random.Generator,
) -> float:
    """Least-squares slope of log mean-squared-L2-loss against log n.

    A slope near -1 is the parametric signature; slopes in (-1, 0)
    indicate slower, nonparametric convergence.  Raises DegenerateRisk
    if any risk estimate is exactly zero.
    """
    sizes = sorted(set(int(n) for n in n_grid))
    if len(sizes) < 3:
        raise ValueError("n_grid needs at least 3 distinct sizes")
    if reps < 20:
        raise ValueError("need reps >= 20")
    risks = []
    for n in sizes:
        losses = np.empty(reps)
        for r in range(reps):
            sample = gen_sample(scenario, n, stream)
            model = fit_procedure(proc, sample)
            x = rng.uniforms(stream, NORM_DRAWS)
            diff = model.predict(x) - true_f(scenario, x)
            losses[r] = np.mean(diff**2)
        risk = float(np.mean(losses))
        if risk == 0.0:
            raise DegenerateRisk(f"zero risk at n={n}; slope undefined")
        risks.append(risk)
    logs_n = np.log(np.asarray(sizes, dtype=float))
    logs_r = np.log(np.asarray(risks))
    design = np.vstack([np.ones_like(logs_n), logs_n]).T
    coef, *_ = np.linalg.lstsq(design, logs_r, rcond=None)
    return float(coef[1])


def better_prob(
    proc_a: ProcedureSpec,
    proc_b: ProcedureSpec,
    scenario: Scenario,
    n: int,
    reps: int,
    c: float,
    stream: np.random.Generator,
) -> float:
    """Frequency of L2(B) >= (1 + c) * L2(A) over replications.

    Both procedures are fitted on the same per-replication sample and
    scored on shared design draws (paired comparison).
    """
    if reps < 50:
        raise ValueError("need reps >= 50")
    if not c > 0:  # NaN fails too
        raise ValueError(f"c must be > 0, got {c}")
    hits = 0
    for _ in range(reps):
        sample = gen_sample(scenario, n, stream)
        model_a = fit_procedure(proc_a, sample)
        model_b = fit_procedure(proc_b, sample)
        x = rng.uniforms(stream, NORM_DRAWS)
        l2_a, _ = _l2_l4(model_a, scenario, x)
        l2_b, _ = _l2_l4(model_b, scenario, x)
        if l2_b >= (1.0 + c) * l2_a:
            hits += 1
    return hits / reps


def condition_scales(
    proc: ProcedureSpec,
    scenario: Scenario,
    n: int,
    reps: int,
    stream: np.random.Generator,
) -> tuple[float, float]:
    """95th percentiles over replications of the sup-norm loss and of the
    L4/L2 loss ratio."""
    if reps < 50:
        raise ValueError("need reps >= 50")
    sups = np.empty(reps)
    ratios = np.empty(reps)
    for r in range(reps):
        sample = gen_sample(scenario, n, stream)
        model = fit_procedure(proc, sample)
        sups[r] = np.max(np.abs(model.predict(SUP_GRID) - true_f(scenario, SUP_GRID)))
        x = rng.uniforms(stream, NORM_DRAWS)
        l2, l4 = _l2_l4(model, scenario, x)
        if l2 == 0.0:
            raise DegenerateRisk("zero L2 loss; ratio undefined")
        ratios[r] = l4 / l2
    return float(np.percentile(sups, 95)), float(np.percentile(ratios, 95))


def loss_ratio_prob(
    proc_a: ProcedureSpec,
    proc_b: ProcedureSpec,
    scenario: Scenario,
    n: int,
    schedule: SplitSchedule,
    reps: int,
    alpha: float,
    stream: np.random.Generator,
) -> float:
    """Frequency of the evaluation-half loss-sum of B exceeding (1+alpha)
    times that of A.

    Fits go on the estimation half; the sums use the true f on the
    evaluation half, which is exactly the event driving selection
    consistency.
    """
    if reps < 50:
        raise ValueError("need reps >= 50")
    if not alpha > 0:  # NaN fails too
        raise ValueError(f"alpha must be > 0, got {alpha}")
    hits = 0
    for _ in range(reps):
        sample = gen_sample(scenario, n, stream)
        [est] = make_splits(n, schedule, SelectionScheme("single"), stream)
        sub = Sample(x=sample.x[est], y=sample.y[est])
        ev_x = sample.x[~est]
        fx = true_f(scenario, ev_x)
        ra = float(np.sum((fx - fit_procedure(proc_a, sub).predict(ev_x)) ** 2))
        rb = float(np.sum((fx - fit_procedure(proc_b, sub).predict(ev_x)) ** 2))
        if rb >= (1.0 + alpha) * ra:
            hits += 1
    return hits / reps


@dataclass
class DiagnosticsReport:
    """JSON-serializable bundle of the probes for a procedure list."""

    case: str
    n: int
    reps: int
    seed: int
    procedures: list[str]
    norms: list[dict] = field(default_factory=list)
    rate_slopes: list[float] = field(default_factory=list)
    sup_scales: list[float] = field(default_factory=list)
    ratio_scales: list[float] = field(default_factory=list)
    better_prob: float | None = None
    better_threshold: float | None = None
    loss_ratio_prob: float | None = None
    loss_ratio_alpha: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@single_threaded()
def diagnostics_report(
    proc_ids: list[str],
    case_id: str,
    scenario: Scenario,
    n: int,
    reps: int,
    seed: int,
    c: float = 0.1,
    alpha: float = 0.1,
    norm_draws: int = 100_000,
) -> DiagnosticsReport:
    """Run the full probe battery for the CLI ``diagnose`` subcommand.

    Pairwise probes use the first two procedures and are omitted when
    only one is given; ``c`` and ``alpha`` are checked before any probe
    runs either way.  BLAS runs single-threaded throughout.
    """
    for name, value in (("c", c), ("alpha", alpha)):
        if not value > 0:  # NaN fails too
            raise ValueError(f"{name} must be > 0, got {value}")
    procs = [ProcedureSpec.parse(p) for p in proc_ids]
    report = DiagnosticsReport(
        case=case_id, n=n, reps=reps, seed=seed, procedures=[p.id for p in procs]
    )
    slope_grid = sorted({max(25, n // 4), max(50, n // 2), n})
    for spec in procs:
        s = rng.stream(seed, "diagnose", case_id, n, "norms", spec.id)
        model = fit_procedure(spec, gen_sample(scenario, n, s))
        l2 = empirical_norm(model, scenario, 2, norm_draws, s)
        l4 = empirical_norm(model, scenario, 4, norm_draws, s)
        linf = empirical_norm(model, scenario, np.inf, norm_draws, s)
        report.norms.append(
            {"procedure": spec.id, "l2": l2, "l4": l4, "linf": linf}
        )
        report.rate_slopes.append(
            rate_slope(
                spec, scenario, slope_grid, reps,
                rng.stream(seed, "diagnose", case_id, n, "slope", spec.id),
            )
        )
        sup_scale, ratio_scale = condition_scales(
            spec, scenario, n, reps,
            rng.stream(seed, "diagnose", case_id, n, "scales", spec.id),
        )
        report.sup_scales.append(sup_scale)
        report.ratio_scales.append(ratio_scale)
    if len(procs) >= 2:
        report.better_threshold = c
        report.better_prob = better_prob(
            procs[0], procs[1], scenario, n, reps, c,
            rng.stream(seed, "diagnose", case_id, n, "better"),
        )
        report.loss_ratio_alpha = alpha
        report.loss_ratio_prob = loss_ratio_prob(
            procs[0], procs[1], scenario, n, SplitSchedule.parse("ratio:5:5"),
            reps, alpha, rng.stream(seed, "diagnose", case_id, n, "loss-ratio"),
        )
    return report
