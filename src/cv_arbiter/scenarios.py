"""Data-generating scenarios: true regression functions and noise.

A :class:`Scenario` couples a true function with a noise level and
records which candidate procedure is known to be the best for it.
Samples are drawn through :mod:`cv_arbiter.rng` streams so that
generation is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import rng
from .errors import UnknownFunction


@dataclass(frozen=True)
class Scenario:
    """A data-generating process: y = f(x) + sigma * z, x ~ Uniform(0, 1).

    ``f`` is any vectorized function of an x array; the built-in ones
    are module-level functions or partials of them, so scenarios pickle.
    ``best`` is the id of the procedure known to be best for this
    scenario (``"poly:1"``, ``"spline"``, ...), looked up by name in a
    run's candidate list; None when no procedure is known to be best.
    """

    f: Callable[[np.ndarray], np.ndarray]
    sigma: float = 0.3
    best: str | None = None

    def __post_init__(self):
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class Sample:
    """Observed (x, y) pairs, held as read-only copies of the arrays given."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y) or len(x) < 1:
            raise ValueError("x and y must be 1-d arrays of equal length >= 1")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("sample contains non-finite values")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.x)


def true_f(scenario: Scenario, x):
    """Evaluate the scenario's true regression function.

    Accepts a scalar or an array; returns the matching shape.
    """
    out = np.asarray(scenario.f(np.asarray(x, dtype=float)), dtype=float)
    return out if np.ndim(x) else float(out)


def gen_sample(scenario: Scenario, n: int, stream: np.random.Generator) -> Sample:
    """Draw n i.i.d. observations: x ~ Uniform(0,1), y = f(x) + sigma * z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = rng.uniforms(stream, n)
    z = rng.normals(stream, n)
    y = true_f(scenario, x) + scenario.sigma * z
    return Sample(x=x, y=y)


def residuals(scenario: Scenario, sample: Sample) -> np.ndarray:
    """Recover the noise vector y - f(x) under the generating scenario."""
    return sample.y - true_f(scenario, sample.x)


# --- the scenario table ------------------------------------------------------


def _case1(x):
    return 1.0 + x


def _case2(x):
    return 1.0 + x + 0.7 * (x - 0.5) ** 2


def _case3(x):
    return 1.0 + x - np.exp(-200.0 * (x - 0.25) ** 2)


def _constant(mu, x):
    return np.full_like(x, mu)


_SCENARIOS: dict[str, Scenario] = {
    "case1": Scenario(_case1, sigma=0.3, best="poly:1"),
    "case2": Scenario(_case2, sigma=0.3, best="poly:2"),
    "case3": Scenario(_case3, sigma=0.3, best="spline"),
}


def register_scenario(name: str, scenario: Scenario) -> None:
    """Make a scenario addressable by id; raise ValueError for a taken id."""
    if name in _SCENARIOS:
        raise ValueError(f"scenario id already registered: {name!r}")
    _SCENARIOS[name] = scenario


def resolve_scenario(text: str) -> Scenario:
    """Resolve a scenario id: "case1", "case2", "case3" or "mean(mu)"."""
    key = text.strip()
    if key in _SCENARIOS:
        return _SCENARIOS[key]
    if key.startswith("mean(") and key.endswith(")"):
        try:
            mu = float(key[5:-1])
        except ValueError:
            raise UnknownFunction(f"bad mean-model parameter in {text!r}") from None
        return Scenario(partial(_constant, mu), sigma=0.3, best="zero" if mu == 0.0 else "mean")
    raise UnknownFunction(f"unknown scenario id: {text!r}")
