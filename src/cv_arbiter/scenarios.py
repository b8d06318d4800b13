"""Data-generating scenarios: true regression functions, noise, design.

A :class:`Scenario` couples a true function with a noise level and a
design distribution, and records which candidate procedure is known to
be the best for it.  Samples are drawn through :mod:`cv_arbiter.rng`
streams so that generation is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import rng
from .errors import UnknownFunction


class FunctionId(str, Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    MEAN_MODEL = "mean"
    CUSTOM = "custom"


# Registry of callables backing FunctionId.CUSTOM scenarios.
_CUSTOM_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {}


def register_function(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Register a vectorized true function usable via ``custom_id=name``."""
    _CUSTOM_FUNCTIONS[name] = fn


@dataclass(frozen=True)
class Scenario:
    """A data-generating process.

    ``best`` is the id of the procedure known to be best for this
    scenario (``"poly:1"``, ``"spline"``, ...), looked up by name in a
    run's candidate list; None when no procedure is known to be best.
    """

    function_id: FunctionId
    params: tuple = ()
    sigma: float = 0.3
    design: str = "uniform-unit"
    best: str | None = None
    custom_id: str | None = None

    def __post_init__(self):
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.design != "uniform-unit":
            raise ValueError(f"unsupported design: {self.design}")
        if self.function_id is FunctionId.MEAN_MODEL and len(self.params) != 1:
            raise ValueError("mean-model scenario needs exactly one parameter")


@dataclass(frozen=True)
class Sample:
    """Observed (x, y) pairs; immutable after construction."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
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
    xv = np.asarray(x, dtype=float)
    fid = scenario.function_id
    if fid is FunctionId.CASE1:
        out = 1.0 + xv
    elif fid is FunctionId.CASE2:
        out = 1.0 + xv + 0.7 * (xv - 0.5) ** 2
    elif fid is FunctionId.CASE3:
        out = 1.0 + xv - np.exp(-200.0 * (xv - 0.25) ** 2)
    elif fid is FunctionId.MEAN_MODEL:
        out = np.full_like(xv, float(scenario.params[0]))
    elif fid is FunctionId.CUSTOM:
        fn = _CUSTOM_FUNCTIONS.get(scenario.custom_id or "")
        if fn is None:
            raise UnknownFunction(f"custom function not registered: {scenario.custom_id!r}")
        out = np.asarray(fn(xv), dtype=float)
    else:  # pragma: no cover - enum is closed
        raise UnknownFunction(str(fid))
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


# --- scenario registry -------------------------------------------------------

_SCENARIOS: dict[str, Scenario] = {
    "case1": Scenario(FunctionId.CASE1, sigma=0.3, best="poly:1"),
    "case2": Scenario(FunctionId.CASE2, sigma=0.3, best="poly:2"),
    "case3": Scenario(FunctionId.CASE3, sigma=0.3, best="spline"),
}


def register_scenario(name: str, scenario: Scenario) -> None:
    """Make a scenario addressable by id in configs and CLI flags."""
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
        return Scenario(
            FunctionId.MEAN_MODEL,
            params=(mu,),
            sigma=0.3,
            best="zero" if mu == 0.0 else "mean",
        )
    raise UnknownFunction(f"unknown scenario id: {text!r}")
