"""Exception hierarchy shared across the package."""


class CvArbiterError(Exception):
    """Base class for all package-specific errors."""


class UnknownFunction(CvArbiterError):
    """A scenario id names no known scenario."""


class RankDeficient(CvArbiterError):
    """Too few distinct design points to identify the fit."""


class SampleTooSmall(CvArbiterError):
    """The (sub)sample is below an estimator's minimum size."""


class DegenerateDenominator(CvArbiterError):
    """No GCV grid point has a usable denominator (trace >= n everywhere)."""


class BandwidthTooSmall(CvArbiterError):
    """Automatic bandwidth search found no workable bandwidth."""


class NonFinitePrediction(CvArbiterError):
    """A prediction function returned a non-finite value."""


class ExhaustiveTooLarge(CvArbiterError):
    """The number of enumerated splits exceeds the hard cap."""


class AllProceduresFailed(CvArbiterError):
    """Every candidate procedure was disqualified on this sample."""


class OverflowRisk(CvArbiterError):
    """Exact binomial coefficients would overflow double precision."""


class DegenerateRisk(CvArbiterError):
    """A risk estimate of exactly zero makes the probe undefined."""


class EmptySelection(CvArbiterError):
    """A requested plot panel has no rows to draw."""


class ConfigError(CvArbiterError):
    """An experiment configuration failed validation."""


class ParseError(CvArbiterError):
    """A data file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
