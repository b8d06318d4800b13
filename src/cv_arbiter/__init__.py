"""Cross-validation based selection among competing regression
procedures, plus the Monte Carlo laboratory for studying how the
data-splitting ratio drives selection consistency."""

from .diagnostics import (
    DiagnosticsReport,
    better_prob,
    condition_scales,
    empirical_norm,
    loss_ratio_prob,
    rate_slope,
)
from .errors import CvArbiterError
from .estimators import (
    FittedModel,
    ProcedureSpec,
    fit_local_linear,
    fit_mean_model,
    fit_polynomial,
    fit_procedure,
    fit_smoothing_spline,
    gcv_profile,
)
from .harness import (
    ExperimentConfig,
    FrequencyTable,
    reproduce_case,
    run_experiment,
    select_from_csv,
)
from .nested_mean import (
    NestedMeanInstance,
    brute_force_multifold,
    closed_cv_pair,
    f_reference_prob,
    normalized_cv_diff,
    selection_prob,
)
from .plots import emit_plot
from .rng import stream
from .scenarios import (
    Sample,
    Scenario,
    gen_sample,
    register_scenario,
    residuals,
    resolve_scenario,
    true_f,
)
from .selection import (
    SelectionOutcome,
    cv_criterion,
    run_selection,
)
from .splits import SelectionScheme, SplitSchedule, make_splits

__version__ = "0.1.0"
