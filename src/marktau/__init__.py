"""Mark-specific treatment effects on right-censored failure times.

Estimation localizes IPCW-weighted failure times at a continuous mark with a
kernel; inference on the resulting curve uses Gaussian multiplier
resampling. A seed-driven Monte Carlo engine reproduces the bundled
simulation study.
"""

from .data_model import (
    DataError,
    Dataset,
    MarkInterval,
    ScalingRecord,
    Sidecar,
    ValidationReport,
    Violation,
    apply_mark_scaling,
    drop_incomplete_rows,
    parse_dataset,
    parse_sidecar,
    scale_marks,
    serialize_dataset,
    validate,
)
from .estimator import (
    EstimateGrid,
    EstimationError,
    EvaluationGrid,
    estimate_on_grid,
    ipcw_mean_difference,
    ipcw_weights,
    normal_quantile,
)
from .inference import (
    InferenceError,
    TestConfig,
    TestResult,
    constancy_resample,
    constancy_statistic,
    critical_value,
    global_resample,
    global_statistic,
    multiplier_draws,
    p_value,
    pair_variance_table,
    run_test,
)
from .kernels import (
    Bandwidth,
    KernelError,
    epanechnikov,
    rule_of_thumb_bandwidth,
    scaled_kernel,
)
from .km import StepSurvival, fit_censoring_km
from .simulation import (
    MetricsTable,
    PowerTable,
    Scenario,
    SimulationError,
    calibrate_censoring,
    control_curve,
    generate_dataset,
    rejection_rate,
    resolve_censoring,
    run_replications,
    size_power_curve,
    treated_curve,
    true_tau,
    truncated_std_normal,
)

__version__ = "0.1.0"
