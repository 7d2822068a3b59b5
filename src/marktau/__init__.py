"""Mark-specific treatment effects on right-censored failure times.

Estimation localizes IPCW-weighted failure times at a continuous mark with a
kernel; inference on the resulting curve uses Gaussian multiplier
resampling. A seed-driven Monte Carlo engine reproduces the bundled
simulation study. The names below are the documented API; everything else
lives in its submodule.
"""

from .data_model import DataError, Dataset, MarkInterval, parse_dataset
from .estimator import EstimationError, EvaluationGrid, estimate_on_grid
from .inference import InferenceError, run_test
from .kernels import KernelError
from .simulation import Scenario, SimulationError, run_replications, size_power_curve

__all__ = [
    "Dataset",
    "parse_dataset",
    "MarkInterval",
    "EvaluationGrid",
    "estimate_on_grid",
    "run_test",
    "Scenario",
    "run_replications",
    "size_power_curve",
    "DataError",
    "EstimationError",
    "InferenceError",
    "KernelError",
    "SimulationError",
]

__version__ = "0.1.0"
