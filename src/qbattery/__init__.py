"""Charging dynamics of a driven two-qubit quantum battery in a lossy cavity."""

__version__ = "0.1.0"

from .model import DressedFrame, SystemParams, dressed_frame, validate
from .dynamics import (AmplitudeTrajectory, IntegrationError, KernelParams,
                       TimeGrid, default_grid, equal_frequency_trajectory,
                       general_trajectory, kernel_params, survival_amplitude)
from .oracle import DiscretizedBath, build_bath, propagate
from .metrics import (Extremum, MetricsSeries, battery_hamiltonian,
                      compute_metrics, ergotropy_closed, ergotropy_spectral,
                      maxima)
from .sweep import (FIGURES, SweepPointError, SweepResult, SweepRow, SweepSpec,
                    figure_pipeline, run_sweep, write_sweep_csv)

__all__ = [
    "AmplitudeTrajectory", "DiscretizedBath", "DressedFrame", "Extremum",
    "FIGURES", "IntegrationError", "KernelParams", "MetricsSeries",
    "SweepPointError", "SweepResult", "SweepRow", "SweepSpec",
    "SystemParams", "TimeGrid", "battery_hamiltonian", "build_bath",
    "compute_metrics", "default_grid", "dressed_frame",
    "equal_frequency_trajectory", "ergotropy_closed", "ergotropy_spectral",
    "figure_pipeline", "general_trajectory", "kernel_params", "maxima",
    "propagate", "run_sweep", "survival_amplitude", "validate",
    "write_sweep_csv", "__version__",
]
