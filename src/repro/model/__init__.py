"""Analytic performance models of the paper (§2.2 and Appendix A).

Beyond the paper's closed forms, :mod:`repro.model.approaches` and
:mod:`repro.model.patterns` cover every registered benchmark approach
and application pattern, powering the analytic execution backend
(:mod:`repro.backends.analytic`).  :mod:`repro.model.vector`
re-expresses the two scalar predictors over columns for campaign
chunks, bit for bit.
"""

from .approaches import BenchPrediction, predict_bench_time
from .delay import delay_time, gamma_theta, mu_rate, sigma_noise
from .patterns import PatternPrediction, predict_pattern_time
from .pipeline import (
    crossover_bytes,
    eta_large,
    eta_small,
    gamma_from_us_per_mb,
    gamma_to_us_per_mb,
    t_bulk,
    t_pipelined,
)
from .workloads import (
    FFT,
    PAPER_FFT_TABLE,
    PAPER_STENCIL_GAMMAS,
    STENCIL,
    Workload,
)

__all__ = [
    "t_bulk",
    "t_pipelined",
    "eta_large",
    "eta_small",
    "crossover_bytes",
    "gamma_from_us_per_mb",
    "gamma_to_us_per_mb",
    "mu_rate",
    "sigma_noise",
    "gamma_theta",
    "delay_time",
    "Workload",
    "FFT",
    "STENCIL",
    "PAPER_FFT_TABLE",
    "PAPER_STENCIL_GAMMAS",
    "BenchPrediction",
    "predict_bench_time",
    "PatternPrediction",
    "predict_pattern_time",
]
