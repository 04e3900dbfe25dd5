"""The numerical workloads of Appendix A.2 with the paper's published values.

Two application models parameterize the delay-rate formula:

* **Distributed FFT** (A.2.1): AI ≈ 5, CI = 1, δ = 0, ε = 0.04.
* **3-D finite-difference stencil** (A.2.2): one 64³ block with two ghost
  layers → CI = (66/64)³ − 1 ≈ 0.1, AI ≈ 1/13 (4th order), δ = 0.5,
  ε = 0.04.

The CPU frequency is not stated in the paper; F = 3.5 GHz reproduces the
published FFT γ values exactly (and is a plausible boost clock for the
EPYC 7H12 testbed).

Known paper inconsistency
-------------------------
The published *stencil* gains (η = 1.1060/1.1718/1.2169) do not follow
from Eq. (4) with the published γ values; they match Eq. (4) only when
the ``γ·β`` term is doubled — i.e. as if σ = ε + δ had been used instead
of σ = (ε + δ)/2.  The FFT example is self-consistent.  We expose both:
:meth:`Workload.eta` (Eq. 4, exact) and
:meth:`Workload.eta_as_published_stencil` (doubled term).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .delay import gamma_theta, mu_rate
from .pipeline import eta_large

__all__ = ["Workload", "FFT", "STENCIL", "PAPER_FFT_TABLE", "PAPER_STENCIL_GAMMAS"]

#: CPU frequency used in the paper's numeric examples (see module doc).
PAPER_FREQUENCY_HZ = 3.5e9
#: Network bandwidth of the testbed (25 GB/s).
PAPER_BETA = 25e9


@dataclass(frozen=True)
class Workload:
    """An application model for the Appendix-A delay-rate analysis."""

    name: str
    ai: float
    ci: float
    epsilon: float
    delta: float
    frequency_hz: float = PAPER_FREQUENCY_HZ

    @property
    def mu(self) -> float:
        """Average compute rate µ (s/B, Eq. 6)."""
        return mu_rate(self.ai, self.ci, self.frequency_hz)

    def gamma(self, theta: int) -> float:
        """Delay rate γ_θ (s/B, Eq. 9)."""
        return gamma_theta(self.mu, theta, self.epsilon, self.delta)

    def gamma_us_per_mb(self, theta: int) -> float:
        """γ_θ in the paper's µs/MB units."""
        return self.gamma(theta) * 1e12

    def eta(self, n_threads: int, theta: int, beta: float = PAPER_BETA) -> float:
        """Pipelining gain η from Eq. (4)."""
        return eta_large(n_threads, theta, beta, self.gamma(theta))

    def eta_as_published_stencil(
        self, n_threads: int, theta: int, beta: float = PAPER_BETA
    ) -> float:
        """Gain with the γ·β term doubled — reproduces the published
        stencil η values (see the module docstring)."""
        return eta_large(n_threads, theta, beta, 2.0 * self.gamma(theta))


def _stencil_ci(block: int = 64, ghosts: int = 2) -> float:
    """CI of a cubic stencil block: ((b+g)/b)³ − 1 for g ghost points."""
    ratio = (block + ghosts) / block
    return ratio**3 - 1.0


#: Distributed FFT (Appendix A.2.1); AI ≈ 5 per Ibeid et al. [7].
FFT = Workload(name="fft", ai=5.0, ci=1.0, epsilon=0.04, delta=0.0)

#: 3-D 4th-order finite-difference stencil (Appendix A.2.2).
STENCIL = Workload(
    name="stencil",
    ai=1.0 / 13.0,
    ci=_stencil_ci(),
    epsilon=0.04,
    delta=0.5,
)

#: Published FFT values: θ -> (γ_θ in µs/MB, η for N=8).
PAPER_FFT_TABLE: Dict[int, Tuple[float, float]] = {
    1: (7.1428, 1.0228),
    2: (187.1936, 1.4134),
    8: (1263.67, 1.9748),
}

#: Published stencil γ values: θ -> γ_θ in µs/MB (N=8).
PAPER_STENCIL_GAMMAS: Dict[int, float] = {
    1: 15.3398,
    2: 46.92385411,
    8: 228.21310932,
}

#: Published stencil gains (N=8); see the module docstring for why these
#: require the doubled γ·β term.
PAPER_STENCIL_ETAS: Dict[int, float] = {1: 1.1060, 2: 1.1718, 8: 1.2169}
