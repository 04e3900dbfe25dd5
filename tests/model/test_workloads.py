"""Tests pinning Appendix A.2's published numbers."""

import pytest

from repro.model import FFT, PAPER_FFT_TABLE, PAPER_STENCIL_GAMMAS, STENCIL
from repro.model.workloads import PAPER_STENCIL_ETAS


class TestFFT:
    """A.2.1 — the self-consistent example: γ and η both reproduce."""

    @pytest.mark.parametrize("theta", [1, 2, 8])
    def test_published_gammas(self, theta):
        published, _ = PAPER_FFT_TABLE[theta]
        assert FFT.gamma_us_per_mb(theta) == pytest.approx(published, rel=1e-4)

    @pytest.mark.parametrize("theta", [1, 2, 8])
    def test_published_etas(self, theta):
        _, published = PAPER_FFT_TABLE[theta]
        assert FFT.eta(8, theta) == pytest.approx(published, abs=1e-3)

    def test_parameters_from_paper(self):
        assert FFT.ai == 5.0
        assert FFT.ci == 1.0
        assert FFT.delta == 0.0
        assert FFT.epsilon == 0.04


class TestStencil:
    """A.2.2 — γ values reproduce from Eq. (9); the published η values
    require the doubled γ·β term (paper inconsistency, see the
    "Known paper inconsistency" section of ``repro.model.workloads``)."""

    @pytest.mark.parametrize("theta", [1, 2, 8])
    def test_published_gammas(self, theta):
        published = PAPER_STENCIL_GAMMAS[theta]
        assert STENCIL.gamma_us_per_mb(theta) == pytest.approx(
            published, rel=2e-3
        )

    @pytest.mark.parametrize("theta", [1, 2, 8])
    def test_published_etas_with_doubled_term(self, theta):
        published = PAPER_STENCIL_ETAS[theta]
        assert STENCIL.eta_as_published_stencil(8, theta) == pytest.approx(
            published, abs=2e-3
        )

    @pytest.mark.parametrize("theta", [1, 2, 8])
    def test_eq4_etas_differ_from_published(self, theta):
        """Documents the inconsistency: strict Eq. (4) does NOT give the
        published stencil gains."""
        strict = STENCIL.eta(8, theta)
        published = PAPER_STENCIL_ETAS[theta]
        assert abs(strict - published) > 0.01

    def test_ci_formula(self):
        assert STENCIL.ci == pytest.approx((66 / 64) ** 3 - 1)

    def test_stencil_more_imbalanced_than_fft(self):
        assert STENCIL.delta > FFT.delta


class TestWorkloadGeneric:
    def test_gamma_unit_conversion(self):
        # γ in µs/MB = γ_SI × 1e12.
        assert FFT.gamma_us_per_mb(1) == pytest.approx(FFT.gamma(1) * 1e12)

    def test_eta_monotone_in_theta(self):
        etas = [FFT.eta(8, t) for t in (1, 2, 4, 8)]
        assert etas == sorted(etas)

    def test_mu_positive(self):
        assert FFT.mu > 0 and STENCIL.mu > 0

    def test_stencil_slower_compute_rate_than_fft(self):
        """AI/CI is lower for the stencil... actually the stencil's
        AI/CI = (1/13)/0.0967 ≈ 0.80 < FFT's 5.0, so its µ is smaller."""
        assert STENCIL.mu < FFT.mu
