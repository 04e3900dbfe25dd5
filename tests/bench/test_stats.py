"""Tests for the paper's measurement statistics."""

import math

import pytest

from repro.bench import needs_rerun, summarize
from repro.bench.stats import _t_critical

#: Confidences the quantile is checked at (the paper uses 0.90).
CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


class TestSummarize:
    def test_constant_samples(self):
        s = summarize([2.0] * 10)
        assert s.mean == 2.0
        assert s.std == 0.0
        assert s.ci_half == 0.0
        assert s.relative_ci == 0.0

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.n == 1 and s.mean == 5.0 and s.ci_half == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_mean_and_extremes(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0

    def test_ci_uses_student_t(self):
        """For n=5, 90 % CI: t(0.95, df=4) = 2.1318."""
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        s = summarize(samples)
        std = math.sqrt(2.5)
        expected = 2.131846786 * std / math.sqrt(5)
        assert s.ci_half == pytest.approx(expected, rel=1e-6)

    def test_ci_shrinks_with_samples(self):
        wide = summarize([1.0, 3.0] * 3)
        narrow = summarize([1.0, 3.0] * 50)
        assert narrow.ci_half < wide.ci_half

    def test_custom_confidence(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        s90 = summarize(samples, confidence=0.90)
        s99 = summarize(samples, confidence=0.99)
        assert s99.ci_half > s90.ci_half


class TestRerunRule:
    def test_tight_run_accepted(self):
        s = summarize([1.0, 1.001, 0.999, 1.0, 1.0])
        assert not needs_rerun(s)

    def test_noisy_run_rejected(self):
        s = summarize([1.0, 3.0, 0.2, 2.5, 0.6])
        assert needs_rerun(s)

    def test_exact_threshold(self):
        """The rule is strictly 'greater than 5 %'."""
        s = summarize([2.0] * 10)
        assert not needs_rerun(s)  # 0 % CI

    def test_custom_fraction(self):
        s = summarize([1.0, 1.2, 0.8, 1.1, 0.9])
        assert needs_rerun(s, ci_fraction=0.01)
        assert not needs_rerun(s, ci_fraction=0.5)


class TestStudentTQuantile:
    """The stdlib quantile against scipy and the closed forms."""

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for df in range(1, 1001):
            for c in CONFIDENCES:
                expected = float(stats.t.ppf(0.5 + c / 2, df))
                err = abs(_t_critical(df, c) - expected) / expected
                assert err <= 1e-12, (df, c, err)

    @pytest.mark.parametrize("c", CONFIDENCES)
    def test_closed_forms(self, c):
        """df = 1 is Cauchy; df = 2 has t = c·√(2/(1−c²))."""
        cauchy = math.tan(math.pi * c / 2)
        assert _t_critical(1, c) == pytest.approx(cauchy, rel=1e-12, abs=0)
        df2 = c * math.sqrt(2 / (1 - c * c))
        assert _t_critical(2, c) == pytest.approx(df2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("df", [0, -1, 2.0, 2.5, True, None])
    def test_invalid_df_rejected(self, df):
        with pytest.raises(ValueError):
            _t_critical(df, 0.9)


class TestConfidenceValidation:
    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.1, float("nan")])
    def test_out_of_range_rejected(self, confidence):
        """A nan half-width would silently pass the 5 % rerun rule."""
        with pytest.raises(ValueError, match="confidence"):
            summarize([1.0, 2.0, 3.0], confidence=confidence)

    def test_rejected_even_without_spread(self):
        with pytest.raises(ValueError, match="confidence"):
            summarize([2.0] * 4, confidence=1.5)
        with pytest.raises(ValueError, match="confidence"):
            summarize([2.0], confidence=0.0)
