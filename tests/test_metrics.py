"""Metric definitions checked against hand values and brute-force re-computation."""

import math

import numpy as np
import pytest

from corpus_eta.errors import ValidationError
from corpus_eta.metrics import MetricReport, evaluate, mape, r2, sape, signed_sape


# independent references: plain loops and exact summation, no shared code path

def mape_oracle(actual, predicted):
    terms = [abs(a - p) / a for a, p in zip(actual, predicted)]
    return math.fsum(terms) / len(terms) * 100.0


def r2_oracle(actual, predicted):
    mean = math.fsum(actual) / len(actual)
    ss_tot = math.fsum((a - mean) ** 2 for a in actual)
    ss_res = math.fsum((a - p) ** 2 for a, p in zip(actual, predicted))
    return 1.0 - ss_res / ss_tot


def sape_oracle(actual, predicted):
    total_a = math.fsum(actual)
    total_p = math.fsum(predicted)
    return abs(total_a - total_p) / total_a * 100.0


class TestHandValues:
    def test_mape_perfect(self):
        assert mape([3.0, 7.0], [3.0, 7.0]) == 0.0

    def test_mape_single_pair(self):
        assert mape([10.0], [12.0]) == 20.0

    def test_mape_two_pairs(self):
        assert mape([10.0, 10.0], [5.0, 15.0]) == 50.0

    def test_r2_perfect(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        assert r2([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0

    def test_r2_worse_than_mean_is_negative(self):
        # by hand: residual squares 1+4+9=14, total squares 2, 1 - 14/2 = -6
        assert r2([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == -6.0

    def test_sape_perfect(self):
        assert sape([4.0, 9.0], [4.0, 9.0]) == 0.0

    def test_sape_hand_value(self):
        # |20 - 21| / 20 * 100
        assert sape([10.0, 10.0], [9.0, 12.0]) == 5.0

    def test_sape_cancels_opposite_errors(self):
        assert sape([10.0, 10.0], [13.0, 7.0]) == 0.0

    def test_signed_sape_is_negative_when_low(self):
        # (21 - 20) / 20 * 100 and (18 - 20) / 20 * 100
        assert signed_sape([10.0, 10.0], [9.0, 12.0]) == 5.0
        assert signed_sape([10.0, 10.0], [9.0, 9.0]) == -10.0


class TestBruteForceAgreement:
    def test_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            a = rng.uniform(0.1, 100.0, size=n)
            p = rng.uniform(-10.0, 120.0, size=n)
            assert mape(a, p) == pytest.approx(mape_oracle(a, p), rel=1e-12)
            assert sape(a, p) == pytest.approx(sape_oracle(a, p), rel=1e-12)
            assert sape(a, p) == abs(signed_sape(a, p))
            if n >= 2:
                assert r2(a, p) == pytest.approx(r2_oracle(a, p), rel=1e-12, abs=1e-12)


class TestProperties:
    def test_sape_bounded_by_mean_relative_error_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            a = rng.uniform(0.5, 50.0, size=n)
            p = rng.uniform(0.0, 60.0, size=n)
            bound = float(np.sum(np.abs(a - p))) / float(np.sum(a)) * 100.0
            assert sape(a, p) <= bound * (1.0 + 1e-12) + 1e-12

    def test_sape_equals_bound_when_errors_share_sign(self):
        a = np.array([3.0, 5.0, 9.0])
        p = a + np.array([0.5, 1.5, 2.0])
        bound = float(np.sum(np.abs(a - p))) / float(np.sum(a)) * 100.0
        assert sape(a, p) == pytest.approx(bound, rel=1e-12)

    def test_scale_invariance_power_of_two(self):
        a = np.array([1.5, 2.25, 8.0, 3.5])
        p = np.array([1.0, 3.0, 7.5, 4.25])
        assert mape(4.0 * a, 4.0 * p) == mape(a, p)
        assert sape(4.0 * a, 4.0 * p) == sape(a, p)
        assert r2(4.0 * a, 4.0 * p) == r2(a, p)

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(1.0, 20.0, size=12)
        p = rng.uniform(1.0, 20.0, size=12)
        for alpha in (3.0, 0.037, 1234.5):
            assert mape(alpha * a, alpha * p) == pytest.approx(mape(a, p), rel=1e-12)
            assert sape(alpha * a, alpha * p) == pytest.approx(sape(a, p), rel=1e-12)
            assert r2(alpha * a, alpha * p) == pytest.approx(r2(a, p), rel=1e-12)

    def test_metrics_are_nonnegative(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.1, 10.0, size=8)
        p = rng.uniform(-5.0, 15.0, size=8)
        assert mape(a, p) >= 0.0
        assert sape(a, p) >= 0.0


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mape([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            r2([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            sape([1.0, 2.0], [1.0])

    def test_mape_empty(self):
        with pytest.raises(ValidationError):
            mape([], [])

    def test_mape_rejects_zero_actual(self):
        with pytest.raises(ValidationError):
            mape([1.0, 0.0], [1.0, 1.0])

    def test_mape_rejects_negative_actual(self):
        with pytest.raises(ValidationError):
            mape([1.0, -2.0], [1.0, 1.0])

    def test_r2_needs_two_points(self):
        with pytest.raises(ValidationError):
            r2([1.0], [1.0])

    def test_r2_rejects_constant_actual(self):
        with pytest.raises(ValidationError):
            r2([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])

    def test_sape_empty_means_nothing_remaining(self):
        with pytest.raises(ValidationError, match="full completion"):
            sape([], [])

    def test_sape_requires_positive_total(self):
        with pytest.raises(ValidationError):
            sape([0.0, 0.0], [1.0, 1.0])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValidationError):
            mape([[1.0, 2.0]], [[1.0, 2.0]])


class TestEvaluate:
    def test_bundles_all_three(self):
        a = [10.0, 20.0]
        p = [9.0, 12.0]
        report = evaluate(a, p)
        assert isinstance(report, MetricReport)
        assert report.mape == mape(a, p)
        assert report.r2 == r2(a, p)
        assert report.sape == sape(a, p)
        assert report.n == 2
        assert report.signed_sape == signed_sape(a, p) == -30.0

    def test_constant_actual_reports_nan_r2(self):
        report = evaluate([5.0, 5.0], [4.0, 6.0])
        assert math.isnan(report.r2)
        assert report.sape == 0.0
        assert report.mape == 20.0
