"""Evaluation metrics, all computed in linear seconds (never log space).

MAPE and R^2 grade per-task predictions; the sum absolute percentage error
(SAPE) grades the aggregate: the absolute error of the summed prediction
over the remaining tasks, as a percentage of the summed actual time. The
signed SAPE keeps the error's sign, negative when the prediction runs low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class MetricReport:
    mape: float  # percent
    r2: float    # may be negative; NaN when the actuals are constant
    sape: float  # percent
    n: int       # tasks evaluated
    signed_sape: float  # percent; negative when the prediction runs low


def _pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise ValidationError(
            f"actual and predicted must be equal-length 1-D, got {a.shape} vs {p.shape}")
    return a, p


def mape(actual, predicted) -> float:
    """Mean absolute percentage error over per-task predictions, in percent."""
    a, p = _pair(actual, predicted)
    if a.size < 1:
        raise ValidationError("mape needs at least one pair")
    if not (a > 0.0).all():
        raise ValidationError("mape requires strictly positive actual values")
    return float(np.mean(np.abs(a - p) / a)) * 100.0


def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot about the actual mean."""
    a, p = _pair(actual, predicted)
    if a.size < 2:
        raise ValidationError("r2 needs at least two pairs")
    mean_a = math.fsum(a.tolist()) / a.size
    ss_tot = math.fsum(((a - mean_a) ** 2).tolist())
    if ss_tot == 0.0:
        raise ValidationError("r2 undefined: actual values have zero variance")
    ss_res = math.fsum(((a - p) ** 2).tolist())
    return 1.0 - ss_res / ss_tot


def signed_sape(actual_remaining, predicted_remaining) -> float:
    """Percentage error of the aggregated remaining time, predicted minus actual."""
    a, p = _pair(actual_remaining, predicted_remaining)
    if a.size == 0:
        raise ValidationError("SAPE undefined at full completion")
    # The two totals usually agree to several digits, so their difference is
    # all cancellation; exact summation keeps it meaningful.
    total_actual = math.fsum(a.tolist())
    if not total_actual > 0.0:
        raise ValidationError("sape requires a positive actual total")
    return (math.fsum(p.tolist()) - total_actual) / total_actual * 100.0


def sape(actual_remaining, predicted_remaining) -> float:
    """Absolute percentage error of the aggregated remaining time, in percent."""
    return abs(signed_sape(actual_remaining, predicted_remaining))


def evaluate(actual, predicted) -> MetricReport:
    """All three metrics over the remaining-task set.

    R^2 is undefined on constant actuals (possible on degenerate corpora);
    it is reported as NaN there so the sweep can still proceed.
    """
    a, p = _pair(actual, predicted)
    try:
        r2_val = r2(a, p)
    except ValidationError:
        r2_val = float("nan")
    signed = signed_sape(a, p)
    return MetricReport(mape=mape(a, p), r2=r2_val, sape=abs(signed), n=int(a.size),
                        signed_sape=signed)
