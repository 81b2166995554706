"""Quantitative shape analysis for complexity measurements.

The reproduction's benchmark claims are about *shapes* — rounds growing
linearly in ``Delta`` (E1, E2), logarithmically (E3, E10), or staying flat
in ``n`` (E2).  This module turns those eyeball judgements into numbers:
least-squares fits against linear and logarithmic models plus a simple
classifier, used by the benches and tests to assert the measured growth
class rather than individual values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Fit", "fit_linear", "fit_log", "classify_growth"]


@dataclass(frozen=True)
class Fit:
    """A least-squares fit ``y ~ slope * f(x) + intercept``.

    ``r_squared`` is the coefficient of determination of the fit (1 = the
    model explains the data perfectly; constant data is reported as 1 for a
    zero-slope model since the residuals vanish).
    """

    slope: float
    intercept: float
    r_squared: float

    def predict(self, fx: float) -> float:
        """Model value at the (already transformed) abscissa ``fx``."""
        return self.slope * fx + self.intercept


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> Fit:
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return Fit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> Fit:
    """Fit ``y ~ a*x + b``."""
    return _least_squares(xs, ys)


def fit_log(xs: Sequence[float], ys: Sequence[float]) -> Fit:
    """Fit ``y ~ a*log2(x) + b`` (requires positive ``x``)."""
    if any(x <= 0 for x in xs):
        raise ValueError("logarithmic fit needs positive x values")
    return _least_squares([math.log2(x) for x in xs], ys)


def classify_growth(xs: Sequence[float], ys: Sequence[float]) -> str:
    """Classify a measured curve as ``"flat"``, ``"logarithmic"`` or ``"linear"``.

    Heuristic suited to the benches' small series: near-zero relative slope
    means flat; otherwise the better-fitting of the linear and logarithmic
    models wins (ties go to logarithmic, the more conservative claim).
    Returns one of the three labels.
    """
    lin = fit_linear(xs, ys)
    y_span = max(ys) - min(ys)
    y_scale = max(abs(v) for v in ys) or 1.0
    if y_span <= 0.15 * y_scale:
        return "flat"
    log = fit_log(xs, ys)
    if lin.r_squared > log.r_squared:
        return "linear"
    return "logarithmic"
