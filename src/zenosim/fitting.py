"""Small least-squares helpers for convergence-rate and decay-rate fits."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x).

    Used for convergence-order fits: an error decaying like C/x gives a
    slope of -1.
    """
    return loglog_fit(x, y)[0]


def loglog_fit(x, y) -> tuple[float, float]:
    """Slope and intercept of the log-log least-squares line."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValidationError("need at least two matching samples for a slope fit")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("log-log fit requires strictly positive data")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)
