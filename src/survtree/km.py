"""Weighted Kaplan-Meier survival curves for leaf summaries and export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .influence import event_table


@dataclass(frozen=True)
class KMCurve:
    """Product-limit survival curve.

    `steps` holds one (time, survival) pair per distinct event time, i.e. the
    value of the right-continuous step function just after each drop; the
    curve is 1.0 before the first event time. `median` is the smallest step
    time with survival <= 0.5, or None if the curve never reaches 0.5.
    """

    steps: tuple[tuple[float, float], ...]
    n_effective: float
    events: float

    @property
    def median(self) -> float | None:
        for t, s in self.steps:
            if s <= 0.5:
                return t
        return None

    def survival_at(self, t: float) -> float:
        out = 1.0
        for st, s in self.steps:
            if st <= t:
                out = s
            else:
                break
        return out


def km_estimate(
    time: np.ndarray, event: np.ndarray, weights: np.ndarray | None = None
) -> KMCurve:
    """Weighted Kaplan-Meier estimate S(t) = prod_{s <= t} (1 - d(s)/R(s)).

    Uses the same events-before-censoring tie convention as the log-rank
    scores. Requires positive total weight.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    if weights is None:
        weights = np.ones_like(time)
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise DataError("case weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise DataError("total case weight is zero")

    ev_times, d, r = event_table(time, event, weights)
    surv = np.cumprod(1.0 - d / r)
    steps = tuple((float(t), float(s)) for t, s in zip(ev_times, surv))
    return KMCurve(steps=steps, n_effective=float(total), events=float(d.sum()))
