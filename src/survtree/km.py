"""Weighted Kaplan-Meier survival curves for leaf summaries and export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .influence import event_table


@dataclass(frozen=True, eq=False)
class KMCurve:
    """Product-limit survival curve.

    `times` holds the distinct event times in increasing order and
    `survival` the value of the right-continuous step function just after
    each drop; the curve is 1.0 before the first event time. `median` is the
    smallest event time with survival <= 0.5, or None if the curve never
    reaches 0.5. Curves compare by identity: compare `steps` for equal
    values.
    """

    times: np.ndarray
    survival: np.ndarray

    @property
    def steps(self) -> tuple[tuple[float, float], ...]:
        """One (time, survival) pair per distinct event time."""
        return tuple(zip(self.times.tolist(), self.survival.tolist()))

    @property
    def median(self) -> float | None:
        below = np.flatnonzero(self.survival <= 0.5)
        return float(self.times[below[0]]) if below.size else None

    def survival_at(self, t: float) -> float:
        k = np.count_nonzero(self.times <= t)  # event times reached by t
        return float(self.survival[k - 1]) if k else 1.0


def km_estimate(
    time: np.ndarray, event: np.ndarray, weights: np.ndarray | None = None
) -> KMCurve:
    """Weighted Kaplan-Meier estimate S(t) = prod_{s <= t} (1 - d(s)/R(s)).

    Uses the same events-before-censoring tie convention as the log-rank
    scores. Requires positive total weight.
    """
    time = np.asarray(time, dtype=float)
    weights = np.ones_like(time) if weights is None else np.asarray(weights, dtype=float)
    times, d, r = event_table(time, event, weights)
    return KMCurve(times, np.cumprod(1.0 - d / r))
