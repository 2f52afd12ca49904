"""Sigmoid objective shifting: the mixture weight lambda(t).

lambda(t) = 1 / (1 + exp(-k * (t - t0))) climbs from recall-dominant to
target-dominant.  k = 0 is admitted and gives the constant multi-task
mixture 1/2; very large k underflows to exact 0/1 in float64, recovering
plain fine-tuning from step t0 + 1 onward.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AnnealSchedule:
    k: float
    t0: int

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"annealing rate k must be finite and >= 0, got {self.k}")
        if self.t0 < 0:
            raise ValueError(f"annealing midpoint t0 must be >= 0, got {self.t0}")


def lambda_at(sched: AnnealSchedule, t: int) -> float:
    """Mixture weight at optimizer step t >= 1 (post-increment counter)."""
    if t < 1:
        raise ValueError(f"lambda(t) needs t >= 1, got {t}")
    z = sched.k * (t - sched.t0)
    # branch on the sign so exp never overflows
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def composite_loss(lambda_t, loss_t, loss_s):
    """Convex combination lambda * loss_t + (1 - lambda) * loss_s, of floats or, element by
    element, of arrays.  Trace logging only; gradient flow happens inside the steppers."""
    if not np.all((0.0 <= lambda_t) & (lambda_t <= 1.0)):  # a NaN fails
        raise ValueError(f"lambda_t must lie in [0, 1], got {lambda_t}")
    with np.errstate(all="ignore"):  # silent, as float arithmetic is: 0 * inf is NaN
        return lambda_t * loss_t + (1.0 - lambda_t) * loss_s
