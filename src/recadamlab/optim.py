"""Optimizer steppers: Adam, AdamW, and the recall-penalty variants.

All steppers are pure functions (theta, state) -> (theta', state') and thin
calls into one update core that checks the inputs once, advances the
moments and returns the adaptive term a = s * m_hat / (sqrt(v_hat) + eps).
The rule is theta' = theta - eta_t * (a + pull): Adam has s = alpha and no
pull; AdamW pulls toward 0 with wd * theta; the decoupled ``recadam_step``
has s = lambda_t * alpha and pulls toward theta* with (1 - lambda_t) *
penalty_grad, at the same rate on every coordinate.  The coupled baseline
runs Adam on lambda_t * grad + (1 - lambda_t) * penalty_grad, so the
moments rescale its penalty by 1/sqrt(v_hat) per coordinate.

Every stepper also advances a stack of runs at once: theta, grad and the
moments are (S, d) arrays, one run per row, and lambda_t may be an (S, 1)
column; each row comes out bit-identical to its own one-run call.

Two floating-point associations stay separate, since merging them changes
the output bits: AdamW computes eta_t * (a + wd * theta), RecAdam eta_t * a
+ eta_t * pull.  With lambda_t == 1.0 (RecAdam, coupled) or weight_decay ==
0.0 (AdamW) every variant reduces bitwise to ``adam_step``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import check_same_length, ensure_finite

STEPPER_KINDS = ("adam", "adamw", "recadam", "recadam-coupled")
SCHEDULE_KINDS = ("constant", "linear-warmup-constant", "linear-warmup-linear-decay")


@dataclass(frozen=True)
class AdamConfig:
    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and > 0")


@dataclass
class AdamState:
    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def fresh(cls, shape: int | tuple) -> "AdamState":
        """Zero moments of the given shape: d for one run, (S, d) for S runs."""
        return cls(t=0, m=np.zeros(shape), v=np.zeros(shape))

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("step counter must be >= 0")
        check_same_length(self.m, self.v)


@dataclass(frozen=True)
class ScheduleMultiplier:
    kind: str = "constant"
    warmup_steps: int = 0
    total_steps: int = 0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind: {self.kind!r}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.kind == "linear-warmup-linear-decay" and self.total_steps <= self.warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps for the decay schedule")


def schedule_multiplier(sched: ScheduleMultiplier, t: int) -> float:
    """Step-size multiplier eta_t in [0, 1] at step t >= 1."""
    if t < 1:
        raise ValueError(f"schedule multiplier needs t >= 1, got {t}")
    if sched.kind == "constant":
        return 1.0
    if sched.warmup_steps > 0 and t < sched.warmup_steps:
        return t / sched.warmup_steps
    if sched.kind == "linear-warmup-constant":
        return 1.0
    return max(0.0, (sched.total_steps - t) / (sched.total_steps - sched.warmup_steps))


def _adaptive_step(theta, state: AdamState, config: AdamConfig, grad,
                   lambda_t=None, penalty_grad=None, coupled=False):
    """The update core: (adaptive term, new state).  lambda_t=None is plain
    Adam; otherwise the recall inputs are checked and mixed in as well."""
    t = state.t + 1
    check_same_length(theta, grad)
    check_same_length(theta, state.m)
    ensure_finite(grad, "gradient", step=t)
    scale = config.alpha
    if lambda_t is not None:
        if penalty_grad is None:
            raise ValueError("penalty_grad is required for the recall variants")
        check_same_length(theta, penalty_grad)
        # lambda is mathematically in (0, 1) but underflows to exact 0.0/1.0 in
        # float64 for large |k (t - t0)|; both closures are admitted
        # a scalar, or a column with one lambda per row of theta; NaN fails both tests
        lambdas = np.asarray(lambda_t)
        if not (0.0 <= lambdas.min() and lambdas.max() <= 1.0):
            raise ValueError(f"lambda_t must lie in [0, 1], got {lambda_t}")
        ensure_finite(penalty_grad, "penalty gradient", step=t)
        if coupled:
            grad = lambda_t * grad + (1 - lambda_t) * penalty_grad
        else:
            scale = lambda_t * config.alpha
    m = config.beta1 * state.m + (1 - config.beta1) * grad
    v = config.beta2 * state.v + (1 - config.beta2) * (grad * grad)
    mhat = m / (1 - config.beta1**t)
    vhat = v / (1 - config.beta2**t)
    return scale * mhat / (np.sqrt(vhat) + config.eps), AdamState(t, m, v)


def adam_step(theta, state: AdamState, config: AdamConfig, eta_t: float, grad):
    """One vanilla Adam step; eps sits outside the square root."""
    adaptive, state = _adaptive_step(theta, state, config, grad)
    return theta - eta_t * adaptive, state


def adamw_step(theta, state: AdamState, config: AdamConfig, eta_t: float, grad,
               weight_decay: float):
    """Adam plus a decoupled weight-decay term eta_t * wd * theta."""
    if not (math.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError("weight_decay must be finite and >= 0")
    adaptive, state = _adaptive_step(theta, state, config, grad)
    return theta - eta_t * (adaptive + weight_decay * theta), state


def coupled_recadam_step(theta, state: AdamState, config: AdamConfig, eta_t: float,
                         grad, lambda_t: float, penalty_grad):
    """Penalty folded into the gradient before the moments (baseline)."""
    adaptive, state = _adaptive_step(theta, state, config, grad, lambda_t,
                                     penalty_grad, coupled=True)
    return theta - eta_t * adaptive, state


def recadam_step(theta, state: AdamState, config: AdamConfig, eta_t: float,
                 grad, lambda_t: float, penalty_grad):
    """Decoupled variant: moments see the raw gradient; the penalty does
    not pass through the adaptive rescaling."""
    return recadam_step_parts(theta, state, config, eta_t, grad, lambda_t,
                              penalty_grad)[:2]


def recadam_step_parts(theta, state: AdamState, config: AdamConfig, eta_t: float,
                       grad, lambda_t: float, penalty_grad):
    """Like recadam_step but also returns the two displacement terms.

    theta' = theta - (adam_term + penalty_term) with
    adam_term    = eta_t * (lambda_t * alpha * m_hat / (sqrt(v_hat) + eps))
    penalty_term = eta_t * ((1 - lambda_t) * penalty_grad)
    """
    adaptive, state = _adaptive_step(theta, state, config, grad, lambda_t, penalty_grad)
    adam_term = eta_t * adaptive
    penalty_term = eta_t * ((1 - lambda_t) * penalty_grad)
    return theta - (adam_term + penalty_term), state, adam_term, penalty_term
