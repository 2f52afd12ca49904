"""Optimizer steppers: Adam, AdamW, and the recall-penalty variants.

All steppers are pure functions (theta, state) -> (theta', state').  The
decoupled variant (``recadam_step``) feeds only the raw task gradient
through the moment estimates and applies the recall penalty outside the
adaptive update, so every coordinate is pulled toward the anchor at the
same rate eta_t * (1 - lambda_t).  The coupled variant folds the penalty
into the gradient before the moments, which rescales it by 1/sqrt(v_hat)
per coordinate; it exists as the baseline whose distortion motivates the
decoupled form.

With lambda_t == 1.0 both variants reduce bitwise to ``adam_step``, and
``adamw_step`` with weight_decay == 0.0 does too; the update expressions
are written so those reductions are exact in floating point.
"""

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
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")


@dataclass
class AdamState:
    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def fresh(cls, dim: int) -> "AdamState":
        return cls(t=0, m=np.zeros(dim), v=np.zeros(dim))

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


def _check_step_inputs(theta: np.ndarray, state: AdamState, grad: np.ndarray) -> None:
    check_same_length(theta, grad)
    check_same_length(theta, state.m)
    ensure_finite(grad, "gradient", step=state.t + 1)


def _moments(state: AdamState, config: AdamConfig, g: np.ndarray):
    t = state.t + 1
    m = config.beta1 * state.m + (1 - config.beta1) * g
    v = config.beta2 * state.v + (1 - config.beta2) * (g * g)
    mhat = m / (1 - config.beta1**t)
    vhat = v / (1 - config.beta2**t)
    return t, m, v, mhat, vhat


def adam_step(theta, state: AdamState, config: AdamConfig, eta_t: float, grad):
    """One vanilla Adam step; eps sits outside the square root."""
    _check_step_inputs(theta, state, grad)
    t, m, v, mhat, vhat = _moments(state, config, grad)
    theta_new = theta - eta_t * (config.alpha * mhat / (np.sqrt(vhat) + config.eps))
    return theta_new, AdamState(t, m, v)


def adamw_step(theta, state: AdamState, config: AdamConfig, eta_t: float, grad,
               weight_decay: float):
    """Adam plus a decoupled weight-decay term eta_t * wd * theta."""
    if weight_decay < 0:
        raise ValueError("weight_decay must be >= 0")
    _check_step_inputs(theta, state, grad)
    t, m, v, mhat, vhat = _moments(state, config, grad)
    theta_new = theta - eta_t * (config.alpha * mhat / (np.sqrt(vhat) + config.eps)
                                 + weight_decay * theta)
    return theta_new, AdamState(t, m, v)


def _check_penalty_inputs(theta, state: AdamState, penalty_grad, lambda_t: float):
    if penalty_grad is None:
        raise ValueError("penalty_grad is required for the recall variants")
    check_same_length(theta, penalty_grad)
    # lambda is mathematically in (0, 1) but underflows to exact 0.0/1.0 in
    # float64 for large |k (t - t0)|; both closures are admitted
    if not (0.0 <= lambda_t <= 1.0):
        raise ValueError(f"lambda_t must lie in [0, 1], got {lambda_t}")
    ensure_finite(penalty_grad, "penalty gradient", step=state.t + 1)


def coupled_recadam_step(theta, state: AdamState, config: AdamConfig, eta_t: float,
                         grad, lambda_t: float, penalty_grad):
    """Penalty folded into the gradient before the moments (baseline)."""
    _check_penalty_inputs(theta, state, penalty_grad, lambda_t)
    composite = lambda_t * grad + (1 - lambda_t) * penalty_grad
    return adam_step(theta, state, config, eta_t, composite)


def recadam_step(theta, state: AdamState, config: AdamConfig, eta_t: float,
                 grad, lambda_t: float, penalty_grad):
    """Decoupled variant: moments see the raw gradient; the penalty does
    not pass through the adaptive rescaling."""
    theta_new, state_new, _, _ = recadam_step_parts(
        theta, state, config, eta_t, grad, lambda_t, penalty_grad)
    return theta_new, state_new


def recadam_step_parts(theta, state: AdamState, config: AdamConfig, eta_t: float,
                       grad, lambda_t: float, penalty_grad):
    """Like recadam_step but also returns the two displacement terms.

    theta' = theta - (adam_term + penalty_term) with
    adam_term    = eta_t * (lambda_t * alpha * m_hat / (sqrt(v_hat) + eps))
    penalty_term = eta_t * ((1 - lambda_t) * penalty_grad)
    """
    _check_penalty_inputs(theta, state, penalty_grad, lambda_t)
    _check_step_inputs(theta, state, grad)
    t, m, v, mhat, vhat = _moments(state, config, grad)
    adam_term = eta_t * (lambda_t * config.alpha * mhat / (np.sqrt(vhat) + config.eps))
    penalty_term = eta_t * ((1 - lambda_t) * penalty_grad)
    theta_new = theta - (adam_term + penalty_term)
    return theta_new, AdamState(t, m, v), adam_term, penalty_term
