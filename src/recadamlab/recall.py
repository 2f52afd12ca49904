"""Recall penalties approximating the source objective without its data.

The chain, from exact to cheapest: a quadratic (Laplace) expansion with
the true Hessian, the diagonal empirical Fisher scaled by the observation
count, and finally a single isotropic coefficient gamma.  Quadratic tasks
are the exactness oracle for the first step: their Hessian is the
curvature matrix itself, so the expansion reproduces the loss.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, UnsupportedTaskError
from .numkit import RandomSource, check_same_length
from .tasks import Task

PENALTY_KINDS = ("none", "isotropic", "diagonal-fisher")
FISHER_BLOCK_ROWS = 1024  # per-sample gradient rows estimate_diag_fisher holds at once


@dataclass(frozen=True)
class PenaltyModel:
    """Anchor point theta_star plus curvature information.

    isotropic:        loss = 0.5 * gamma * sum_i (theta_i - theta*_i)^2
    diagonal-fisher:  loss = 0.5 * n_obs * sum_i F_i (theta_i - theta*_i)^2
    none:             loss and gradient are identically zero
    """

    kind: str
    theta_star: np.ndarray
    gamma: float = 0.0
    fisher_diag: Optional[np.ndarray] = None
    n_obs: int = 1

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind: {self.kind!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be finite and >= 0")
        if self.kind == "diagonal-fisher":
            if self.fisher_diag is None:
                raise ValueError("diagonal-fisher penalty needs fisher_diag")
            check_same_length(self.theta_star, self.fisher_diag)
            if not (np.all(np.isfinite(self.fisher_diag)) and np.all(self.fisher_diag >= 0)):
                raise ValueError("fisher_diag must be finite and elementwise >= 0")
            if self.n_obs < 1:
                raise ValueError("n_obs must be >= 1")

    @classmethod
    def none(cls, theta_star: np.ndarray) -> "PenaltyModel":
        return cls("none", theta_star)

    @classmethod
    def isotropic(cls, theta_star: np.ndarray, gamma: float) -> "PenaltyModel":
        return cls("isotropic", theta_star, gamma=gamma)

    @classmethod
    def diagonal_fisher(cls, theta_star: np.ndarray, fisher_diag: np.ndarray,
                        n_obs: int) -> "PenaltyModel":
        return cls("diagonal-fisher", theta_star, fisher_diag=fisher_diag, n_obs=n_obs)


def _penalty_parts(pen: PenaltyModel, theta: np.ndarray, gamma=None):
    """(diff = theta - theta_star, diff weighted by the curvature, scale) for runs theta
    (..., d): the gradient is weighted * scale, the value 0.5 * scale * sum(diff * weighted)
    on the last axis.  The scale is n_obs, pen.gamma, or gamma broadcast to the result."""
    if theta.shape[-1:] != pen.theta_star.shape:
        raise DimensionError(f"length mismatch: {theta.shape[-1:]} vs {pen.theta_star.shape}")
    diff = theta - pen.theta_star
    if pen.kind == "none":
        return diff, None, None
    if pen.kind == "isotropic":
        return diff, diff, pen.gamma if gamma is None else gamma
    return diff, pen.fisher_diag * diff, pen.n_obs


def penalty_grad(pen: PenaltyModel, theta: np.ndarray, gamma=None) -> np.ndarray:
    """The penalty gradient of one run theta (d,), or of each run of a stack (S, d); an
    (S, 1) column gamma replaces pen.gamma per run."""
    _, weighted, scale = _penalty_parts(pen, theta, gamma)
    return np.zeros_like(theta) if weighted is None else np.multiply(weighted, scale, out=weighted)


def _penalty_values(pen: PenaltyModel, theta: np.ndarray, gamma=None):
    """(penalty values, ||theta - theta_star||) of runs theta (..., d), per row."""
    diff, weighted, scale = _penalty_parts(pen, theta, gamma)
    sq_norm = (diff * diff).sum(axis=-1)
    values = (np.zeros(sq_norm.shape) if weighted is None else 0.5 * scale * (
        sq_norm if weighted is diff else (diff * weighted).sum(axis=-1)))
    return values, np.sqrt(sq_norm)


def penalty_loss(pen: PenaltyModel, theta: np.ndarray) -> float:
    return float(_penalty_values(pen, theta)[0])


def estimate_diag_fisher(task: Task, theta_star: np.ndarray, n_samples: int,
                         rng: RandomSource):
    """Diagonal empirical Fisher at theta_star over dataset draws.

    F_i = mean over n_samples i.i.d. row draws of the squared per-sample
    log-likelihood gradient.  Returns (fisher_diag, n_obs) where n_obs is
    the dataset size, the observation count entering the penalty scale.
    Row indices and gradients come in blocks of FISHER_BLOCK_ROWS rows
    (O(block * d) memory), each adding the running sum to its first row:
    the bits of the one-shot mean, which adds the rows in turn (a d = 1
    column pairwise: one block).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_rows = task.dataset_size()
    if n_rows == 0:
        raise UnsupportedTaskError(
            f"{task.kind} has no dataset to estimate a Fisher from")
    if theta_star.size != task.dim:
        raise DimensionError("theta_star length does not match task dim")
    draws = rng.child("fisher-samples")  # per-block draws: the integers of one whole draw
    block = n_samples if task.dim == 1 else FISHER_BLOCK_ROWS
    # a lone last row joins the block before: NumPy would take a vector product for it
    edges = [*range(0, max(n_samples - 1, 1), block), n_samples]
    total = np.zeros(task.dim)  # 0.0 + x is x for every square x
    for start, stop in zip(edges, edges[1:]):
        grads = task.per_sample_loglik_grads(theta_star, draws.integers(0, n_rows, stop - start))
        grads *= grads
        grads[0] += total
        total = grads.sum(axis=0)
        del grads  # freed before the next block is computed
    return total / n_samples, n_rows

