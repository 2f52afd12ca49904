"""Recall penalties approximating the source objective without its data.

The chain, from exact to cheapest: a quadratic (Laplace) expansion with
the true Hessian, the diagonal empirical Fisher scaled by the observation
count, and finally a single isotropic coefficient gamma.  Quadratic tasks
are the exactness oracle for the first step: their Hessian is the
curvature matrix itself, so the expansion reproduces the loss.
"""

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DimensionError, UnsupportedTaskError
from .numkit import RandomSource, check_same_length
from .storage import read_vector, write_vector
from .tasks import QuadraticTask, Task

PENALTY_KINDS = ("none", "isotropic", "diagonal-fisher")


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


def _penalty_terms(pen: PenaltyModel, theta: np.ndarray, with_grad: bool = True):
    """(penalty value, penalty gradient or None, ||theta - theta_star||),
    all from one difference vector."""
    check_same_length(theta, pen.theta_star)
    diff = theta - pen.theta_star
    sq_norm = np.sum(diff * diff)
    dist = float(np.sqrt(sq_norm))
    if pen.kind == "none":
        return 0.0, np.zeros_like(theta) if with_grad else None, dist
    if pen.kind == "isotropic":
        return (0.5 * pen.gamma * float(sq_norm),
                pen.gamma * diff if with_grad else None, dist)
    weighted = pen.fisher_diag * diff
    return (0.5 * pen.n_obs * float(np.sum(weighted * diff)),
            pen.n_obs * weighted if with_grad else None, dist)


def penalty_loss(pen: PenaltyModel, theta: np.ndarray) -> float:
    return _penalty_terms(pen, theta, with_grad=False)[0]


def penalty_grad(pen: PenaltyModel, theta: np.ndarray) -> np.ndarray:
    return _penalty_terms(pen, theta)[1]


def estimate_diag_fisher(task: Task, theta_star: np.ndarray, n_samples: int,
                         rng: RandomSource):
    """Diagonal empirical Fisher at theta_star over dataset draws.

    F_i = mean over n_samples i.i.d. row draws of the squared per-sample
    log-likelihood gradient.  Returns (fisher_diag, n_obs) where n_obs is
    the dataset size, the observation count entering the penalty scale.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_rows = task.dataset_size()
    if n_rows == 0:
        raise UnsupportedTaskError(
            f"{task.kind} has no dataset to estimate a Fisher from")
    if theta_star.size != task.dim:
        raise DimensionError("theta_star length does not match task dim")
    indices = rng.child("fisher-samples").integers(0, n_rows, size=n_samples)
    grads = task.per_sample_loglik_grads(theta_star, indices)
    fisher = np.mean(grads * grads, axis=0)
    return fisher, n_rows


@dataclass(frozen=True)
class HessianSummary:
    full: Optional[np.ndarray] = None
    diagonal: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.full is None and self.diagonal is None:
            raise ValueError("need a full matrix or a diagonal")
        if self.full is not None:
            if not np.allclose(self.full, self.full.T, atol=1e-12):
                raise ValueError("full Hessian must be symmetric")

    def diag(self) -> np.ndarray:
        return self.diagonal if self.diagonal is not None else np.diag(self.full)


def analytic_hessian_quadratic(task: Task) -> HessianSummary:
    """Exact Hessian of a quadratic task (the Laplace-exactness oracle)."""
    if not isinstance(task, QuadraticTask):
        raise UnsupportedTaskError("analytic Hessian is only available for quadratic tasks")
    return HessianSummary(full=task.curvature, diagonal=np.diag(task.curvature).copy())


def fit_isotropic_gamma(hess: HessianSummary) -> float:
    """Least-squares scalar fit to the Hessian diagonal (its mean)."""
    return float(np.mean(hess.diag()))


# --- (de)serialization ------------------------------------------------------

def save_penalty(pen: PenaltyModel, json_path: str | os.PathLike) -> None:
    """Write the model as JSON plus binary sidecars next to it."""
    path = Path(json_path)
    doc = {"kind": pen.kind, "gamma": pen.gamma, "n_obs": pen.n_obs}
    theta_name = path.stem + "_theta_star.bin"
    write_vector(path.parent / theta_name, pen.theta_star)
    doc["theta_star"] = theta_name
    if pen.fisher_diag is not None:
        fisher_name = path.stem + "_fisher_diag.bin"
        write_vector(path.parent / fisher_name, pen.fisher_diag)
        doc["fisher_diag"] = fisher_name
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))


def load_penalty(json_path: str | os.PathLike) -> PenaltyModel:
    path = Path(json_path)
    doc = json.loads(path.read_text())
    theta_star = read_vector(path.parent / doc["theta_star"])
    fisher = None
    if "fisher_diag" in doc:
        fisher = read_vector(path.parent / doc["fisher_diag"])
    return PenaltyModel(doc["kind"], theta_star, gamma=doc.get("gamma", 0.0),
                        fisher_diag=fisher, n_obs=doc.get("n_obs", 1))
