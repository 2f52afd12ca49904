"""Independent finite-difference oracle for the tasks' analytic gradients.

Central differences of ``task.loss_and_grad``'s loss, one coordinate at a
time; the analytic gradient it returns is never read.
"""

import numpy as np


def finite_diff_grad(task, theta: np.ndarray, batch=None, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, one coordinate at a time."""
    if h <= 0:
        raise ValueError(f"finite-difference step must be > 0, got {h}")
    base = np.array(theta, dtype=np.float64)
    grad = np.empty_like(base)
    for i in range(base.size):
        saved = base[i]
        base[i] = saved + h
        lp, _ = task.loss_and_grad(base, batch)
        base[i] = saved - h
        lm, _ = task.loss_and_grad(base, batch)
        base[i] = saved
        grad[i] = (lp - lm) / (2 * h)
    return grad
