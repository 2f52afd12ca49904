"""Differentiable toy tasks with closed-form gradients.

Four kinds stand in for pretraining/fine-tuning workloads:

* ``quadratic``           -- 0.5 (theta - c)^T A (theta - c), no dataset
* ``linear-regression``   -- squared error, unit-variance Gaussian likelihood
* ``logistic-regression`` -- binary cross entropy
* ``mlp-1h``              -- affine -> tanh -> affine -> softmax cross entropy

Each kind is one row of the ``_KINDS`` table: a draw of its generative
parameters and a build of the task from them.  ``gen_task`` and
``gen_transfer_pair`` are the only generators; both draw exclusively from
labelled child streams of the RandomSource they are given.  Transfer
pairs interpolate generative parameters (centers, true weights) with a
relatedness knob rho; the dataset noise is drawn once and shared between
source and target so rho = 1 yields an identical task.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DimensionError, InvalidBatchError, UnsupportedTaskError
from .numkit import RandomSource, check_same_length


def batch_stream(n_rows: int, batch_size: int, rng: RandomSource) -> Iterator[np.ndarray]:
    """Yield without-replacement batches, one fresh shuffle per epoch."""
    if n_rows < 1 or batch_size < 1:
        raise InvalidBatchError(f"n_rows and batch_size must be >= 1, got {n_rows}, {batch_size}")

    def generate(size):
        while True:
            order = rng.permutation(n_rows)
            for start in range(0, n_rows, size):
                yield order[start:start + size]

    return generate(min(batch_size, n_rows))


class Task:
    """Common surface shared by all task kinds: each defines ``loss_and_grad(theta,
    batch=None)``; a kind with a dataset holds it as ``features`` and ``labels``, one row
    per sample, reads every batch through ``_batch`` and defines ``per_sample_loglik_grads(
    theta, indices)``.  A kind without a dataset (dataset_size() == 0) also takes a stack
    of parameter rows in ``loss_and_grad``.  Every kind holds its arrays read-only."""

    kind: str
    dim: int
    spec = None  # read only by perfbench/tracer.py::_fisher_key; goes with that read

    def dataset_size(self) -> int:
        return self.features.shape[0]

    def _read_only(self, *names: str) -> None:
        """Hold the arrays called names as read-only C-contiguous views (a caller's stays
        writeable): one task may serve many runs, and no reader writes into it."""
        for name in names:
            setattr(self, name, np.ascontiguousarray(getattr(self, name)).view())
            getattr(self, name).flags.writeable = False

    def _check_dataset(self) -> int:
        """Hold features and labels read-only; the feature width, once they fit."""
        self._read_only("features", "labels")
        if self.features.ndim != 2 or self.labels.shape != self.features.shape[:1]:
            raise DimensionError("labels must have one row per feature row of 2-D features")
        return self.features.shape[1]

    def _batch(self, theta: np.ndarray, batch):
        """The feature rows and labels of a batch of integer row indices, once theta
        has the task's length; None: every row, the read-only dataset, no copy."""
        if theta.size != self.dim:
            raise DimensionError(f"theta length {theta.size} != task dim {self.dim}")
        if batch is None and self.labels.size:
            return self.features, self.labels
        idx = np.asarray([] if batch is None else batch).reshape(-1)
        if idx.size == 0:  # checked first: an empty list reads as float64
            raise InvalidBatchError("empty batch")
        if idx.dtype.kind not in "iu":
            raise InvalidBatchError(f"batch indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        if idx.view(np.uintp).max() >= self.labels.size:  # a negative index views as >= 2**63
            raise InvalidBatchError(f"batch indices outside [0, {self.labels.size})")
        return self.features.take(idx, axis=0), self.labels.take(idx)


@dataclass
class QuadraticTask(Task):
    """loss(theta) = 0.5 (theta - center)^T curvature (theta - center)."""

    curvature: np.ndarray
    center: np.ndarray
    kind: str = field(default="quadratic", init=False)

    def __post_init__(self):
        self._read_only("curvature", "center")
        self.dim = self.center.size
        if self.curvature.shape != (self.dim, self.dim):
            raise DimensionError("curvature must be dim x dim")
        if not np.allclose(self.curvature, self.curvature.T, atol=1e-12):
            raise ValueError("curvature must be symmetric")
        if np.any(np.diag(self.curvature) <= 0):
            raise ValueError("curvature diagonal must be positive")

    def dataset_size(self):
        return 0

    def loss_and_grad(self, theta, batch=None):
        """theta may also be a stack of runs (S, d): then (losses (S,),
        gradients (S, d)), each row bit-identical to its own call."""
        if theta.ndim == 2:
            if theta.shape[1:] != self.center.shape:
                raise DimensionError(f"length mismatch: {theta.shape[1:]} vs {self.center.shape}")
            diff = theta - self.center
            grad = np.matmul(self.curvature, diff[:, :, None])  # (S, d, 1)
            return 0.5 * np.matmul(diff[:, None, :], grad).ravel(), grad[:, :, 0]
        check_same_length(theta, self.center)
        diff = theta - self.center
        grad = self.curvature @ diff
        loss = 0.5 * float(diff @ grad)
        return loss, grad


@dataclass
class LinearRegressionTask(Task):
    """Mean of 0.5 (x . theta - y)^2; Gaussian unit-variance likelihood."""

    features: np.ndarray
    labels: np.ndarray
    kind: str = field(default="linear-regression", init=False)

    def __post_init__(self):
        self.dim = self._check_dataset()

    def loss_and_grad(self, theta, batch=None):
        X, y = self._batch(theta, batch)
        resid = X @ theta - y
        loss = 0.5 * float((resid * resid).sum() / y.size)
        grad = X.T @ resid / y.size
        return loss, grad

    def per_sample_loglik_grads(self, theta, indices):
        X, y = self._batch(theta, indices)
        return X * (y - X @ theta)[:, None]


@dataclass
class LogisticRegressionTask(Task):
    """Mean binary cross entropy with labels in {0, 1}."""

    features: np.ndarray
    labels: np.ndarray
    kind: str = field(default="logistic-regression", init=False)

    def __post_init__(self):
        self.dim = self._check_dataset()

    def loss_and_grad(self, theta, batch=None):
        X, y = self._batch(theta, batch)
        z = X @ theta
        # log(1 + exp(z)) - y z, computed without overflow
        loss = float((np.logaddexp(0.0, z) - y * z).sum() / y.size)
        p = _sigmoid(z)
        grad = X.T @ (p - y) / y.size
        return loss, grad

    def per_sample_loglik_grads(self, theta, indices):
        X, y = self._batch(theta, indices)
        return X * (y - _sigmoid(X @ theta))[:, None]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0, else exp(z) / (1 + exp(z)): no overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _mlp_dim(dim_in: int, hidden: int, classes: int) -> int:
    return hidden * (dim_in + 1) + classes * (hidden + 1)


@dataclass
class MlpTask(Task):
    """One-hidden-layer tanh network with softmax cross entropy.

    Parameters pack as [W1 (hidden x dim_in), b1, W2 (classes x hidden), b2],
    d = hidden * (dim_in + 1) + classes * (hidden + 1).  loss_and_grad writes
    dW1, db1, dW2 and db2 straight into the same views (``_unpack``) of one
    flat gradient vector of length d.
    """

    dim_in: int
    hidden: int
    classes: int
    features: np.ndarray
    labels: np.ndarray
    kind: str = field(default="mlp-1h", init=False)

    def __post_init__(self):
        self.dim = _mlp_dim(self.dim_in, self.hidden, self.classes)
        if self._check_dataset() != self.dim_in:
            raise DimensionError("feature width must equal dim_in")
        if self.labels.dtype.kind not in "iu" or not np.isin(
                self.labels, range(self.classes)).all():
            raise ValueError(f"labels must be integers in [0, {self.classes})")

    def _unpack(self, theta):
        """Views (W1, b1, W2, b2) into a flat parameter or gradient vector theta."""
        h, din, C = self.hidden, self.dim_in, self.classes
        i, j, k = h * din, h * (din + 1), h * (din + 1 + C)
        return theta[:i].reshape(h, din), theta[i:j], theta[j:k].reshape(C, h), theta[k:]

    def _forward(self, theta, X, y):
        """Unpack theta once and run the batch (X, y) through the network: (W2,
        hidden activations, per-sample cross entropy, per-sample dCE/dlogits).
        The class-axis max is a chain of np.maximum over the columns (a max is
        exact in any order); the class-axis sum is the np.add.reduce that .sum
        calls, so both keep the bits of logits.max(axis=1) and .sum(axis=1)."""
        W1, b1, W2, b2 = self._unpack(theta)
        H = np.dot(X, W1.T)
        H += b1
        np.tanh(H, out=H)
        logits = np.dot(H, W2.T)
        logits += b2
        mx = functools.reduce(np.maximum, logits.T)
        shifted = logits - mx[:, None]
        lse = np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=1))
        lse += mx
        labelled = np.arange(0, logits.size, self.classes)  # flat index of each label logit
        labelled += y.astype(np.intp, copy=False)
        ce = lse - logits.take(labelled)
        logits -= lse[:, None]
        dlogits = np.exp(logits, out=logits)  # the softmax, then minus the one-hot labels
        dlogits.reshape(-1)[labelled] -= 1.0
        return W2, H, ce, dlogits

    def loss_and_grad(self, theta, batch=None):
        X, y = self._batch(theta, batch)
        W2, H, ce, dlogits = self._forward(theta, X, y)
        n = y.size
        loss = float(ce.sum() / n)
        dlogits /= n
        grad = np.empty(self.dim, H.dtype)  # float32 for a float32 task and theta
        dW1, db1, dW2, db2 = self._unpack(grad)
        np.dot(dlogits.T, H, out=dW2)
        np.add.reduce(dlogits, axis=0, out=db2)  # the call dlogits.sum(axis=0) makes
        dZ1 = np.dot(dlogits, W2)
        H *= H
        dZ1 *= np.subtract(1.0, H, out=H)  # tanh' = 1 - H * H, over H: its last reader
        np.dot(dZ1.T, X, out=dW1)
        np.add.reduce(dZ1, axis=0, out=db1)
        return loss, grad

    def per_sample_loglik_grads(self, theta, indices):
        X, y = self._batch(theta, indices)
        W2, H, _, dlogits = self._forward(theta, X, y)  # per-sample dCE/dlogits, no 1/n
        n = y.size
        dW2 = np.einsum("bc,bh->bch", dlogits, H)
        dH = dlogits @ W2
        dZ1 = dH * (1.0 - H * H)
        dW1 = np.einsum("bh,bd->bhd", dZ1, X)
        # per sample [dW1, db1, dW2, db2]; the log-likelihood gradient is -dCE/dtheta
        return -np.concatenate([dW1.reshape(n, -1), dZ1, dW2.reshape(n, -1), dlogits], axis=1)


# --- generators ------------------------------------------------------------
# One row of _KINDS per task kind: draw(rng, spec) makes the generative
# parameters from a stream, noise(data, spec) draws the dataset noise from
# the stream rng.child("data"), and build(params, noise, spec) makes the task
# from the two without drawing.  All draws go through labelled child streams
# so a recorded seed replays the task exactly regardless of how the parent
# source was used elsewhere.

def _draw_quadratic(rng: RandomSource, spec: dict) -> dict:
    dim = spec["dim"]
    Q, R = np.linalg.qr(rng.child("rotation").normal((dim, dim)))
    Q = Q * np.sign(np.diag(R))
    lam = 10.0 ** rng.child("eigs").uniform(-1.0, 1.0, dim)
    A = (Q * lam) @ Q.T
    return {"curvature": (A + A.T) / 2, "center": rng.child("center").normal(dim)}


def _draw_weights(scale: float) -> Callable:
    return lambda rng, spec: {"weights": rng.child("weights").normal(spec["dim"], scale)}


def _linreg_noise(data: RandomSource, spec: dict) -> dict:
    n = spec["n_samples"]
    return {"X": data.normal((n, spec["dim"])), "e": data.normal(n)}


def _build_linreg(params: dict, noise: dict, spec: dict) -> LinearRegressionTask:
    X = noise["X"]
    return LinearRegressionTask(X, X @ params["weights"] + spec["noise_std"] * noise["e"])


def _logreg_noise(data: RandomSource, spec: dict) -> dict:
    n = spec["n_samples"]
    return {"X": data.normal((n, spec["dim"])), "u": data.uniform(size=n)}


def _build_logreg(params: dict, noise: dict, spec: dict) -> LogisticRegressionTask:
    X = noise["X"]
    y = (noise["u"] < _sigmoid(X @ params["weights"])).astype(np.float64)
    return LogisticRegressionTask(X, y)


def _draw_mlp(rng: RandomSource, spec: dict) -> dict:
    shape = (spec["classes"], spec["dim_in"])
    return {"centers": spec["center_scale"] * rng.child("centers").normal(shape)}


def _mlp_noise(data: RandomSource, spec: dict) -> dict:
    n, classes = spec["n_samples"], spec["classes"]
    noise = {"y": data.integers(0, classes, n), "Z": data.normal((n, spec["dim_in"]))}
    if spec["label_noise"] > 0:
        noise["u"] = data.uniform(size=n)
        noise["flipped_to"] = data.integers(0, classes, n)
    return noise


def _build_mlp(params: dict, noise: dict, spec: dict) -> MlpTask:
    y = noise["y"]
    X = params["centers"][y] + spec["noise_std"] * noise["Z"]
    if spec["label_noise"] > 0:
        y = np.where(noise["u"] < spec["label_noise"], noise["flipped_to"], y)
    return MlpTask(spec["dim_in"], spec["hidden"], spec["classes"], X, y.astype(np.intp))


class _Kind(NamedTuple):
    draw: Callable
    noise: Callable
    build: Callable
    sizes: dict  # the kind's keywords and their defaults


_KINDS = {
    "quadratic": _Kind(_draw_quadratic, lambda data, spec: {},
                       lambda params, noise, spec: QuadraticTask(**params), {}),
    "linear-regression": _Kind(_draw_weights(1.0), _linreg_noise, _build_linreg,
                               {"n_samples": 512, "noise_std": 0.1}),
    "logistic-regression": _Kind(_draw_weights(2.0), _logreg_noise, _build_logreg,
                                 {"n_samples": 512}),
    "mlp-1h": _Kind(_draw_mlp, _mlp_noise, _build_mlp,
                    {"dim_in": 0, "hidden": 0, "classes": 0, "n_samples": 512,
                     "center_scale": 1.0, "noise_std": 1.0, "label_noise": 0.0}),
}
TASK_KINDS = tuple(_KINDS)
DATASET_KINDS = tuple(kind for kind, row in _KINDS.items() if "n_samples" in row.sizes)
_KEYWORDS = {key for row in _KINDS.values() for key in row.sizes}


def _task_spec(kind: str, dim: int, sizes: dict) -> dict:
    """dim plus the kind's own keywords, a missing or None keyword taking its
    default, after every size check.  Keywords that only other kinds use are
    accepted and left out, so one set of keywords (a config's) serves every
    kind."""
    if kind not in _KINDS:
        raise UnsupportedTaskError(f"unknown task kind: {kind!r}")
    unknown = sizes.keys() - _KEYWORDS
    if unknown:
        raise TypeError(f"unknown task keywords: {sorted(unknown)}")
    spec = {"dim": dim}
    for key, default in _KINDS[kind].sizes.items():
        spec[key] = default if sizes.get(key) is None else sizes[key]
    for key in ("n_samples", "dim_in", "hidden", "classes"):
        if spec.get(key, 1) < 1:
            raise ValueError(f"{key} must be >= 1, got {spec[key]}")
    if not 0.0 <= spec.get("label_noise", 0.0) <= 1.0:
        raise ValueError(f"label_noise must lie in [0, 1], got {spec['label_noise']}")
    if kind == "mlp-1h":  # the parameter count follows from the layer sizes
        d = _mlp_dim(spec["dim_in"], spec["hidden"], spec["classes"])
        if dim not in (0, d):
            raise DimensionError(f"mlp parameter count is {d}, got dim={dim}")
        spec["dim"] = d
    if spec["dim"] < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return spec


def gen_task(kind: str, dim: int, rng: RandomSource, **sizes) -> Task:
    """One task of the given kind.  sizes are the kind's keywords (n_samples,
    noise_std; mlp-1h: dim_in, hidden, classes, center_scale, label_noise);
    mlp-1h takes dim=0 or its derived parameter count."""
    spec = _task_spec(kind, dim, sizes)
    draw, noise, build, _ = _KINDS[kind]
    return build(draw(rng, spec), noise(rng.child("data"), spec), spec)


@dataclass
class TransferPair:
    source: Task
    target: Task

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise DimensionError("source and target dimensions must match")


def _mix(rho: float, src: dict, ind: dict) -> dict:
    return {k: rho * src[k] + (1 - rho) * ind[k] for k in src}


def gen_transfer_pair(kind: str, dim: int, rho: float, rng: RandomSource,
                      **sizes) -> TransferPair:
    """Source/target pair whose generative parameters are the convex mix
    rho * source + (1 - rho) * independent draw; sizes as for gen_task.

    The dataset noise is drawn once and shared between source and target
    (the members hold the same noise arrays, such as logistic regression's
    features), so rho = 1 reproduces the source task exactly while rho = 0
    gives a target drawn independently of the source parameters.
    """
    spec = _task_spec(kind, dim, sizes)
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"relatedness rho must lie in [0, 1], got {rho}")
    draw, draw_noise, build, _ = _KINDS[kind]
    p_src = draw(rng.child("source-params"), spec)
    p_tgt = _mix(rho, p_src, draw(rng.child("independent-params"), spec))
    noise = draw_noise(rng.child("data"), spec)
    return TransferPair(build(p_src, noise, spec), build(p_tgt, noise, spec))
