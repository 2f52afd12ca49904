"""Flat float64 parameter vectors and a deterministic random source.

Parameter vectors are plain 1-D numpy float64 arrays.  Randomness comes
from the Philox 4x64 counter-based generator, so traces reproduce
bit-for-bit across runs and platforms.  Child streams are derived from
the parent seed and a label only (never from stream position), which
makes any generated object replayable from its recorded seed.
"""

import hashlib

import numpy as np

from .errors import DimensionError, NumericError


def ensure_finite(values: np.ndarray, what: str = "vector", step: int | None = None) -> None:
    """Raise NumericError if any element is NaN or infinite."""
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite values in {what}", step=step)


def check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {b.shape}")


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-length vectors."""
    check_same_length(a, b)
    return float(np.sqrt(np.sum((a - b) ** 2)))


def _child_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomSource:
    """Seeded random stream backed by numpy's Philox 4x64 bit generator.

    Children created with :meth:`child` depend only on (seed, label), not on
    how much the parent has been consumed, so labelled sub-streams are
    reproducible in isolation.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def child(self, label: str) -> "RandomSource":
        return RandomSource(_child_seed(self.seed, label))

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return scale * self._gen.standard_normal(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"
