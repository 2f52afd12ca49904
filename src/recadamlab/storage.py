"""Binary vector files: 8-byte little-endian length header + float64 data.

The format of parameter checkpoints such as theta_star.bin.  A file
whose size is not exactly 8 + 8 * length bytes is rejected before its
data is read.
"""

import os

import numpy as np

from .errors import DimensionError


def write_vector(path: str | os.PathLike, values: np.ndarray) -> None:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    with open(path, "wb") as fh:
        fh.write(np.uint64(arr.size).astype("<u8").tobytes())
        fh.write(arr.astype("<f8").tobytes())


def read_vector(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise DimensionError(f"truncated vector file: {path}")
        n = int(np.frombuffer(header, dtype="<u8")[0])
        if os.fstat(fh.fileno()).st_size != 8 + 8 * n:
            raise DimensionError(f"vector file length mismatch: {path}")
        data = np.frombuffer(fh.read(8 * n), dtype="<f8")
    out = data.astype(np.float64)
    out.flags.writeable = False
    return out
