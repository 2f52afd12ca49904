import ctypes
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from recadamlab import harness

sys.path.insert(0, str(Path(__file__).parent))


def _openblas_core() -> str:
    """The core whose kernels the OpenBLAS bundled with NumPy picked, or unknown."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def pytest_report_header():
    """The kernels that the pinned bytes depend on (ROADMAP item 15): NumPy's version,
    OpenBLAS's core and the SIMD targets NumPy's dispatch enables on this host."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    features = getattr(umath, "__cpu_features__", {})
    simd = [target for target in getattr(umath, "__cpu_dispatch__", []) if features.get(target)]
    return (f"kernels: numpy {np.__version__}, OpenBLAS core {_openblas_core()}, "
            f"SIMD dispatch {' '.join(simd) or 'unknown'}")


def pytest_terminal_summary(terminalreporter, config):
    """A -q run prints no header, so it names the kernels at the end of its log."""
    if config.option.verbose < 0:
        terminalreporter.write_line(pytest_report_header())


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty transfer-pair and Fisher memos, so no
    test's counts or results depend on the tests run before it."""
    harness._pair_of.cache_clear()
    harness._fisher_of.cache_clear()


@pytest.fixture
def traced_peak():
    """peak(call): the most bytes held at once by what call() allocates,
    NumPy's buffers included, as tracemalloc counts them."""
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
