import sys
import tracemalloc
from pathlib import Path

import pytest

from recadamlab import harness

sys.path.insert(0, str(Path(__file__).parent))


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
