"""Regenerate perfbench/reference.json: the summary numbers of every run of
every workload at seed 0, which run.py compares bit for bit.

Usage (from the repository root): python3 perfbench/make_reference.py

Only regenerate it on purpose, when a change is meant to alter the numbers.
"""

import json
import shutil
import sys

from run import HERE, SRC, WORK, WORKLOAD_NAMES  # pins BLAS threads before NumPy loads

sys.path.insert(0, str(SRC))
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    reference = {}
    try:
        for name in WORKLOAD_NAMES:
            work = WORK / f"reference-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            reference[name] = WORKLOADS[name](0, work, None).reference_runs()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
