"""The benchmark's span tracer still fits the library it wraps.

``perfbench/tracer.py`` replaces library functions by their names in the
``harness``, ``optim`` and ``cli`` modules.  Installing it fails if one of
those names has gone; a traced run must count each optimizer step once,
under the span of the run's own stepper, and a traced report must count
one trace read per run and the rows it read.
"""

import importlib.util
from pathlib import Path

import pytest

from recadamlab import harness
from recadamlab.config import config_from_values, parse_flat_text

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CFG = """
transfer.kind=quadratic
transfer.dim=6
transfer.rho=0.7
transfer.seed=0
pretrain.steps=50
finetune.steps=20
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.05
finetune.optimizer.weight_decay=0.01
shifting.t0=10
penalty.kind=isotropic
penalty.gamma=1.0
output_dir={out}
"""

STEP_SPANS = {"adam": "optim.adam_step", "adamw": "optim.adamw_step",
              "recadam": "optim.recadam_step",
              "recadam-coupled": "optim.coupled_recadam_step"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", sorted(STEP_SPANS))
def test_traced_finetune_counts_one_stepper_call_per_step(tmp_path, kind):
    cfg = config_from_values(parse_flat_text(CFG.format(kind=kind, out=tmp_path)))
    theta_star, _ = harness.pretrain(cfg, write_outputs=False)
    with load_tracer().Tracer().installed() as tracer:
        trace, _ = harness.finetune(cfg, theta_star, seed=0, run_dir=tmp_path / "run")
    assert len(trace) == 20
    assert tracer.calls["harness.finetune"] == 1
    for name in set(STEP_SPANS.values()):
        assert tracer.calls[name] == (20 if name == STEP_SPANS[kind] else 0)


def test_traced_report_counts_one_read_per_run_and_its_rows(tmp_path):
    # harness.read_trace.us_per_row divides read time by these row units
    cfg = config_from_values(parse_flat_text(CFG.format(kind="recadam", out=tmp_path)))
    theta_star, _ = harness.pretrain(cfg, write_outputs=False)
    for seed in (0, 1):
        harness.finetune(cfg, theta_star, seed, run_dir=tmp_path / "runs" / f"s{seed}")
    with load_tracer().Tracer().installed() as tracer:
        harness.report(tmp_path)
    assert tracer.calls["harness.report"] == 1
    assert tracer.calls["harness.read_trace"] == 2
    assert tracer.units["harness.read_trace"] == 2 * 20
