"""The benchmark's span tracer still fits the library it wraps.

``perfbench/tracer.py`` replaces library functions by their names in the
``harness``, ``optim`` and ``cli`` modules, and each task class's own
``loss_and_grad`` and ``per_sample_loglik_grads``.  Installing it fails if
one of those names has gone; a traced run must count each optimizer step
once, under the span of the run's own stepper, a recall kind's penalty
gradient once, and each task gradient once, on every task kind, except that
a recall kind steps through ``adam_step`` with no penalty gradient where
lambda is exactly 1.0; a traced ``finetune`` must count one penalty value
and one distance span per filled trace block, and one more distance for
its summary; a traced report must count one trace read per run and the
rows it read; a traced ``finetune`` or ``sweep`` command must count one
checkpoint read; a traced ``finetune`` counts a pair build and a Fisher
estimate only when the harness memos miss.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from recadamlab import harness
from recadamlab.cli import main
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
    # a recall kind takes one penalty gradient a step, through the harness name
    assert tracer.calls["recall.penalty_grad"] == (20 if kind.startswith("recadam") else 0)


@pytest.mark.parametrize("kind", ["recadam", "recadam-coupled"])
def test_traced_finetune_steps_as_adam_once_lambda_is_one(tmp_path, kind):
    # k = 10, t0 = 5: lambda is exactly 1.0 from step 9 on, so steps 1-8 take the
    # kind's stepper and a penalty gradient, and steps 9-20 take adam_step alone
    cfg = config_from_values(parse_flat_text(CFG.format(kind=kind, out=tmp_path)))
    cfg = cfg.with_values({"shifting.k": 10.0, "shifting.t0": 5})
    theta_star, _ = harness.pretrain(cfg, write_outputs=False)
    with load_tracer().Tracer().installed() as tracer:
        trace, _ = harness.finetune(cfg, theta_star, seed=0)
    lam = trace[:, harness.TRACE_COLUMNS.index("lambda")]
    assert lam[7] < 1.0 == lam[8]
    assert tracer.calls[STEP_SPANS[kind]] == 8
    assert tracer.calls["optim.adam_step"] == 12
    assert tracer.calls["recall.penalty_grad"] == 8


@pytest.mark.parametrize("steps, blocks", [(20, 1), (130, 3)])
def test_traced_finetune_counts_one_penalty_value_and_distance_per_block(tmp_path, steps,
                                                                         blocks):
    # a lone run fills its trace columns in blocks of 64 steps, through the
    # harness names; the summary takes one more distance
    cfg = config_from_values(parse_flat_text(CFG.format(kind="recadam", out=tmp_path)))
    cfg = cfg.with_values({"finetune.steps": steps})
    theta_star, _ = harness.pretrain(cfg, write_outputs=False)
    with load_tracer().Tracer().installed() as tracer:
        harness.finetune(cfg, theta_star, seed=0)
    assert tracer.calls["recall.penalty_loss"] == blocks
    assert tracer.calls["numkit.l2_distance"] == blocks + 1


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


# transfer lines that replace CFG's quadratic task, per task kind
TASK_LINES = {
    "quadratic": "transfer.kind=quadratic\ntransfer.dim=6",
    "linear-regression": "transfer.kind=linear-regression\ntransfer.dim=6\n"
                         "transfer.n_samples=64",
    "logistic-regression": "transfer.kind=logistic-regression\ntransfer.dim=6\n"
                           "transfer.n_samples=64",
    "mlp-1h": "transfer.kind=mlp-1h\ntransfer.dim_in=3\ntransfer.hidden=4\n"
              "transfer.classes=2\ntransfer.n_samples=64",
}


def task_cfg(tmp_path, task_kind, penalty="isotropic"):
    text = CFG.format(kind="recadam", out=tmp_path).replace(
        "transfer.kind=quadratic\ntransfer.dim=6", TASK_LINES[task_kind]).replace(
        "penalty.kind=isotropic", f"penalty.kind={penalty}\npenalty.fisher_samples=32")
    return config_from_values(parse_flat_text(text))


@pytest.mark.parametrize("task_kind", sorted(TASK_LINES))
def test_traced_finetune_counts_one_task_gradient_per_step(tmp_path, task_kind):
    # a task class that inherits loss_and_grad would leave the span unpatched
    cfg = task_cfg(tmp_path, task_kind)
    theta_star, _ = harness.pretrain(cfg, write_outputs=False)
    with load_tracer().Tracer().installed() as tracer:
        trace, _ = harness.finetune(cfg, theta_star, seed=0)
    assert len(trace) == 20
    assert tracer.calls["tasks.loss_and_grad"] == 20 + 1  # plus the summary's full-data loss
    assert tracer.calls["tasks.per_sample_loglik_grads"] == 0


def test_traced_diagonal_fisher_counts_one_per_sample_gradient_call(tmp_path):
    cfg = task_cfg(tmp_path, "logistic-regression", penalty="diagonal-fisher")
    theta_star, _ = harness.pretrain(cfg, write_outputs=False)
    with load_tracer().Tracer().installed() as tracer:
        harness.finetune(cfg, theta_star, seed=0)
    assert tracer.calls["recall.estimate_diag_fisher"] == 1
    assert tracer.calls["tasks.per_sample_loglik_grads"] == 1


def test_traced_lone_fisher_finetune_counts_each_memo_miss(tmp_path):
    # the memos call gen_transfer_pair and estimate_diag_fisher by their
    # harness names: a cold run counts one of each, a warm run none
    cfg = task_cfg(tmp_path, "logistic-regression", penalty="diagonal-fisher")
    for expected in (1, 0):
        with load_tracer().Tracer().installed() as tracer:
            harness.finetune(cfg, np.zeros(cfg.transfer.dim), seed=0)
        assert tracer.calls["tasks.gen_transfer_pair"] == expected
        assert tracer.calls["recall.estimate_diag_fisher"] == expected


@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_traced_cli_counts_one_theta_star_read(tmp_path, command):
    # storage.read_vector is wrapped on both cli and harness: the one
    # checkpoint read of either command must count once, not zero or twice
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CFG.format(kind="recadam", out=tmp_path / "exp"))
    harness.pretrain(config_from_values(parse_flat_text(config_path.read_text())))
    theta_path = tmp_path / "exp" / "theta_star.bin"
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds=0,1\n")
    argv = {"finetune": ["--theta-star", str(theta_path)], "sweep": ["--grid", str(grid)]}
    with load_tracer().Tracer().installed() as tracer:
        assert main([command, "--config", str(config_path)] + argv[command]) == 0
    assert tracer.calls[f"harness.{command}"] == 1
    assert tracer.calls["storage.read_vector"] == 1
