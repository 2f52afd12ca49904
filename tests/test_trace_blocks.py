"""Trace rows at the edges of the training loop's blocks of steps.

The loop fills a run's penalty_value, dist_to_pretrained and grad_norm
columns once per block of steps, not inside every step: a block holds at
most 64 rows, 64 steps of a lone run and 21 of a three-run stack.  These
tests pin the trace bytes of runs that end just before, at and just after a
block edge, check that a run stopped by a numeric failure or an interrupt
at such an edge writes the leading rows of the run left alone, byte for
byte, and count the calls that show where the penalty work happens.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from recadamlab import harness
from recadamlab.config import config_from_values, parse_flat_text
from recadamlab.errors import NumericError
from recadamlab.harness import build_penalty, build_transfer_pair, finetune, pretrain, read_trace
from recadamlab.tasks import QuadraticTask
from test_harness import counted, leading_rows

QUADRATIC_CFG = """
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed=3
pretrain.steps=100
pretrain.optimizer.alpha=0.1
finetune.steps=130
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.05
finetune.optimizer.weight_decay=0.02
finetune.init=random
shifting.k=0.1
shifting.t0=60
penalty.kind={penalty}
penalty.gamma=1.0
output_dir={out}
"""

LOGISTIC_CFG = """
transfer.kind=logistic-regression
transfer.dim=16
transfer.rho=0.7
transfer.seed=4
transfer.n_samples=512
pretrain.steps=100
pretrain.batch_size=32
pretrain.optimizer.alpha=0.05
finetune.steps=130
finetune.batch_size=32
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.01
finetune.init=pretrained
finetune.schedule.kind=linear-warmup-constant
finetune.schedule.warmup_steps=20000
shifting.k=0.1
shifting.t0=60
penalty.kind={penalty}
penalty.fisher_samples=256
output_dir={out}
"""

# case -> (config template, optimizer kind, penalty kind)
CASES = {
    "recadam-isotropic": (QUADRATIC_CFG, "recadam", "isotropic"),
    "coupled-fisher": (LOGISTIC_CFG, "recadam-coupled", "diagonal-fisher"),
    "adamw-none": (QUADRATIC_CFG, "adamw", "none"),
}
EDGE_STEPS = (63, 64, 65, 129)

# case -> {fine-tuning steps: sha256 of trace.csv}
EDGE_DIGESTS = {
    "recadam-isotropic": {
        63: "e3782cbf195eca502e05586e97f28b19774fe821ebc58c58a09a4dd8301f6c1e",
        64: "d4b37b6217069257863b853bd160f5e86bdcc5e7ce19eca79831e4db94bfd11e",
        65: "f5bb0c15470a32cddffbbb49e8ef98308c7eac3910ed09b145763a5922a9dc52",
        129: "864342e8073a7d2818bf9f51454e2140c12916e225d55d77cd62811c6fcdfbb4"},
    "coupled-fisher": {
        63: "c6c0387a493c799d8dc2b817b141131cddd4d3446ed88053dc633d5c1b066f79",
        64: "0f01332abdcc775a3d9b2084158181433d6a9138cd8eda6e5d32e0767ec27405",
        65: "5e01c17989144f3c5a25b55870da5d0abcb516a95013c6e7e640e57136238c77",
        129: "2bf0e49d9ad6b34da26acafacebdf92c0b630fc7d6119425e6b3177a1e494b37"},
    "adamw-none": {
        63: "9abe2e4fa2da906c67330e3df0e7c0e3d9b2a2ee941b6199240952046558b03f",
        64: "896c6e25777af3539c3ae74b1471694127390e6af2faec140c8ea94d007686ae",
        65: "2ceb5f706159aa6eac1663c05bfcab165b315862e070440d1aaf625f07f39a32",
        129: "451245a336a82eece9f3e2458ad3c6cb61a206fd1f651785a1f93fe5a0b67d1d"},
}
# seed -> sha256 of trace.csv, for a 65-step stack of three recadam-isotropic runs
STACK_DIGESTS = {
    0: "5e4769d82d44de90a9dff5cf3bfcdfafd7a60f64a9eaf844a7a7293e66f336df",
    1: "43dc5986bd5748f01c40b5eacabccd6b83ec3265d264154b5164beb599f63fd8",
    2: "8118f9a2e350be4b9212b9c6eac02fec879340382eac32612f1f8cc70763caed",
}


def case_cfg(case, out, **values):
    template, kind, penalty = CASES[case]
    cfg = config_from_values(parse_flat_text(template.format(kind=kind, penalty=penalty,
                                                             out=out)))
    return cfg.with_values(values)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def stack(cfg, theta_star, root, seeds=(0, 1, 2)):
    """The runs of cfg for seeds as the rows of one loop, each writing to
    root/s<seed>; returns per run (trace, summary) or its NumericError."""
    runs = [(cfg, seed, root / f"s{seed}") for seed in seeds]
    for _, _, run_dir in runs:
        run_dir.mkdir(parents=True)
    return harness._finetune_runs(build_transfer_pair(cfg).target,
                                  build_penalty(cfg, theta_star), theta_star, runs)


def nan_loss_at(monkeypatch, step, row):
    """From now on the quadratic task returns a NaN loss for the row-th run
    at its step-th call, one call a step for a lone run and for a stack."""
    real = QuadraticTask.loss_and_grad
    calls = []

    def faulty(self, theta, batch=None):
        calls.append(1)
        loss, grad = real(self, theta, batch)
        if len(calls) == step:
            if theta.ndim == 1:
                return np.nan, grad
            loss = loss.copy()
            loss[row] = np.nan
        return loss, grad

    monkeypatch.setattr(QuadraticTask, "loss_and_grad", faulty)


def interrupt_at(monkeypatch, step):
    """From now on harness.recadam_step raises KeyboardInterrupt at step."""
    real = harness.recadam_step

    def interrupted(theta, state, *args):
        if state.t + 1 == step:
            raise KeyboardInterrupt
        return real(theta, state, *args)

    monkeypatch.setattr(harness, "recadam_step", interrupted)


def edge_digests(case, out):
    """{steps: sha256 of trace.csv} of lone fine-tunes of the case for EDGE_STEPS."""
    cfg = case_cfg(case, out)
    theta_star, _ = pretrain(cfg, write_outputs=False)
    digests = {}
    for steps in EDGE_STEPS:
        run_dir = out / f"steps{steps}"
        finetune(cfg.with_values({"finetune.steps": steps}), theta_star, seed=7, run_dir=run_dir)
        digests[steps] = sha256(run_dir / "trace.csv")
    return digests


def stack_digests(out):
    cfg = case_cfg("recadam-isotropic", out, **{"finetune.steps": 65})
    theta_star, _ = pretrain(cfg, write_outputs=False)
    stack(cfg, theta_star, out / "stack")
    return {seed: sha256(out / "stack" / f"s{seed}" / "trace.csv") for seed in (0, 1, 2)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lone_traces_at_the_block_edges_are_pinned(tmp_path, case):
    assert edge_digests(case, tmp_path) == EDGE_DIGESTS[case]


def test_stack_traces_across_block_edges_are_pinned(tmp_path):
    assert stack_digests(tmp_path) == STACK_DIGESTS


@pytest.mark.parametrize("fault, step", [("nan", 64), ("nan", 65), ("interrupt", 65),
                                         ("interrupt", 129)])
def test_a_lone_run_stopped_at_a_block_edge_writes_a_prefix(tmp_path, monkeypatch, fault, step):
    cfg = case_cfg("recadam-isotropic", tmp_path)
    theta_star, _ = pretrain(cfg, write_outputs=False)
    finetune(cfg, theta_star, seed=0, run_dir=tmp_path / "whole")
    if fault == "nan":
        nan_loss_at(monkeypatch, step, row=0)
    else:
        interrupt_at(monkeypatch, step)
    with pytest.raises(NumericError if fault == "nan" else KeyboardInterrupt):
        finetune(cfg, theta_star, seed=0, run_dir=tmp_path / "cut")
    assert ((tmp_path / "cut" / "trace.csv").read_bytes()
            == leading_rows(tmp_path / "whole" / "trace.csv", step - 1))


@pytest.mark.parametrize("fault, step", [("nan", 64), ("nan", 65), ("interrupt", 65),
                                         ("interrupt", 129)])
def test_a_stack_stopped_mid_block_writes_prefixes(tmp_path, monkeypatch, fault, step):
    # a NaN retires the middle row alone, in the block of steps 64-84; the
    # rows left go on and must come out whole, in memory and on disk
    cfg = case_cfg("recadam-isotropic", tmp_path)
    theta_star, _ = pretrain(cfg, write_outputs=False)
    whole = stack(cfg, theta_star, tmp_path / "whole")
    if fault == "nan":
        nan_loss_at(monkeypatch, step, row=1)
        results = stack(cfg, theta_star, tmp_path / "cut")
        assert isinstance(results[1], NumericError) and results[1].step == step
        for seed in (0, 2):
            assert np.array_equal(results[seed][0], whole[seed][0])
            assert results[seed][1] == whole[seed][1]
        cut_steps = {0: len(whole[0][0]), 1: step - 1, 2: len(whole[2][0])}
    else:
        interrupt_at(monkeypatch, step)
        with pytest.raises(KeyboardInterrupt):
            stack(cfg, theta_star, tmp_path / "cut")
        cut_steps = dict.fromkeys((0, 1, 2), step - 1)
    for seed, n in cut_steps.items():
        assert ((tmp_path / "cut" / f"s{seed}" / "trace.csv").read_bytes()
                == leading_rows(tmp_path / "whole" / f"s{seed}" / "trace.csv", n))
    assert all(np.isfinite(trace).all() for trace, _ in whole)
    assert [len(read_trace(tmp_path / "whole" / f"s{seed}" / "trace.csv"))
            for seed in (0, 1, 2)] == [130] * 3


@pytest.mark.parametrize("kind, penalty, grad_calls", [
    ("adam", "isotropic", 0), ("adamw", "none", 0),
    ("recadam", "isotropic", 130), ("recadam-coupled", "isotropic", 130)])
def test_a_lone_run_fills_its_columns_once_a_block(tmp_path, monkeypatch, kind, penalty,
                                                    grad_calls):
    # 130 steps are blocks of 64, 64 and 2 steps: three fills, one penalty
    # value call each; only a recall kind takes a penalty gradient, one a step
    cfg = case_cfg("recadam-isotropic", tmp_path, **{"finetune.optimizer.kind": kind,
                                                      "penalty.kind": penalty})
    theta_star, _ = pretrain(cfg, write_outputs=False)
    grads = counted(monkeypatch, "penalty_grad")
    values = counted(monkeypatch, "penalty_loss")
    fills = counted(monkeypatch, "_fill")
    trace, _ = finetune(cfg, theta_star, seed=0)
    assert (len(grads), len(values), len(fills)) == (grad_calls, 3, 3)
    assert len(trace) == 130 and np.isfinite(trace).all()
