"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The transfer fixtures are frozen instances; directional claims
(criteria 7-9) are asserted on medians over the five run seeds baked into
the configs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from recadamlab.config import config_from_values, parse_flat_text
from recadamlab.harness import finetune, pretrain, sweep
from recadamlab.numkit import RandomSource
from recadamlab.optim import (AdamConfig, AdamState, adam_step, adamw_step,
                              coupled_recadam_step, recadam_step,
                              recadam_step_parts)
from recadamlab.recall import PenaltyModel, estimate_diag_fisher, penalty_grad, penalty_loss
from recadamlab.shifting import AnnealSchedule, lambda_at
from recadamlab.tasks import LinearRegressionTask, gen_task

from grad_oracle import finite_diff_grad
from scalar_oracle import quadratic_bowl_trace

DEFAULTS = AdamConfig(alpha=0.1)


def ok(n, message):
    print(f"[PASS] criterion {n}: {message}")


# --- criteria 7/8 fixture: full-batch memorizing transfer instance ----------
# gamma = 5000 forces the slow-warmup schedule: the decoupled recall step
# multiplies (theta - theta*) by eta*(1-lambda)*gamma, which must stay below
# 2 for stability, so eta(t) <= t / 650000 throughout the annealing window.

MLP78_CFG = """
transfer.kind=mlp-1h
transfer.rho=0.7
transfer.seed=11
transfer.dim_in=10
transfer.hidden=16
transfer.classes=3
transfer.n_samples=256
transfer.center_scale=1.0
pretrain.steps=1500
pretrain.batch_size=256
pretrain.optimizer.alpha=0.01
finetune.steps=3000
finetune.batch_size=256
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=1.0
finetune.init=random
finetune.schedule.kind=linear-warmup-constant
finetune.schedule.warmup_steps=1000000
finetune.loss_threshold=0.25
shifting.k={k}
shifting.t0=250
penalty.kind=isotropic
penalty.gamma=5000.0
seeds=101,102,103,104,105
output_dir={out}
"""

# --- criterion 9 fixture: label-noise floor, shared hyperparameters ---------
# all three arms share alpha and the warmup schedule; only optimizer.kind
# and the init strategy differ, so the comparison is controlled

MLP9_CFG = """
transfer.kind=mlp-1h
transfer.rho=0.7
transfer.seed=55
transfer.dim_in=10
transfer.hidden=16
transfer.classes=3
transfer.n_samples=1024
transfer.center_scale=1.0
transfer.label_noise=0.15
pretrain.steps=2000
pretrain.batch_size=64
pretrain.optimizer.alpha=0.01
finetune.steps=12000
finetune.batch_size=64
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.36
finetune.init={init}
finetune.schedule.kind=linear-warmup-constant
finetune.schedule.warmup_steps=650000
shifting.k=0.1
shifting.t0=250
penalty.kind=isotropic
penalty.gamma=5000.0
seeds=101,102,103,104,105
output_dir={out}
"""


@pytest.fixture(scope="module")
def mlp78(tmp_path_factory):
    out = tmp_path_factory.mktemp("mlp78")
    base = config_from_values(parse_flat_text(MLP78_CFG.format(k=0.05, out=out)))
    theta_star, _ = pretrain(base, write_outputs=False)
    started = time.perf_counter()
    runs = {}
    for k in (0.05, 0.2, 1.0):
        cfg = config_from_values(parse_flat_text(MLP78_CFG.format(k=k, out=out)))
        runs[k] = [finetune(cfg, theta_star, seed)[1] for seed in cfg.seeds]
    elapsed = time.perf_counter() - started
    return {"runs": runs, "elapsed": elapsed}


@pytest.fixture(scope="module")
def mlp9(tmp_path_factory):
    out = tmp_path_factory.mktemp("mlp9")
    base = config_from_values(parse_flat_text(
        MLP9_CFG.format(kind="adam", init="pretrained", out=out)))
    theta_star, _ = pretrain(base, write_outputs=False)
    arms = {}
    for name, kind, init in (("vanilla", "adam", "pretrained"),
                             ("recadam_ri", "recadam", "random"),
                             ("recadam_pi", "recadam", "pretrained")):
        cfg = config_from_values(parse_flat_text(
            MLP9_CFG.format(kind=kind, init=init, out=out)))
        arms[name] = [finetune(cfg, theta_star, seed)[1].final_target_loss
                      for seed in cfg.seeds]
    return arms


def test_criterion_1_adam_step_oracle():
    started = time.perf_counter()
    expected = quadratic_bowl_trace(100, alpha=0.1)
    theta = np.array([1.0])
    state = AdamState.fresh(1)
    worst = 0.0
    for step, oracle_theta in enumerate(expected, start=1):
        theta, state = adam_step(theta, state, DEFAULTS, 1.0, theta.copy())
        worst = max(worst, abs(theta[0] - oracle_theta))
        assert abs(theta[0] - oracle_theta) <= 1e-12
        if step == 1:
            assert theta[0] == pytest.approx(0.9000000010, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"100-step scalar oracle, max deviation {worst:.2e}, "
          f"first step {expected[0]:.10f}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_reduction_suite():
    rng = np.random.default_rng(2024)
    theta0 = rng.normal(size=6)
    grads = rng.normal(size=(100, 6))
    anchor = rng.normal(size=6)

    thetas = {name: theta0.copy() for name in ("adam", "adamw", "recadam", "coupled")}
    states = {name: AdamState.fresh(6) for name in thetas}
    for g in grads:
        pen = 4.0 * (thetas["recadam"] - anchor)
        thetas["adam"], states["adam"] = adam_step(
            thetas["adam"], states["adam"], DEFAULTS, 1.0, g)
        thetas["adamw"], states["adamw"] = adamw_step(
            thetas["adamw"], states["adamw"], DEFAULTS, 1.0, g, 0.0)
        thetas["recadam"], states["recadam"] = recadam_step(
            thetas["recadam"], states["recadam"], DEFAULTS, 1.0, g, 1.0, pen)
        thetas["coupled"], states["coupled"] = coupled_recadam_step(
            thetas["coupled"], states["coupled"], DEFAULTS, 1.0, g, 1.0, pen)
        for name in ("adamw", "recadam", "coupled"):
            assert np.array_equal(thetas[name], thetas["adam"])
            assert np.array_equal(states[name].m, states["adam"].m)
            assert np.array_equal(states[name].v, states["adam"].v)
    ok(2, "recadam/coupled at lambda=1 and adamw at wd=0 match adam bitwise "
          "over 100 steps")


def test_criterion_3_decoupling_invariant():
    # two coordinates, 100x gradient asymmetry, equal penalty pull on both
    cfg = AdamConfig(alpha=0.01)
    sched = AnnealSchedule(k=0.05, t0=60)
    anchor = np.array([1.0, 1.0])
    gamma = 1.0
    grad = np.array([100.0, 1.0])

    theta_r = np.zeros(2)
    state_r = AdamState.fresh(2)
    theta_c = np.zeros(2)
    state_c = AdamState.fresh(2)
    ratio_after_warmup = []
    for t in range(1, 121):
        lam = lambda_at(sched, t)
        eta = min(1.0, t / 40)

        pen_r = gamma * (theta_r - anchor)
        theta_r2, state_r, _, pen_term = recadam_step_parts(
            theta_r, state_r, cfg, eta, grad, lam, pen_r)
        assert np.array_equal(pen_term, eta * ((1 - lam) * (gamma * (theta_r - anchor))))
        theta_r = theta_r2

        pen_c = gamma * (theta_c - anchor)
        with_pen, _ = coupled_recadam_step(theta_c, state_c, cfg, eta, grad, lam, pen_c)
        without_pen, _ = coupled_recadam_step(theta_c, state_c, cfg, eta, grad, lam,
                                              np.zeros(2))
        attributable = np.abs(with_pen - without_pen)
        if t > 50:
            ratio_after_warmup.append(attributable[0] / attributable[1])
        theta_c, state_c = coupled_recadam_step(theta_c, state_c, cfg, eta, grad,
                                                lam, pen_c)
    assert max(ratio_after_warmup) < 0.5
    ok(3, "decoupled penalty displacement exact on both coordinates; coupled "
          f"high-gradient ratio {max(ratio_after_warmup):.4f} < 0.5")


def test_criterion_4_annealing_suite():
    for k in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 1000.0):
        assert lambda_at(AnnealSchedule(k=k, t0=250), 250) == 0.5
    sched0 = AnnealSchedule(k=0.0, t0=250)
    assert all(lambda_at(sched0, t) == 0.5 for t in (1, 10, 10**6))
    sched = AnnealSchedule(k=0.1, t0=250)
    # strictly increasing until the sigmoid saturates to exactly 1.0 in
    # float64 (k*(t - t0) beyond ~37); non-decreasing everywhere
    values = [lambda_at(sched, t) for t in range(1, 580)]
    assert all(b > a for a, b in zip(values, values[1:]))
    tail = [lambda_at(sched, t) for t in range(580, 1000)]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    wide = AnnealSchedule(k=0.1, t0=20_000)
    for delta in (1, 10, 100, 10_000):
        total = lambda_at(wide, 20_000 + delta) + lambda_at(wide, 20_000 - delta)
        assert total == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(300):
        lam = lambda_at(AnnealSchedule(k=float(rng.uniform(0, 1000)),
                                       t0=int(rng.integers(0, 10**6))),
                        int(rng.integers(1, 10**7)))
        assert np.isfinite(lam) and 0.0 <= lam <= 1.0
    assert lambda_at(sched, 300) == pytest.approx(0.9933071491, abs=1e-9)
    ok(4, "lambda(t0) = 0.5 for all k; k=0 constant at 0.5; monotone, "
          "symmetric, overflow-free; lambda(300; 0.1, 250) = 0.9933071491")


def test_criterion_5_gradient_correctness():
    def rel_err(approx, exact):
        return np.max(np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-8))

    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        src = RandomSource(9000 + trial)
        tasks = [gen_task("quadratic", 5, src.child("q")),
                 gen_task("linear-regression", 5, src.child("lin"), n_samples=30),
                 gen_task("logistic-regression", 5, src.child("log"), n_samples=30),
                 gen_task("mlp-1h", 0, src.child("mlp"), dim_in=3, hidden=4, classes=2,
                          n_samples=30)]
        for task in tasks:
            theta = rng.normal(size=task.dim)
            batch = None
            if task.dataset_size():
                batch = rng.choice(task.dataset_size(), size=11, replace=False)
            _, grad = task.loss_and_grad(theta, batch)
            worst = max(worst, rel_err(finite_diff_grad(task, theta, batch, 1e-5), grad))
            assert worst < 1e-5

    pen_worst = 0.0
    for trial in range(20):
        dim = int(rng.integers(2, 10))
        anchor = rng.normal(size=dim)
        models = [PenaltyModel("isotropic", anchor, float(rng.uniform(0.5, 50))),
                  PenaltyModel("diagonal-fisher", anchor, fisher_diag=rng.uniform(0, 4, dim),
                               n_obs=int(rng.integers(1, 20)))]
        theta = anchor + rng.normal(size=dim)
        for pen in models:
            exact = penalty_grad(pen, theta)
            fd = np.empty(dim)
            for i in range(dim):
                up = theta.copy(); up[i] += 1e-4
                dn = theta.copy(); dn[i] -= 1e-4
                fd[i] = (penalty_loss(pen, up) - penalty_loss(pen, dn)) / 2e-4
            pen_worst = max(pen_worst, rel_err(fd, exact))
            assert pen_worst < 1e-8
    ok(5, f"gradients match finite differences: tasks {worst:.2e} < 1e-5, "
          f"penalties {pen_worst:.2e} < 1e-8")


def test_criterion_6_pretraining_simulation_exactness():
    task = gen_task("quadratic", 9, RandomSource(600))
    hess = task.curvature  # the exact Hessian of a quadratic task
    rng = np.random.default_rng(6)
    for _ in range(30):
        theta = task.center + rng.normal(size=9)
        expansion = 0.5 * (theta - task.center) @ hess @ (theta - task.center)
        loss, _ = task.loss_and_grad(theta)
        assert abs(expansion - loss) <= 1e-12 * max(1.0, abs(loss))

    anchor = RandomSource(601).normal(10)
    theta = RandomSource(602).normal(10)
    iso = PenaltyModel("isotropic", anchor, 5000.0)
    fisher = PenaltyModel("diagonal-fisher", anchor, fisher_diag=np.ones(10), n_obs=5000)
    assert penalty_loss(iso, theta) == penalty_loss(fisher, theta)
    assert np.array_equal(penalty_grad(iso, theta), penalty_grad(fisher, theta))

    n = 400_000
    draws = RandomSource(300).child("obs").normal(n)
    gauss = LinearRegressionTask(np.ones((n, 1)), 0.7 + draws)
    estimate, _ = estimate_diag_fisher(gauss, np.array([0.7]), 100_000,
                                       RandomSource(42))
    assert 0.99 <= estimate[0] <= 1.01
    ok(6, f"Laplace expansion exact to 1e-12; unit-Fisher penalty reduces to "
          f"isotropic exactly; Gaussian-mean Fisher estimate {estimate[0]:.4f}")


@pytest.mark.slow
def test_criterion_7_forgetting_direction(mlp78):
    meds = {k: float(np.median([s.final_dist_to_pretrained for s in runs]))
            for k, runs in mlp78["runs"].items()}
    assert meds[0.05] < meds[0.2] < meds[1.0]
    assert mlp78["elapsed"] < 120.0
    ok(7, "median final ||theta - theta*|| strictly increasing in k: "
          f"{meds[0.05]:.4f} < {meds[0.2]:.4f} < {meds[1.0]:.4f} "
          f"({mlp78['elapsed']:.1f} s)")


@pytest.mark.slow
def test_criterion_8_convergence_speed_direction(mlp78):
    meds = {}
    for k, runs in mlp78["runs"].items():
        stt = [np.inf if s.steps_to_threshold is None else s.steps_to_threshold
               for s in runs]
        meds[k] = float(np.median(stt))
        assert np.isfinite(meds[k])
    assert meds[0.05] >= meds[0.2] >= meds[1.0]
    ok(8, "median steps-to-threshold non-increasing in k: "
          f"{meds[0.05]:.0f} >= {meds[0.2]:.0f} >= {meds[1.0]:.0f}")


@pytest.mark.slow
def test_criterion_9_init_strategy_direction(mlp9):
    van = float(np.median(mlp9["vanilla"]))
    ri = float(np.median(mlp9["recadam_ri"]))
    pi = float(np.median(mlp9["recadam_pi"]))
    assert ri <= van
    assert pi <= van
    ok(9, f"median final target loss: recadam+RI {ri:.4f} <= vanilla {van:.4f}, "
          f"recadam+PI {pi:.4f} <= vanilla {van:.4f}; RI-vs-PI gap "
          f"{ri - pi:+.4f} (reported, not asserted)")


SWEEP_CFG = """
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed=0
pretrain.steps=1000
pretrain.optimizer.alpha=0.1
finetune.steps=300
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=0.05
finetune.init=random
penalty.kind=isotropic
penalty.gamma=1.0
seeds=0,1
output_dir={out}
"""

FULL_GRID = {"k": (0.05, 0.1, 0.2, 0.5, 1.0), "t0": (100, 250, 500, 1000),
              "gamma": (1.0,), "seeds": (0, 1)}


def test_criterion_10_end_to_end_determinism(tmp_path_factory):
    outs = [tmp_path_factory.mktemp("sweep_a"), tmp_path_factory.mktemp("sweep_b")]
    row_counts = []
    for out in outs:
        cfg = config_from_values(parse_flat_text(SWEEP_CFG.format(out=out)))
        summaries = sweep(cfg, FULL_GRID)
        row_counts.append(len(summaries))
        lines = (Path(out) / "summaries.csv").read_text().splitlines()
        assert len(lines) == 1 + 40
    assert row_counts == [40, 40]

    traces_a = sorted((Path(outs[0]) / "runs").rglob("trace.csv"))
    traces_b = sorted((Path(outs[1]) / "runs").rglob("trace.csv"))
    assert len(traces_a) == len(traces_b) == 40
    for a, b in zip(traces_a, traces_b):
        assert a.relative_to(outs[0]) == b.relative_to(outs[1])
        assert a.read_bytes() == b.read_bytes()
    assert ((Path(outs[0]) / "summaries.csv").read_bytes()
            == (Path(outs[1]) / "summaries.csv").read_bytes())
    ok(10, "5x4 (k, t0) grid x 2 seeds: 40 summary rows; rerun produced "
           "byte-identical trace files")
