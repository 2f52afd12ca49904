import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recadamlab import harness
from recadamlab.cli import main
from recadamlab.config import INIT_KINDS, config_from_values, parse_flat_text
from recadamlab.errors import ConfigError, DimensionError, NoDataError, NumericError
from recadamlab.harness import (TRACE_COLUMNS, build_transfer_pair,
                                finetune, pretrain, read_trace, report, sweep)
from recadamlab.numkit import RandomSource, l2_distance
from recadamlab.optim import SCHEDULE_KINDS, STEPPER_KINDS, AdamConfig
from recadamlab.recall import PENALTY_KINDS, PenaltyModel, penalty_loss
from recadamlab.shifting import AnnealSchedule
from recadamlab.storage import read_vector, write_vector
from recadamlab.tasks import DATASET_KINDS, TASK_KINDS, QuadraticTask, gen_task

QUAD_BASE = """
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed=0
pretrain.steps=2000
pretrain.optimizer.alpha=0.1
finetune.steps=300
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=0.05
finetune.init=random
shifting.k=0.1
shifting.t0=100
penalty.kind=isotropic
penalty.gamma=1.0
seeds=0,1
output_dir={out}
"""


def quad_text(tmp_path, **overrides):
    text = QUAD_BASE.format(out=tmp_path / "exp")
    for key, value in overrides.items():
        line = next(l for l in text.splitlines() if l.startswith(key + "="))
        text = text.replace(line, f"{key}={value}")
    return text


def quad_cfg(tmp_path, **overrides):
    return config_from_values(parse_flat_text(quad_text(tmp_path, **overrides)))


class TestStorage:
    def test_vector_roundtrip_bitwise(self, tmp_path):
        vec = np.random.default_rng(0).normal(size=257)
        path = tmp_path / "theta.bin"
        write_vector(path, vec)
        clone = read_vector(path)
        assert np.array_equal(clone, vec)
        # 8-byte little-endian length header + f8 payload
        raw = path.read_bytes()
        assert len(raw) == 8 + 257 * 8
        assert int.from_bytes(raw[:8], "little") == 257

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "theta.bin"
        write_vector(path, np.arange(4.0))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DimensionError):
            read_vector(path)

    @pytest.mark.parametrize("n", [5, 2**61, 2**64 - 1])
    def test_header_longer_than_file_rejected(self, tmp_path, n):
        # the length is checked against the file size before any data is read
        path = tmp_path / "theta.bin"
        path.write_bytes(n.to_bytes(8, "little") + np.arange(4.0).astype("<f8").tobytes())
        with pytest.raises(DimensionError):
            read_vector(path)


class TestPretrain:
    def test_quadratic_source_converges(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        theta_star, trace = pretrain(cfg)
        assert trace[:, TRACE_COLUMNS.index("target_loss")][-1] < 1e-8
        assert len(trace) == 2000
        assert (Path(cfg.output_dir) / "theta_star.bin").exists()
        saved = read_vector(Path(cfg.output_dir) / "theta_star.bin")
        assert np.array_equal(saved, theta_star)

    def test_penalty_columns_are_zero(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"pretrain.steps": 50})
        _, trace = pretrain(cfg)
        assert np.array_equal(trace[:, TRACE_COLUMNS.index("penalty_value")], np.zeros(50))
        assert np.array_equal(trace[:, TRACE_COLUMNS.index("lambda")], np.ones(50))

    def test_same_config_same_theta_star_bitwise(self, tmp_path):
        cfg_a = quad_cfg(tmp_path / "a", **{"pretrain.steps": 400})
        cfg_b = quad_cfg(tmp_path / "b", **{"pretrain.steps": 400})
        ta, _ = pretrain(cfg_a)
        tb, _ = pretrain(cfg_b)
        assert np.array_equal(ta, tb)

    @pytest.mark.pinned_bytes
    @pytest.mark.parametrize("kind, digest", [
        ("quadratic", "5f72b184ecc2faaf627e347c41b388a2950f02e034365f0e76310b3990b89a3b"),
        ("logistic-regression",
         "edbf523045b0824fa649a9d0eaa08a2b51ae3a24aa59478955e11615fbf55193")])
    def test_pretrain_trace_is_pinned(self, tmp_path, kind, digest):
        # sha256 of pretrain_trace.csv; 130 steps are fill blocks of 64, 64 and 2 rows
        cfg = quad_cfg(tmp_path, **{"transfer.kind": kind, "pretrain.steps": 130})
        pretrain(cfg)
        trace_bytes = (Path(cfg.output_dir) / "pretrain_trace.csv").read_bytes()
        assert hashlib.sha256(trace_bytes).hexdigest() == digest

    def test_zero_steps_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            quad_cfg(tmp_path, **{"pretrain.steps": 0})

    def test_a_failed_checkpoint_write_keeps_the_previous_one(self, tmp_path, monkeypatch):
        # the second pretrain's theta_star.bin write stops half-way, as on a full
        # disk: the first checkpoint stays whole, and a later sweep reads it
        cfg = quad_cfg(tmp_path, **{"pretrain.steps": 100, "finetune.steps": 20})
        theta_star, _ = pretrain(cfg)
        trace_bytes = (Path(cfg.output_dir) / "pretrain_trace.csv").read_bytes()
        real = harness.write_vector

        def half(path, values):
            real(path, values)
            with open(path, "r+b") as fh:
                fh.truncate(8 + 4 * values.size)
            raise OSError("disk full")

        monkeypatch.setattr(harness, "write_vector", half)
        with pytest.raises(OSError, match="disk full"):
            pretrain(cfg.with_values({"pretrain.steps": 50}))
        monkeypatch.undo()
        out = Path(cfg.output_dir)
        assert sorted(p.name for p in out.iterdir()) == ["pretrain_trace.csv", "theta_star.bin"]
        assert np.array_equal(read_vector(out / "theta_star.bin"), theta_star)
        assert (out / "pretrain_trace.csv").read_bytes() == trace_bytes
        assert len(sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0,)})) == 1

    def test_a_failed_trace_write_leaves_the_new_checkpoint_alone(self, tmp_path, monkeypatch):
        # theta_star.bin is published and the earlier trace removed before the
        # new trace is written: the new checkpoint is left beside no trace
        # rather than beside the earlier run's
        cfg = quad_cfg(tmp_path, **{"pretrain.steps": 100})
        pretrain(cfg)
        short = cfg.with_values({"pretrain.steps": 50})
        theta_star, _ = pretrain(short, write_outputs=False)
        failing_publishes(monkeypatch, lambda path: path.name == "pretrain_trace.csv")
        with pytest.raises(OSError, match="disk full"):
            pretrain(short)
        out = Path(cfg.output_dir)
        assert sorted(p.name for p in out.iterdir()) == ["theta_star.bin"]  # no .tmp
        assert np.array_equal(read_vector(out / "theta_star.bin"), theta_star)

    def test_a_failed_pretrain_keeps_the_previous_pair(self, tmp_path, monkeypatch):
        # a 60-step pretrain whose stepper fails at step 30 publishes nothing:
        # the earlier checkpoint and trace stay, byte for byte
        cfg = quad_cfg(tmp_path, **{"pretrain.steps": 100})
        pretrain(cfg)
        out = Path(cfg.output_dir)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real = harness.adam_step
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 30:
                raise NumericError("non-finite values in gradient", step=30)
            return real(*args)

        monkeypatch.setattr(harness, "adam_step", failing)
        with pytest.raises(NumericError):
            pretrain(cfg.with_values({"pretrain.steps": 60}))
        assert sorted(before) == ["pretrain_trace.csv", "theta_star.bin"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestFinetune:
    def test_zero_gamma_zeroes_the_penalty_column(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"penalty.gamma": 0.0})
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=0)
        assert np.array_equal(trace[:, TRACE_COLUMNS.index("penalty_value")], np.zeros(300))
        # lambda schedule still active
        assert trace[-1, TRACE_COLUMNS.index("lambda")] > trace[0, TRACE_COLUMNS.index("lambda")]

    def test_saturated_shifting_reduces_to_adam_bitwise(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        theta_star, _ = pretrain(cfg)
        rec_cfg = cfg.with_values({"shifting.k": 1000.0, "shifting.t0": 0})
        adam_cfg = cfg.with_values({"finetune.optimizer.kind": "adam"})
        rec_trace, _ = finetune(rec_cfg, theta_star, seed=0)
        adam_trace, _ = finetune(adam_cfg, theta_star, seed=0)
        assert np.array_equal(rec_trace[:, TRACE_COLUMNS.index("target_loss")],
                              adam_trace[:, TRACE_COLUMNS.index("target_loss")])
        assert np.array_equal(rec_trace[:, TRACE_COLUMNS.index("dist_to_pretrained")],
                              adam_trace[:, TRACE_COLUMNS.index("dist_to_pretrained")])

    @pytest.mark.parametrize("kind", ["recadam", "recadam-coupled"])
    def test_saturated_shifting_takes_no_penalty_gradient(self, tmp_path, kind):
        # lambda is exactly 1.0 at every step, so the loop steps as Adam and neither takes
        # nor checks a penalty gradient: one that overflows (gamma * |theta - theta*| past
        # the largest float, whose weight 1 - lambda is 0) stops no run
        cfg = quad_cfg(tmp_path, **{"pretrain.steps": 1000, "penalty.gamma": 1e308,
                                    "shifting.k": 1000.0, "shifting.t0": 0})
        theta_star, _ = pretrain(cfg, write_outputs=False)
        rec_trace, _ = finetune(cfg.with_values({"finetune.optimizer.kind": kind}),
                                theta_star, seed=0)
        adam_trace, _ = finetune(cfg.with_values({"finetune.optimizer.kind": "adam"}),
                                 theta_star, seed=0)
        same = [TRACE_COLUMNS.index(name)
                for name in ("target_loss", "dist_to_pretrained", "grad_norm")]
        assert len(rec_trace) == 300
        assert rec_trace[:, same].tobytes() == adam_trace[:, same].tobytes()
        # the first logged penalty overflows too, and 0 * inf makes the composite NaN
        assert rec_trace[0, TRACE_COLUMNS.index("penalty_value")] == np.inf
        assert np.isnan(rec_trace[0, TRACE_COLUMNS.index("composite_loss")])

    def test_identical_tasks_start_at_the_optimum(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"transfer.rho": 1.0,
                                    "finetune.optimizer.kind": "adam",
                                    "finetune.init": "pretrained"})
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=0)
        assert trace[:, TRACE_COLUMNS.index("target_loss")][0] < 1e-6

    def test_early_recall_dip_from_random_init(self, tmp_path):
        cfg = quad_cfg(tmp_path)  # k=0.1, gamma=1, init=random
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=0)
        dist = trace[:, TRACE_COLUMNS.index("dist_to_pretrained")]
        assert dist[49] < dist[0]

    def test_lambda_is_nondecreasing_and_final_row_is_max(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=1)
        lam = trace[:, TRACE_COLUMNS.index("lambda")]
        assert np.all(lam[-1] >= lam)

    def test_trace_files_are_byte_identical_across_reruns(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        theta_star, _ = pretrain(cfg)
        finetune(cfg, theta_star, seed=1, run_dir=tmp_path / "r1")
        finetune(cfg, theta_star, seed=1, run_dir=tmp_path / "r2")
        assert ((tmp_path / "r1" / "trace.csv").read_bytes()
                == (tmp_path / "r2" / "trace.csv").read_bytes())

    def test_trace_csv_format(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 5})
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=0, run_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 6
        # 17-significant-digit reals reload to the exact binary values
        reloaded = read_trace(tmp_path / "run" / "trace.csv")
        assert trace.shape == reloaded.shape == (5, len(TRACE_COLUMNS))
        assert trace.tobytes() == reloaded.tobytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 130])
    def test_finish_gives_the_bytes_of_one_format_a_row(self, tmp_path, n_rows):
        # each block of at most 64 rows goes through one %, the last one shorter;
        # the rows cycle through the edge floats in every column but step
        edges = [0.0, -0.0, 5e-324, 1e16, 1e17, float("nan"), float("inf"), float("-inf")]
        rows = np.resize(np.array(edges), (n_rows, len(TRACE_COLUMNS)))
        rows[:, 0] = np.arange(1, n_rows + 1)
        harness._finish(rows, tmp_path / "trace.csv")
        expected = "".join(harness._ROW_FORMAT % tuple(r) for r in rows.tolist()).encode()
        assert (tmp_path / "trace.csv").read_bytes() == (
            ",".join(TRACE_COLUMNS) + "\n").encode() + expected
        if n_rows:  # and every edge float reads back to its own bits
            assert read_trace(tmp_path / "trace.csv").tobytes() == rows.tobytes()

    def test_summary_fields(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        cfg = cfg.with_values({"finetune.loss_threshold": 1e-3})
        theta_star, _ = pretrain(cfg)
        trace, summary = finetune(cfg, theta_star, seed=0)
        assert summary.best_target_loss == trace[:, TRACE_COLUMNS.index("target_loss")].min()
        assert summary.final_dist_to_pretrained >= 0
        assert summary.seed == 0
        assert summary.config_hash == cfg.config_hash()
        losses = trace[:, TRACE_COLUMNS.index("target_loss")]
        first = np.nonzero(losses < 1e-3)[0]
        expected = int(first[0]) + 1 if first.size else None
        assert summary.steps_to_threshold == expected

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        with pytest.raises(ConfigError):
            finetune(cfg, np.zeros(5), seed=0)

    def test_diagonal_fisher_penalty_runs(self, tmp_path):
        # n_obs * F_i is large, so the recall force must be gated by a slow
        # warmup to keep eta*(1-lambda)*N*F below the stability bound
        cfg = quad_cfg(tmp_path, **{"transfer.kind": "logistic-regression",
                                    "transfer.dim": 6,
                                    "pretrain.steps": 300,
                                    "pretrain.optimizer.alpha": 0.05,
                                    "penalty.kind": "diagonal-fisher"})
        cfg = cfg.with_values({"finetune.schedule.kind": "linear-warmup-constant",
                               "finetune.schedule.warmup_steps": 20_000})
        theta_star, _ = pretrain(cfg)
        trace, summary = finetune(cfg, theta_star, seed=0)
        assert np.all(np.isfinite(trace[:, TRACE_COLUMNS.index("penalty_value")]))
        assert np.all(trace[:, TRACE_COLUMNS.index("penalty_value")] >= 0)
        assert trace[:, TRACE_COLUMNS.index("penalty_value")].max() > 0


    def test_no_penalty_ignores_gamma(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"penalty.kind": "none", "finetune.steps": 60})
        theta_star, _ = pretrain(cfg, write_outputs=False)
        trace, _ = finetune(cfg, theta_star, seed=0, run_dir=tmp_path / "g1")
        assert np.array_equal(trace[:, TRACE_COLUMNS.index("penalty_value")], np.zeros(60))
        finetune(cfg.with_values({"penalty.gamma": 50.0}), theta_star, seed=0,
                 run_dir=tmp_path / "g50")
        assert ((tmp_path / "g1" / "trace.csv").read_bytes()
                == (tmp_path / "g50" / "trace.csv").read_bytes())

    def test_coupled_variant_runs_through_the_harness(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.optimizer.kind": "recadam-coupled",
                                    "penalty.gamma": 5000.0})
        theta_star, _ = pretrain(cfg)
        trace, summary = finetune(cfg, theta_star, seed=0)
        # the coupled variant folds the penalty into the adapted gradient, so
        # even gamma=5000 stays bounded by the Adam step size
        assert np.all(np.isfinite(trace[:, TRACE_COLUMNS.index("target_loss")]))
        assert np.isfinite(summary.final_target_loss)

    def test_stepper_table_holds_every_optimizer_kind(self):
        # the config accepts every STEPPER_KINDS value; one missing here would
        # end a run with a KeyError traceback instead of a config error
        assert set(harness._STEPPERS) == set(STEPPER_KINDS)


class TestSweep:
    def test_grid_point_config_hash_is_pinned(self):
        # the hash the earlier nested dataclasses.replace gave the same point
        from test_acceptance import SWEEP_CFG
        cfg = config_from_values(parse_flat_text(SWEEP_CFG.format(out="out")))
        runs = harness._grid_runs(cfg, {"k": (0.5,), "t0": (250,), "gamma": (2.5,),
                                        "seeds": (1,)})
        assert list(runs) == ["k0.5-t250-g2.5-s1"]
        point, run_cfg = runs["k0.5-t250-g2.5-s1"]
        assert point == {"k": 0.5, "t0": 250, "gamma": 2.5, "seed": 1}
        assert run_cfg.config_hash() == "25008b768813"

    def test_grid_produces_one_row_per_combination(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 60})
        summaries = sweep(cfg, {"k": (0.05, 0.2), "t0": (50, 100),
                                "gamma": (1.0,), "seeds": (0, 1)})
        assert len(summaries) == 8
        lines = (Path(cfg.output_dir) / "summaries.csv").read_text().splitlines()
        assert len(lines) == 9
        assert (Path(cfg.output_dir) / "best_config.txt").exists()
        run_dirs = sorted((Path(cfg.output_dir) / "runs").iterdir())
        assert len(run_dirs) == 8

    def test_single_point_grid_matches_finetune(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 80})
        theta_star, _ = pretrain(cfg)
        summaries = sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (1,)})
        _, direct = finetune(cfg, theta_star, seed=1)
        assert summaries[0] == direct

    def test_shuffled_grid_same_summary_set(self, tmp_path):
        cfg_a = quad_cfg(tmp_path / "a", **{"finetune.steps": 40})
        cfg_b = quad_cfg(tmp_path / "b", **{"finetune.steps": 40})
        sa = sweep(cfg_a, {"k": (0.05, 0.2), "t0": (50,), "gamma": (1.0, 2.0),
                           "seeds": (0,)})
        sb = sweep(cfg_b, {"k": (0.2, 0.05), "t0": (50,), "gamma": (2.0, 1.0),
                           "seeds": (0,)})
        key = lambda s: (s.config_hash, s.seed)
        assert sorted(map(key, sa)) == sorted(map(key, sb))
        assert {s.final_target_loss for s in sa} == {s.final_target_loss for s in sb}

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_runs_are_recorded_and_skipped(self, tmp_path):
        # gamma=5000 with a constant schedule makes the decoupled recall term
        # eta*(1-lambda)*gamma explode; the sweep must survive it
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 200})
        summaries = sweep(cfg, {"k": (0.1,), "t0": (100,), "gamma": (1.0, 5000.0),
                                "seeds": (0,)})
        assert len(summaries) == 1
        text = (Path(cfg.output_dir) / "summaries.csv").read_text()
        assert re.search(r"failed:step\d+,", text)
        assert text.count("\n") == 3  # header + ok row + failed row

    def test_reuses_existing_checkpoint(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 30})
        theta_star, _ = pretrain(cfg)
        mutated = theta_star.copy()
        mutated[0] += 1.0
        write_vector(Path(cfg.output_dir) / "theta_star.bin", mutated)
        sweep(cfg, {"k": (0.1,), "t0": (100,), "gamma": (1.0,), "seeds": (0,)})
        run_dir = next((Path(cfg.output_dir) / "runs").iterdir())
        trace = read_trace(run_dir / "trace.csv")
        # distance column is measured against the stored checkpoint
        _, direct = finetune(cfg, mutated, seed=0)
        assert trace[:, TRACE_COLUMNS.index("dist_to_pretrained")][-1] > 0
        assert direct.final_dist_to_pretrained > 0


FISHER_BASE = """
transfer.kind=logistic-regression
transfer.dim=6
transfer.rho=0.7
transfer.seed=4
transfer.n_samples=256
pretrain.steps=150
pretrain.batch_size=32
pretrain.optimizer.alpha=0.05
finetune.steps=90
finetune.batch_size=32
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.02
finetune.init={init}
finetune.schedule.kind=linear-warmup-constant
finetune.schedule.warmup_steps=20000
penalty.kind=diagonal-fisher
penalty.fisher_samples=64
seeds=0
output_dir={out}
"""


def counted(monkeypatch, name):
    """Count the calls of the harness-module function name."""
    calls = []
    real = getattr(harness, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, wrapper)
    return calls


def recorded_opens(monkeypatch):
    """Every file the harness module opens from now on, in order."""
    files = []

    def recorded(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(harness, "open", recorded, raising=False)
    return files


def failing_publishes(monkeypatch, fails):
    """Make harness._published raise OSError("disk full") once the .tmp of each path
    that fails(path) picks is written; returns every path published, in order."""
    real = harness._published
    published = []

    @contextlib.contextmanager
    def failing(path):
        published.append(Path(path))
        with real(path) as tmp:
            yield tmp
            if fails(Path(path)):
                assert tmp.exists()
                raise OSError("disk full")

    monkeypatch.setattr(harness, "_published", failing)
    return published


def recorded_run(run_dir):
    """(run config, seed) from the config.json in run_dir."""
    flat = json.loads((Path(run_dir) / "config.json").read_text())
    seed = int(flat.pop("run_seed"))
    return config_from_values(parse_flat_text(
        "\n".join(f"{key}={value}" for key, value in flat.items()))), seed


def leading_rows(path, n):
    """The bytes of the header and the first n rows of the trace file path."""
    return b"".join(Path(path).read_bytes().splitlines(keepends=True)[:n + 1])


def assert_runs_match_lone_finetunes(cfg, theta_star, lone_root):
    """Each run of the sweep in cfg.output_dir holds the same trace.csv,
    summary.json and config.json bytes as a lone finetune of its recorded
    config and seed; a failed run's status names the step at which its lone
    finetune raised, and its partial trace stops the step before."""
    out = Path(cfg.output_dir)
    with open(out / "summaries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(list((out / "runs").iterdir()))
    statuses = []
    for row in rows:
        run_dir = out / "runs" / harness._run_id(float(row["k"]), int(row["t0"]),
                                                 float(row["gamma"]), int(row["seed"]))
        run_cfg, seed = recorded_run(run_dir)
        lone = lone_root / run_dir.name
        try:
            finetune(run_cfg, theta_star, seed, run_dir=lone)
        except NumericError as exc:
            assert row["status"] == f"failed:step{exc.step}"
            assert len(read_trace(run_dir / "trace.csv")) == exc.step - 1
        else:
            assert row["status"] == "ok"
        statuses.append(row["status"])
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(p.name for p in lone.iterdir())
        for path in lone.iterdir():
            assert (run_dir / path.name).read_bytes() == path.read_bytes(), (run_dir, path.name)
    return statuses


# small task sizes per kind, so that one example of the property test runs in milliseconds
SMALL_TASKS = {
    "quadratic": {"transfer.dim": 5},
    "linear-regression": {"transfer.dim": 4, "transfer.n_samples": 60},
    "logistic-regression": {"transfer.dim": 4, "transfer.n_samples": 60},
    "mlp-1h": {"transfer.dim_in": 2, "transfer.hidden": 3, "transfer.classes": 2,
               "transfer.n_samples": 60},
}


@st.composite
def small_sweeps(draw):
    """(typed config values without output_dir, sweep grid): any task kind,
    optimizer, penalty (a Fisher only on a dataset kind), init and schedule,
    1-2 k, 1-2 gamma (isotropic only) and 1-3 seeds."""
    kind = draw(st.sampled_from(TASK_KINDS))
    penalty = draw(st.sampled_from([p for p in PENALTY_KINDS
                                    if kind in DATASET_KINDS or p != "diagonal-fisher"]))
    warmup = draw(st.integers(0, 10))
    values = {"transfer.kind": kind, "transfer.rho": 0.6, "transfer.seed": draw(st.integers(0, 9)),
              **SMALL_TASKS[kind], "pretrain.steps": 10, "pretrain.optimizer.alpha": 0.1,
              "finetune.steps": draw(st.integers(1, 40)),
              "finetune.batch_size": draw(st.integers(1, 50)),
              "finetune.optimizer.kind": draw(st.sampled_from(STEPPER_KINDS)),
              "finetune.optimizer.alpha": 0.05, "finetune.optimizer.weight_decay": 0.01,
              "finetune.init": draw(st.sampled_from(INIT_KINDS)),
              "finetune.schedule.kind": draw(st.sampled_from(SCHEDULE_KINDS)),
              "finetune.schedule.warmup_steps": warmup,
              "finetune.schedule.total_steps": warmup + draw(st.integers(1, 40)),
              "penalty.kind": penalty, "penalty.fisher_samples": 16,
              "shifting.t0": draw(st.integers(0, 30))}

    def some(options, most):
        return draw(st.lists(st.sampled_from(options), min_size=1, max_size=most, unique=True))

    grid = {"k": some((0.0, 0.1, 1.0, 50.0), 2), "t0": None,
            "gamma": some((0.0, 1.0, 5000.0), 2) if penalty == "isotropic" else None,
            "seeds": some(range(6), 3)}
    return values, grid


# run in a child process: argv is the config text, a harness function (_published or a
# stepper) and the call n that SIGKILLs the process: a publish once its .tmp is written
_KILLED_SWEEP = """
import contextlib, os, signal, sys
from pathlib import Path
from recadamlab import harness
from recadamlab.config import config_from_values, parse_flat_text

cfg = config_from_values(parse_flat_text(sys.argv[1]))
name, calls = sys.argv[2], []
real = getattr(harness, name)

def kill_at_call_n():
    calls.append(1)
    if len(calls) == int(sys.argv[3]):
        os.kill(os.getpid(), signal.SIGKILL)

@contextlib.contextmanager
def publishing(path):
    with real(path) as tmp:
        yield tmp
        kill_at_call_n()

def stepping(*args):
    kill_at_call_n()
    return real(*args)

harness._SWEEP_CHUNK = 2
setattr(harness, name, publishing if name == "_published" else stepping)
harness.sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)})
harness.report(Path(cfg.output_dir) / "runs")
"""


class TestBatchedSweep:
    """A sweep advances its runs together, as the rows of one loop; every
    run's files are the bytes a lone finetune writes."""

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("chunk, budget", [(64, 2**18), (3, 2**18), (64, 300)])
    def test_quadratic_grid_equals_lone_runs(self, tmp_path, monkeypatch, chunk, budget):
        # gamma=5000 with a constant schedule diverges: those rows fail at
        # their own steps while the gamma=1 rows of the same stack go on
        monkeypatch.setattr(harness, "_SWEEP_CHUNK", chunk)
        monkeypatch.setattr(harness, "_TRACE_ROW_BUDGET", budget)
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 150, "pretrain.steps": 500})
        theta_star, _ = pretrain(cfg)
        sweep(cfg, {"k": (0.05, 0.5), "t0": (20, 100), "gamma": (1.0, 5000.0),
                    "seeds": (0, 1)})
        statuses = assert_runs_match_lone_finetunes(cfg, theta_star, tmp_path / "lone")
        assert statuses.count("ok") == 10
        assert set(statuses) - {"ok"} == {"failed:step43", "failed:step48"}

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_a_dataset_stack_whose_first_runs_fail_equals_lone_runs(self, tmp_path):
        # both gamma=5000 runs are the first rows of the stack and fail at step
        # 113, so the gamma=1 runs move up two rows and train on alone
        cfg = config_from_values({
            "transfer.kind": "logistic-regression", "transfer.dim": 6, "transfer.rho": 0.6,
            "transfer.seed": 3, "transfer.n_samples": 64, "pretrain.steps": 50,
            "pretrain.optimizer.alpha": 0.1, "finetune.steps": 150, "finetune.batch_size": 16,
            "finetune.optimizer.kind": "recadam", "finetune.optimizer.alpha": 0.05,
            "shifting.t0": 20, "output_dir": str(tmp_path / "exp")})
        theta_star, _ = pretrain(cfg)
        sweep(cfg, {"k": (0.05,), "t0": None, "gamma": (5000.0, 1.0), "seeds": (0, 1)})
        statuses = assert_runs_match_lone_finetunes(cfg, theta_star, tmp_path / "lone")
        assert statuses == ["failed:step113"] * 2 + ["ok"] * 2

    @pytest.mark.parametrize("kind, init", [("recadam", "random"),
                                            ("recadam-coupled", "pretrained")])
    def test_diagonal_fisher_grid_equals_lone_runs(self, tmp_path, monkeypatch, kind, init):
        # per-run batch streams, and one Fisher diagonal shared by every run
        cfg = config_from_values(parse_flat_text(FISHER_BASE.format(
            kind=kind, init=init, out=tmp_path / "exp")))
        theta_star, _ = pretrain(cfg)
        fisher_calls = counted(monkeypatch, "estimate_diag_fisher")
        sweep(cfg, {"k": (0.1, 1.0), "t0": (10, 40), "gamma": None, "seeds": (0, 1, 2)})
        assert len(fisher_calls) == 1
        statuses = assert_runs_match_lone_finetunes(cfg, theta_star, tmp_path / "lone")
        assert statuses == ["ok"] * 12

    @pytest.mark.filterwarnings("ignore:overflow")
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(small_sweeps())
    def test_every_stack_equals_its_lone_runs(self, sweep_case):
        values, grid = sweep_case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = config_from_values({**values, "output_dir": str(Path(tmp) / "exp")})
            theta_star, _ = pretrain(cfg)
            sweep(cfg, grid)
            assert_runs_match_lone_finetunes(cfg, theta_star, Path(tmp) / "lone")

    def test_sweep_builds_the_transfer_pair_once(self, tmp_path, monkeypatch):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 100})
        grid = {"k": (0.1, 0.2), "t0": (5, 10), "gamma": (1.0, 2.0), "seeds": (0, 1)}
        pair_calls = counted(monkeypatch, "gen_transfer_pair")
        # theta_star.bin is missing: the sweep pretrains on the pair it fine-tunes on
        assert len(sweep(cfg, grid)) == 16
        assert len(pair_calls) == 1
        # a second sweep, a pretrain and a lone finetune of the config reuse that pair
        assert len(sweep(cfg, grid)) == 16
        theta_star, _ = pretrain(cfg, write_outputs=False)
        finetune(cfg, theta_star, seed=0)
        assert len(pair_calls) == 1

    def test_sweep_builds_each_lambda_column_once(self, tmp_path, monkeypatch):
        # 16 runs share 4 schedules (k, t0): 4 columns of 20 steps, not 16
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 100})
        grid = {"k": (0.1, 0.2), "t0": (5, 10), "gamma": (1.0, 2.0), "seeds": (0, 1)}
        lambda_calls = counted(monkeypatch, "lambda_at")
        assert len(sweep(cfg, grid)) == 16
        assert len(lambda_calls) == 4 * 20

    @pytest.mark.parametrize("steps, stacks", [(40, [2, 2, 2]), (150, [1] * 6)])
    def test_a_long_sweep_runs_in_smaller_chunks(self, tmp_path, monkeypatch, steps, stacks):
        # a chunk holds at most _TRACE_ROW_BUDGET trace rows, and at least one run
        monkeypatch.setattr(harness, "_TRACE_ROW_BUDGET", 100)
        cfg = quad_cfg(tmp_path, **{"finetune.steps": steps, "pretrain.steps": 100})
        pretrain(cfg)
        sizes = []
        real = harness._run_loop

        def recorded(task, theta0, *args, **kwargs):
            sizes.append(len(theta0))
            return real(task, theta0, *args, **kwargs)

        monkeypatch.setattr(harness, "_run_loop", recorded)
        summaries = sweep(cfg, {"k": (0.1, 0.2, 0.3), "t0": None, "gamma": None,
                                "seeds": (0, 1)})
        assert len(summaries) == 6
        assert sizes == stacks

    @pytest.mark.parametrize("bad, message, step", [
        ("loss", "non-finite loss at step 3", 3),
        ("gradient", "non-finite values in gradient", 3),
        ("penalty gradient", "non-finite values in penalty gradient", 1)])
    @pytest.mark.parametrize("n_runs", [1, 2])
    def test_a_failing_run_gets_the_lone_run_message(self, bad, message, step, n_runs):
        # the message a lone finetune raised before runs were stacked, and
        # the CLI prints; in a stack of two, only the failing row leaves
        class Bowl:
            """0.5 |theta|^2 for one run or a stack, with a NaN in row 0 at step 3."""
            calls = 0

            def dataset_size(self):
                return 0

            def loss_and_grad(self, theta, batch=None):
                self.calls += 1
                stack = np.atleast_2d(theta)
                losses, grads = 0.5 * (stack * stack).sum(axis=1), stack.copy()
                if self.calls == 3 and bad == "loss":
                    losses[0] = np.nan
                if self.calls == 3 and bad == "gradient":
                    grads[0, 1] = np.nan
                return (losses, grads) if theta.ndim == 2 else (float(losses[0]), grads[0])

        gammas = [np.inf if bad == "penalty gradient" else 1.0, 1.0][:n_runs]
        results = harness._run_loop(
            Bowl(), np.ones((n_runs, 2)), 5, 1, [None] * n_runs, None,
            PenaltyModel("isotropic", np.zeros(2), 1.0), "recadam", AdamConfig(alpha=0.1),
            anneals=[AnnealSchedule(0.1, 2)] * n_runs, gammas=gammas)
        assert isinstance(results[0], NumericError)
        assert (str(results[0]), results[0].step) == (message, step)
        if n_runs == 2:
            trace, _ = results[1]
            assert len(trace) == 5

    def test_each_run_of_a_mixed_stack_gets_the_first_check_it_fails(self):
        # run 0 has a NaN loss and gradient at step 3, run 1 a NaN gradient at
        # step 3, and run 3 an infinite gamma, so an infinite penalty gradient
        # at step 1: each run gets the message of the first check it fails, in
        # the order loss, gradient, penalty gradient, and run 2 trains to the end
        class Bowl:
            """0.5 |theta|^2 for a stack, with NaNs in rows 0 and 1 at step 3."""
            calls = 0

            def dataset_size(self):
                return 0

            def loss_and_grad(self, theta, batch=None):
                self.calls += 1
                losses, grads = 0.5 * (theta * theta).sum(axis=1), theta.copy()
                if self.calls == 3:
                    losses[0] = grads[0, 1] = grads[1, 0] = np.nan
                return losses, grads

        results = harness._run_loop(
            Bowl(), np.ones((4, 2)), 5, 1, [None] * 4, None,
            PenaltyModel("isotropic", np.zeros(2), 1.0), "recadam", AdamConfig(alpha=0.1),
            anneals=[AnnealSchedule(0.1, 2)] * 4, gammas=[1.0, 1.0, 1.0, np.inf])
        assert [(str(error), error.step) for error in results[:2] + results[3:]] == [
            ("non-finite loss at step 3", 3), ("non-finite values in gradient", 3),
            ("non-finite values in penalty gradient", 1)]
        trace, _ = results[2]
        assert len(trace) == 5

    def test_runs_that_go_on_draw_from_their_own_batch_streams(self):
        # run 0 leaves the stack at step 1 (an infinite gamma), so runs 1 and 2
        # move up a row and must still draw their own seeds' batches; in the
        # dataset sweep whose first runs fail, a run that moved up shares its
        # seed, so its batches, with the retired run whose row it took
        task = gen_task("logistic-regression", 4, RandomSource(0), n_samples=60)

        def run(gammas, seeds):
            return harness._run_loop(
                task, np.ones((len(seeds), 4)), 20, 8,
                [RandomSource(seed).child("batches") for seed in seeds], None,
                PenaltyModel("isotropic", np.zeros(4), 1.0), "recadam", AdamConfig(alpha=0.1),
                anneals=[AnnealSchedule(0.1, 5)] * len(seeds), gammas=gammas)

        stacked = run([np.inf, 1.0, 1.0], (0, 1, 2))
        assert isinstance(stacked[0], NumericError) and stacked[0].step == 1
        for seed, (trace, theta) in zip((1, 2), stacked[1:]):
            [(lone_trace, lone_theta)] = run([1.0], (seed,))
            assert np.array_equal(trace, lone_trace)
            assert np.array_equal(theta, lone_theta)

    def test_an_error_mid_run_leaves_the_rows_before_it(self, tmp_path, monkeypatch):
        # the rows are written as the exception passes: every step the run took
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 150, "pretrain.steps": 100,
                                    "finetune.optimizer.kind": "adam"})
        theta_star, _ = pretrain(cfg)
        finetune(cfg, theta_star, seed=0, run_dir=tmp_path / "whole")
        real = harness.adam_step
        calls = []

        def interrupted(*args):
            calls.append(1)
            if len(calls) == 100:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(harness, "adam_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            finetune(cfg, theta_star, seed=0, run_dir=tmp_path / "run")
        assert ((tmp_path / "run" / "trace.csv").read_bytes()
                == leading_rows(tmp_path / "whole" / "trace.csv", 99))

    def _interrupt_sweep_at_step_100(self, tmp_path, monkeypatch):
        """A three-run quadratic sweep whose stepper raises KeyboardInterrupt
        at batched step 100, which leaves every trace file closed; returns
        the run directories."""
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 150, "pretrain.steps": 100})
        pretrain(cfg)
        real = harness.recadam_step
        calls = []

        def interrupted(*args):
            calls.append(1)
            if len(calls) == 100:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(harness, "recadam_step", interrupted)
        files = recorded_opens(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)})
        run_dirs = sorted((Path(cfg.output_dir) / "runs").iterdir())
        assert len(run_dirs) == len(files) == 3
        assert all(fh.closed for fh in files)
        return run_dirs

    def test_an_interrupted_sweep_writes_every_run_up_to_it(self, tmp_path, monkeypatch):
        # each file holds the first 99 rows of its run left alone, byte for byte
        run_dirs = self._interrupt_sweep_at_step_100(tmp_path, monkeypatch)
        monkeypatch.undo()
        theta_star = read_vector(run_dirs[0].parents[1] / "theta_star.bin")
        for run_dir in run_dirs:
            run_cfg, seed = recorded_run(run_dir)
            finetune(run_cfg, theta_star, seed, run_dir=tmp_path / "whole" / run_dir.name)
            assert ((run_dir / "trace.csv").read_bytes()
                    == leading_rows(tmp_path / "whole" / run_dir.name / "trace.csv", 99))
            assert not (run_dir / "summary.json").exists()

    def test_a_failed_write_hides_no_interrupt_and_closes_every_file(self, tmp_path,
                                                                     monkeypatch):
        # the second run's write fails: the other runs are still written, every
        # file is closed, the KeyboardInterrupt passing through is what raises,
        # and the failed run is left neither a trace.csv nor its temporary file
        failing_publishes(monkeypatch, lambda path: path.name == "trace.csv"
                          and path.parent.name.endswith("s1"))
        run_dirs = self._interrupt_sweep_at_step_100(tmp_path, monkeypatch)
        assert [len(read_trace(d / "trace.csv")) for d in run_dirs[::2]] == [99, 99]
        assert sorted(p.name for p in run_dirs[1].iterdir()) == ["config.json"]  # no .tmp

    def test_a_failed_write_at_the_end_raises_and_closes_every_file(self, tmp_path,
                                                                    monkeypatch):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 100})
        pretrain(cfg)
        failing_publishes(monkeypatch, lambda path: path.name == "trace.csv")
        files = recorded_opens(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)})
        assert len(files) == 3 and all(fh.closed for fh in files)

    def test_no_trace_file_exists_while_a_stack_trains(self, tmp_path, monkeypatch):
        # a process killed mid-stack leaves no trace.csv that looks complete
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 30, "pretrain.steps": 100})
        theta_star, _ = pretrain(cfg)
        runs = Path(cfg.output_dir) / "runs"
        real = harness.recadam_step
        seen = []

        def spy(*args):
            if not seen:
                seen.append(sorted(runs.glob("*/trace.csv")))
            return real(*args)

        monkeypatch.setattr(harness, "recadam_step", spy)
        sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)})
        assert seen == [[]]
        assert len(list(runs.glob("*/config.json"))) == 3
        statuses = assert_runs_match_lone_finetunes(cfg, theta_star, tmp_path / "lone")
        assert statuses == ["ok"] * 3

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_a_failed_run_is_written_at_the_exit_with_the_others(self, tmp_path,
                                                                  monkeypatch):
        # the gamma=5000 run fails at step 48 and its write raises: the
        # gamma=1 run still trains to the end and is written, every file is
        # closed, the OSError passes out after the last file, and the failed
        # run is left neither a trace.csv nor its temporary file
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 150, "pretrain.steps": 500})
        pretrain(cfg)
        published = failing_publishes(monkeypatch, lambda path: path.name == "trace.csv"
                                      and "-g5000-" in path.parent.name)
        files = recorded_opens(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            sweep(cfg, {"k": (0.05,), "t0": (20,), "gamma": (1.0, 5000.0), "seeds": (0,)})
        written = [path.parent.name for path in published if path.name == "trace.csv"]
        assert sorted(written) == ["k0.05-t20-g1-s0", "k0.05-t20-g5000-s0"]
        assert len(files) == 2 and all(fh.closed for fh in files)
        runs = Path(cfg.output_dir) / "runs"
        assert len(read_trace(runs / "k0.05-t20-g1-s0" / "trace.csv")) == 150
        assert sorted(p.name for p in (runs / "k0.05-t20-g5000-s0").iterdir()) == ["config.json"]
        assert not list(runs.glob("*/*.tmp"))

    def test_a_failed_summary_write_leaves_the_run_out_of_the_report(self, tmp_path,
                                                                     monkeypatch):
        # the second run's summary.json write stops half-way, as on a full disk:
        # that run is left no summary.json and no temporary file, so report
        # skips it instead of refusing the directory; the third run's is written
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 100})
        pretrain(cfg)
        real = Path.write_text

        def half(self, text, *args, **kwargs):
            if self.name.startswith("summary.json") and self.parent.name.endswith("-s1"):
                real(self, text[:len(text) // 2], *args, **kwargs)
                raise OSError("disk full")
            return real(self, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", half)
        with pytest.raises(OSError, match="disk full"):
            sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)})
        monkeypatch.undo()
        runs = Path(cfg.output_dir) / "runs"
        assert sorted(p.name for p in (runs / "k0.1-t100-g1-s1").iterdir()) == [
            "config.json", "trace.csv"]
        assert (runs / "k0.1-t100-g1-s2" / "summary.json").exists()
        report(runs)
        with open(runs / "summary_median.csv", newline="") as fh:
            assert [row["n_runs"] for row in csv.DictReader(fh)] == ["2"]

    def test_a_failed_summaries_write_leaves_the_previous_table(self, tmp_path, monkeypatch):
        # the summaries.csv write stops half-way through its rows, as on a full
        # disk: the table of an earlier sweep stays as it was, with no temporary file
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 100})
        out = Path(cfg.output_dir)
        out.mkdir(parents=True)
        (out / "summaries.csv").write_bytes(b"the previous table\r\n")
        real = harness._format_cell
        cells = []

        def half(value):
            cells.append(value)
            if len(cells) == 2 * len(harness.SUMMARY_FIELDS):  # the second of three rows
                assert (out / "summaries.csv.tmp").exists()
                raise OSError("disk full")
            return real(value)

        monkeypatch.setattr(harness, "_format_cell", half)
        with pytest.raises(OSError, match="disk full"):
            sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)})
        assert (out / "summaries.csv").read_bytes() == b"the previous table\r\n"
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("rows", [None, np.ones(3, dtype=bool)])
    def test_a_check_that_marks_no_failed_run_passes_out(self, tmp_path, monkeypatch, rows):
        # a NumericError that does not say which runs failed, or says none did,
        # retires no run: it passes out of the sweep instead of being retried,
        # and every run keeps the rows of the steps before it
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 100})
        whole = quad_cfg(tmp_path / "whole", **{"finetune.steps": 20, "pretrain.steps": 100})
        grid = {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)}
        sweep(whole, grid)
        real = harness.recadam_step
        calls = []

        def faulty(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NumericError("boom", step=3, rows=rows)
            return real(*args)

        def hung(signum, frame):
            raise TimeoutError("sweep did not return within 10 s")

        monkeypatch.setattr(harness, "recadam_step", faulty)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(NumericError, match="boom"):
                sweep(cfg, grid)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(calls) == 3
        run_dirs = sorted((Path(cfg.output_dir) / "runs").iterdir())
        assert len(run_dirs) == 3
        for run_dir in run_dirs:
            assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "trace.csv"]
            assert ((run_dir / "trace.csv").read_bytes()
                    == leading_rows(Path(whole.output_dir) / "runs" / run_dir.name
                                    / "trace.csv", 2))

    def _interrupt_two_chunk_sweep(self, tmp_path, monkeypatch, call):
        """A four-run quadratic sweep of 30 steps in chunks of two runs, whose
        stepper raises KeyboardInterrupt at its call-th call; returns the runs dir."""
        monkeypatch.setattr(harness, "_SWEEP_CHUNK", 2)
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 30, "pretrain.steps": 100})
        pretrain(cfg)
        real = harness.recadam_step
        calls = []

        def interrupted(*args):
            calls.append(1)
            if len(calls) == call:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(harness, "recadam_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2, 3)})
        monkeypatch.undo()
        return Path(cfg.output_dir) / "runs"

    def test_an_interrupt_in_a_later_chunk_keeps_the_chunks_before_it(self, tmp_path,
                                                                      monkeypatch):
        # the first chunk took 30 stepper calls; the second stops at its step 10
        runs = self._interrupt_two_chunk_sweep(tmp_path, monkeypatch, 30 + 10)
        theta_star = read_vector(runs.parent / "theta_star.bin")
        run_dirs = sorted(runs.iterdir())
        assert [d.name[-2:] for d in run_dirs] == ["s0", "s1", "s2", "s3"]
        for run_dir in run_dirs:
            run_cfg, seed = recorded_run(run_dir)
            lone = tmp_path / "lone" / run_dir.name
            finetune(run_cfg, theta_star, seed, run_dir=lone)
            if seed < 2:  # complete: the bytes of a lone finetune
                for name in ("config.json", "trace.csv", "summary.json"):
                    assert (run_dir / name).read_bytes() == (lone / name).read_bytes()
            else:
                assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "trace.csv"]
                assert ((run_dir / "trace.csv").read_bytes()
                        == leading_rows(lone / "trace.csv", 9))
        report(runs)
        with open(runs / "summary_median.csv", newline="") as fh:
            assert [row["n_runs"] for row in csv.DictReader(fh)] == ["2"]

    def test_an_interrupt_in_the_first_chunk_leaves_later_chunks_no_directory(
            self, tmp_path, monkeypatch):
        runs = self._interrupt_two_chunk_sweep(tmp_path, monkeypatch, 10)
        assert [d.name[-2:] for d in sorted(runs.iterdir())] == ["s0", "s1"]
        for run_dir in runs.iterdir():
            assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "trace.csv"]
            assert len(read_trace(run_dir / "trace.csv")) == 9

    def test_a_failed_publish_leaves_only_clean_files(self, tmp_path, monkeypatch):
        # a 3-run sweep in chunks of two, then report, once cleanly; then again in
        # a fresh directory of the same path (config.json records it) for each
        # publish n, the n-th raising OSError once its .tmp is written
        monkeypatch.setattr(harness, "_SWEEP_CHUNK", 2)
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 50})
        grid = {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)}
        out = Path(cfg.output_dir)
        real = harness._published
        published = []

        @contextlib.contextmanager
        def injected(path):
            published.append(Path(path).name)
            with real(path) as tmp:
                yield tmp
                if len(published) == fail_at:
                    assert tmp.exists()
                    raise OSError(f"injected failure of publish {fail_at}")

        def files():
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def run():
            sweep(cfg, grid)
            report(out / "runs")

        fail_at = 0
        monkeypatch.setattr(harness, "_published", injected)
        run()
        clean = files()
        names = published[:]
        assert names == (["theta_star.bin", "pretrain_trace.csv"]
                         + ["config.json"] * 2 + ["trace.csv"] * 2 + ["summary.json"] * 2
                         + ["config.json", "trace.csv", "summary.json", "summaries.csv",
                            "best_config.txt", "learning_curves.csv", "summary_median.csv"])
        for n, name in enumerate(names, start=1):
            shutil.rmtree(out)
            published.clear()
            fail_at = n
            with pytest.raises(OSError, match=f"publish {n}$"):
                run()
            fail_at = 0
            left = files()
            assert not [path for path in left if path.suffix == ".tmp"], n
            assert left.items() <= clean.items(), n
            try:
                report(out / "runs")
            except NoDataError:
                pass
            run()
            # a failed pretrain_trace.csv publish leaves theta_star.bin, which the
            # re-run reuses: no pretrain runs, so no pretrain trace is written
            lost = Path("pretrain_trace.csv") if name == "pretrain_trace.csv" else None
            assert files() == {path: data for path, data in clean.items() if path != lost}, n

    def _sweeps_to_kill(self, tmp_path, monkeypatch):
        """The sweep and report of the test above, run cleanly in this process.  Returns
        (its files, the paths it published in order, kill, rerun): kill(name, n) runs
        them afresh in a child process that SIGKILLs itself at the n-th call of
        harness.<name>, checks that it died so and returns the files left; rerun() runs
        them here and returns the files.  Files map a path under output_dir to its bytes."""
        text = quad_text(tmp_path, **{"finetune.steps": 20, "pretrain.steps": 50})
        cfg = config_from_values(parse_flat_text(text))
        out = Path(cfg.output_dir)
        real = harness._published
        published = []

        @contextlib.contextmanager
        def recorded(path):
            published.append(Path(path).relative_to(out))
            with real(path) as tmp:
                yield tmp

        def files():
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def rerun():
            sweep(cfg, {"k": None, "t0": None, "gamma": None, "seeds": (0, 1, 2)})
            report(out / "runs")
            return files()

        # the child finds the package where this process imported it
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}

        def kill(name, n):
            shutil.rmtree(out)
            child = subprocess.run([sys.executable, "-c", _KILLED_SWEEP, text, name, str(n)],
                                   env=env, capture_output=True, text=True, timeout=60)
            assert child.returncode == -signal.SIGKILL, (name, n, child.stderr)
            return files()

        monkeypatch.setattr(harness, "_SWEEP_CHUNK", 2)
        monkeypatch.setattr(harness, "_published", recorded)
        clean = rerun()
        assert len(published) == 15
        return clean, published, kill, rerun

    @pytest.mark.skipif(os.name != "posix", reason="SIGKILL is POSIX")
    def test_a_publish_killed_before_its_rename_leaves_only_clean_files(self, tmp_path,
                                                                         monkeypatch):
        # the sweep and report of the test above, cleanly in this process; then, for
        # a chosen publish n, in a child process that SIGKILLs itself once the n-th
        # publish has written its .tmp and before the rename, then a re-run here
        clean, published, kill, rerun = self._sweeps_to_kill(tmp_path, monkeypatch)
        # the checkpoint, the pretrain trace, a chunk-one trace.csv, the chunk-two
        # summary.json, summaries.csv and a report table
        for n in (1, 2, 5, 11, 12, 14):
            left = kill("_published", n)
            killed = Path(f"{published[n - 1]}.tmp")
            assert [path for path in left if path.suffix == ".tmp"] == [killed], n
            assert ({path: data for path, data in left.items() if path != killed}.items()
                    <= clean.items()), n
            after = rerun()
            if n == 2:
                # a killed pretrain_trace.csv publish leaves theta_star.bin, which the
                # re-run reuses: no pretrain runs, so no pretrain trace is written, and
                # the re-run removes the killed publish's .tmp
                assert after == {path: data for path, data in clean.items()
                                 if path != Path("pretrain_trace.csv")}
            else:
                assert after == clean, n

    @pytest.mark.skipif(os.name != "posix", reason="SIGKILL is POSIX")
    def test_a_sweep_killed_mid_chunk_leaves_only_clean_files(self, tmp_path, monkeypatch):
        # the same sweep and report, killed in a child process at the n-th call of a
        # stepper, between publishes: mid-pretrain (50 steps), then mid chunk one and
        # mid chunk two (20 steps each); it leaves no .tmp and only files of clean
        # bytes, those published before the kill, and a re-run gives every file back
        clean, _, kill, rerun = self._sweeps_to_kill(tmp_path, monkeypatch)

        def run_files(seed, *names):
            return [f"runs/k0.1-t100-g1-s{seed}/{name}" for name in names]

        pair = ["theta_star.bin", "pretrain_trace.csv"]
        chunk_one = [path for seed in (0, 1)
                     for path in run_files(seed, "config.json", "trace.csv", "summary.json")]
        for name, n, expected in (
                ("adam_step", 25, []),
                ("recadam_step", 10, pair + run_files(0, "config.json")
                 + run_files(1, "config.json")),
                ("recadam_step", 30, pair + chunk_one + run_files(2, "config.json"))):
            left = kill(name, n)
            assert not [path for path in left if path.suffix == ".tmp"], (name, n)
            assert left == {path: clean[path] for path in map(Path, expected)}, (name, n)
            assert rerun() == clean, (name, n)

    @pytest.mark.parametrize("dim, runs", [(1, 1), (6, 2), (12, 40), (33, 7)])
    def test_stacked_quadratic_gradient_is_bit_equal_per_row(self, dim, runs):
        # the loop hands a quadratic task the whole (runs, dim) stack at once
        task = gen_task("quadratic", dim, RandomSource(dim))
        theta = RandomSource(runs).normal((runs, dim), scale=3.0)
        losses, grads = task.loss_and_grad(theta)
        assert losses.shape == (runs,) and grads.shape == (runs, dim)
        for row, loss, grad in zip(theta, losses, grads):
            lone_loss, lone_grad = task.loss_and_grad(row)
            assert loss == lone_loss
            assert np.array_equal(grad, lone_grad)
        with pytest.raises(DimensionError):
            task.loss_and_grad(np.zeros((runs, dim + 1)))

    @pytest.mark.parametrize("dim, runs", [(1, 1), (6, 2), (12, 40), (33, 7)])
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_stacked_penalty_value_and_distance_are_bit_equal_per_row(self, kind, dim, runs):
        # the loop's fill hands both a (runs, steps, dim) block of thetas, with an
        # (runs, 1, 1) gamma; the stepper's penalty takes (runs, dim) with (runs, 1)
        theta_star, fisher = RandomSource(dim).normal(dim), RandomSource(dim + 1).uniform(size=dim)
        theta = RandomSource(runs).normal((runs, 3, dim), scale=3.0)
        gamma = RandomSource(runs + 1).uniform(0.5, 5000.0, (runs, 1))
        pen = PenaltyModel(kind, theta_star, 2.0, fisher, n_obs=7)
        values, dists = penalty_loss(pen, theta, gamma[:, None]), l2_distance(theta, theta_star)
        firsts = penalty_loss(pen, theta[:, 0], gamma)
        assert values.shape == dists.shape == (runs, 3) and firsts.shape == (runs,)
        for i in range(runs):
            lone = PenaltyModel(kind, theta_star, float(gamma[i, 0]), fisher, n_obs=7)
            assert firsts[i] == penalty_loss(lone, theta[i, 0])
            for t in range(3):
                assert values[i, t] == penalty_loss(lone, theta[i, t])
                assert dists[i, t] == l2_distance(theta[i, t], theta_star)
        assert isinstance(penalty_loss(pen, theta[0, 0]), float)
        assert isinstance(l2_distance(theta[0, 0], theta_star), float)
        with pytest.raises(DimensionError):
            l2_distance(np.zeros((runs, dim + 1)), theta_star)

    def test_two_runs_failing_in_one_block_leave_lone_prefixes(self, tmp_path, monkeypatch):
        # three runs fill blocks of 21 steps; in the block of steps 22-42, run 0
        # gets a NaN loss at step 30 and run 2, then the second of two rows, a NaN
        # gradient at step 35, while run 1 trains to the end
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 60, "pretrain.steps": 100})
        theta_star, _ = pretrain(cfg)
        lone = {seed: finetune(cfg, theta_star, seed, run_dir=tmp_path / "lone" / f"s{seed}")
                for seed in (0, 1, 2)}
        real = QuadraticTask.loss_and_grad
        faults = {30: (0, "loss"), 35: (1, "gradient")}  # call -> (row of the stack, value)
        calls = []

        def faulty(self, theta, batch=None):
            calls.append(1)
            losses, grads = real(self, theta, batch)
            if len(calls) in faults:
                row, value = faults[len(calls)]
                losses, grads = losses.copy(), grads.copy()
                if value == "loss":
                    losses[row] = np.nan
                else:
                    grads[row, 0] = np.nan
            return losses, grads

        monkeypatch.setattr(QuadraticTask, "loss_and_grad", faulty)
        root = tmp_path / "stack"
        results = harness._finetune_runs(
            build_transfer_pair(cfg).target, harness.build_penalty(cfg, theta_star), theta_star,
            [(cfg, seed, root / f"s{seed}") for seed in (0, 1, 2)])
        assert [(str(results[i]), results[i].step) for i in (0, 2)] == [
            ("non-finite loss at step 30", 30), ("non-finite values in gradient", 35)]
        for seed, step in ((0, 30), (2, 35)):
            assert ((root / f"s{seed}" / "trace.csv").read_bytes()
                    == leading_rows(tmp_path / "lone" / f"s{seed}" / "trace.csv", step - 1))
            assert not (root / f"s{seed}" / "summary.json").exists()
        trace, summary = results[1]
        assert np.array_equal(trace, lone[1][0]) and summary == lone[1][1]
        for name in ("config.json", "trace.csv", "summary.json"):
            assert (root / "s1" / name).read_bytes() == (tmp_path / "lone" / "s1" / name).read_bytes()

    def test_finite_losses_whose_sum_overflows_are_not_a_failure(self):
        # three rows, each loss 8.45e307: the losses are finite one by one,
        # their sum is not.  A summed check would fail a step in which no row
        # can be retired; the alarm turns a retry loop into a failure.
        def hung(signum, frame):
            raise TimeoutError("_run_loop did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            results = harness._run_loop(
                QuadraticTask(np.eye(1), np.zeros(1)), np.full((3, 1), 1.3e154), 3, 1,
                [None] * 3, None, PenaltyModel("none", np.zeros(1)), "adam", AdamConfig(alpha=0.1))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        for trace, theta in results:
            assert len(trace) == 3
            assert np.isfinite(trace).all() and np.isfinite(theta).all()


class TestMemo:
    """The transfer pair and the Fisher diagonal are each held in a one-entry
    memo: a process that repeats one config builds each once, and a warm run
    writes the bytes a cold one writes."""

    @staticmethod
    def fisher_cfg(tmp_path, **values):
        return config_from_values(parse_flat_text(FISHER_BASE.format(
            kind="recadam-coupled", init="pretrained", out=tmp_path / "exp"))).with_values(values)

    @staticmethod
    def clear():
        harness._pair_of.cache_clear()
        harness._fisher_of.cache_clear()

    def test_lone_fisher_runs_build_once_and_write_cold_bytes(self, tmp_path, monkeypatch):
        cfg = self.fisher_cfg(tmp_path)
        pair_calls = counted(monkeypatch, "gen_transfer_pair")
        fisher_calls = counted(monkeypatch, "estimate_diag_fisher")
        theta_star, _ = pretrain(cfg, write_outputs=False)
        for seed in range(5):
            finetune(cfg, theta_star, seed, run_dir=tmp_path / "warm" / str(seed))
        assert (len(pair_calls), len(fisher_calls)) == (1, 1)
        for seed in range(5):
            self.clear()
            finetune(cfg, theta_star, seed, run_dir=tmp_path / "cold" / str(seed))
            for name in ("trace.csv", "summary.json"):
                assert ((tmp_path / "warm" / str(seed) / name).read_bytes()
                        == (tmp_path / "cold" / str(seed) / name).read_bytes())
        assert (len(pair_calls), len(fisher_calls)) == (6, 6)

    @pytest.mark.parametrize("change", ["theta_star", "penalty.fisher_samples",
                                        "transfer.seed", "theta_star in place"])
    def test_a_changed_key_estimates_again(self, tmp_path, monkeypatch, change):
        cfg = self.fisher_cfg(tmp_path)
        theta_star = pretrain(cfg, write_outputs=False)[0].copy()
        fisher_calls = counted(monkeypatch, "estimate_diag_fisher")
        first = harness.build_penalty(cfg, theta_star)
        first_fisher = first.fisher_diag.copy()
        if change == "theta_star":
            theta_star = theta_star + 0.25
        elif change == "theta_star in place":
            theta_star[0] += 0.25
        else:
            cfg = cfg.with_values({change: {"penalty.fisher_samples": 65,
                                            "transfer.seed": 5}[change]})
        warm = harness.build_penalty(cfg, theta_star)
        assert len(fisher_calls) == 2
        assert warm.theta_star is theta_star
        assert not np.array_equal(warm.fisher_diag, first_fisher)
        self.clear()
        cold = harness.build_penalty(cfg, theta_star)
        assert np.array_equal(cold.fisher_diag, warm.fisher_diag)
        assert cold.n_obs == warm.n_obs

    def test_a_warm_penalty_equals_a_cold_one(self, tmp_path):
        cfg = self.fisher_cfg(tmp_path)
        theta_star, _ = pretrain(cfg, write_outputs=False)
        cold = harness.build_penalty(cfg, theta_star)
        warm = harness.build_penalty(cfg, theta_star)
        assert warm is not cold and warm.theta_star is theta_star
        assert warm.fisher_diag.tobytes() == cold.fisher_diag.tobytes()
        assert (warm.kind, warm.n_obs) == (cold.kind, cold.n_obs)

    def test_the_memoized_arrays_are_read_only(self, tmp_path):
        cfg = self.fisher_cfg(tmp_path)
        theta_star, _ = pretrain(cfg, write_outputs=False)
        with pytest.raises(ValueError):
            harness.build_penalty(cfg, theta_star).fisher_diag[0] = 1.0
        with pytest.raises(ValueError):
            build_transfer_pair(cfg).target.features[0, 0] = 1.0
        quad = build_transfer_pair(quad_cfg(tmp_path))
        for array in (quad.source.center, quad.target.curvature):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_a_run_on_another_config_evicts_the_first(self, tmp_path, monkeypatch):
        cfg_a = self.fisher_cfg(tmp_path)
        cfg_b = cfg_a.with_values({"transfer.seed": 5})
        theta_star, _ = pretrain(cfg_a, write_outputs=False)
        pair_calls = counted(monkeypatch, "gen_transfer_pair")
        fisher_calls = counted(monkeypatch, "estimate_diag_fisher")
        finetune(cfg_a, theta_star, seed=0)
        finetune(cfg_b, theta_star, seed=0)
        assert harness._pair_of.cache_info().currsize == 1
        assert harness._fisher_of.cache_info().currsize == 1
        finetune(cfg_a, theta_star, seed=0)
        assert (len(pair_calls), len(fisher_calls)) == (2, 3)


class TestReport:
    def _sweep(self, tmp_path, steps=40):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": steps})
        sweep(cfg, {"k": (0.05, 0.2), "t0": (100,), "gamma": (1.0,),
                    "seeds": (0, 1, 2)})
        return cfg

    def test_learning_curves_and_medians(self, tmp_path):
        cfg = self._sweep(tmp_path)
        out = Path(cfg.output_dir)
        written = report(out)
        curves = (out / "learning_curves.csv").read_text().splitlines()
        assert curves[0] == ("step,target_loss_k=0.05,dist_k=0.05,"
                             "target_loss_k=0.2,dist_k=0.2")
        assert len(curves) == 41
        # median of three runs equals the sorted middle value
        runs_dir = out / "runs"
        finals = []
        for seed in (0, 1, 2):
            trace = read_trace(runs_dir / f"k0.05-t100-g1-s{seed}" / "trace.csv")
            finals.append(trace[:, TRACE_COLUMNS.index("target_loss")][0])
        first_row = curves[1].split(",")
        assert float(first_row[1]) == sorted(finals)[1]
        summary_lines = (out / "summary_median.csv").read_text().splitlines()
        assert len(summary_lines) == 3  # two configurations
        assert not (out / "init_comparison.csv").exists()
        assert len(written) == 2

    def test_init_comparison_has_two_rows_per_metric(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 30})
        theta_star, _ = pretrain(cfg)
        out = Path(cfg.output_dir)
        for init in ("random", "pretrained"):
            icfg = cfg.with_values({"finetune.init": init})
            for seed in (0, 1):
                finetune(icfg, theta_star, seed, run_dir=out / "runs" / f"{init}-{seed}")
        report(out)
        lines = (out / "init_comparison.csv").read_text().splitlines()
        assert lines[0] == "metric,init,median"
        assert len(lines) == 1 + 3 * 2
        for metric in ("final_target_loss", "best_target_loss",
                       "final_dist_to_pretrained"):
            rows = [l for l in lines[1:] if l.startswith(metric + ",")]
            assert len(rows) == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_runs_are_left_out_of_the_curves(self, tmp_path):
        # gamma=50 with a constant schedule diverges part-way, leaving
        # partial traces; the curves come from the completed runs only
        cfg = quad_cfg(tmp_path, **{"transfer.dim": 6})
        sweep(cfg, {"k": (0.1,), "t0": (100,), "gamma": (1.0, 50.0), "seeds": (0, 1)})
        out = Path(cfg.output_dir)
        statuses = (out / "summaries.csv").read_text()
        assert statuses.count("failed:step93,") == 2
        report(out)
        assert len((out / "learning_curves.csv").read_text().splitlines()) == 1 + 300
        # a directory holding only a failed run has nothing to report
        with pytest.raises(NoDataError):
            report(out / "runs" / "k0.1-t100-g50-s0")

    def test_empty_directory_raises_no_data(self, tmp_path):
        with pytest.raises(NoDataError):
            report(tmp_path)

    @staticmethod
    def _csv_module_curves(out):
        """learning_curves.csv as csv.writer writes it: str(step), then the
        _fmt cell of each step's median target loss and distance per k."""
        by_k = {}
        for config_path in sorted(out.rglob("config.json")):
            if config_path.with_name("summary.json").exists():
                k = float(json.loads(config_path.read_text())["shifting.k"])
                by_k.setdefault(k, []).append(read_trace(config_path.with_name("trace.csv")))
        ks = sorted(by_k)
        n_steps = min(len(trace) for traces in by_k.values() for trace in traces)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step"] + [f"{name}_k={k:g}" for k in ks
                                    for name in ("target_loss", "dist")])
        for t in range(n_steps):
            writer.writerow([str(t + 1)] + [
                harness._fmt(float(np.median([trace[t, TRACE_COLUMNS.index(name)]
                                              for trace in by_k[k]])))
                for k in ks for name in ("target_loss", "dist_to_pretrained")])
        return buf.getvalue().encode()

    def test_learning_curves_are_the_csv_module_bytes(self, tmp_path):
        # three k values with 4, 3 and 2 completed runs: even and odd medians
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 40})
        sweep(cfg, {"k": (0.05, 0.2, 1.0), "t0": (20,), "gamma": (1.0,),
                    "seeds": (0, 1, 2, 3)})
        runs = Path(cfg.output_dir) / "runs"
        for run_id in ("k0.2-t20-g1-s3", "k1-t20-g1-s2", "k1-t20-g1-s3"):
            (runs / run_id / "summary.json").unlink()
        report(runs)
        expected = self._csv_module_curves(runs)
        assert expected.count(b"\r\n") == 41
        assert (runs / "learning_curves.csv").read_bytes() == expected

    @pytest.mark.parametrize("steps", [63, 64, 65, 128, 129])
    def test_curve_rows_at_block_edges_are_the_csv_module_bytes(self, tmp_path, steps):
        # curve rows go out in blocks of 64: a tail, none, or one row after them
        cfg = self._sweep(tmp_path, steps)
        out = Path(cfg.output_dir)
        report(out)
        expected = self._csv_module_curves(out)
        assert expected.count(b"\r\n") == 1 + steps
        assert (out / "learning_curves.csv").read_bytes() == expected

    def test_report_holds_less_than_the_whole_traces(self, tmp_path):
        # report keeps two of a trace's eight columns: its traced peak stays
        # below the bytes of every run's whole (n_steps, 8) float64 trace
        cfg = self._sweep(tmp_path, 2000)
        out = Path(cfg.output_dir)
        report(out)  # a first call, so one-time costs such as imports are not counted
        tracemalloc.start()
        try:
            report(out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * (6 * 2000 * len(TRACE_COLUMNS) * 8)

    def test_edge_float_curves_are_the_csv_module_bytes(self, tmp_path):
        # two runs whose traces hold edge values, so each median is the value
        # itself (np.median turns -0.0 into 0.0, so -0.0 is checked below)
        edges = [0.0, -0.0, 5e-324, 1e16, 1e17, float("nan"), float("inf"), float("-inf")]
        cfg = quad_cfg(tmp_path, **{"finetune.steps": len(edges)})
        theta_star, _ = pretrain(cfg, write_outputs=False)
        out = Path(cfg.output_dir)
        for seed in (0, 1):
            run_dir = out / "runs" / f"r{seed}"
            trace, _ = finetune(cfg, theta_star, seed, run_dir=run_dir)
            data = trace.copy()
            data[:, TRACE_COLUMNS.index("target_loss")] = edges
            data[:, TRACE_COLUMNS.index("dist_to_pretrained")] = edges[::-1]
            (run_dir / "trace.csv").write_text(",".join(TRACE_COLUMNS) + "\n" + "".join(
                harness._ROW_FORMAT % tuple(row) for row in data.tolist()))
        report(out)
        assert (out / "learning_curves.csv").read_bytes() == self._csv_module_curves(out)
        # the row format report writes, against csv.writer on every edge value
        buf = io.StringIO()
        csv.writer(buf).writerow([str(3), *map(harness._fmt, edges)])
        assert ("%d" + ",%.17g" * len(edges) + "\r\n") % (3, *edges) == buf.getvalue()


class TestReadTrace:
    """Damaged and empty trace files, and damaged summary.json and config.json
    files.  A damaged file sits in a completed run (one with summary.json), so
    report reads it and must refuse it, naming the file."""

    def _completed_run(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.steps": 5})
        theta_star, _ = pretrain(cfg, write_outputs=False)
        out = Path(cfg.output_dir)
        finetune(cfg, theta_star, seed=0, run_dir=out / "runs" / "r0")
        return out, out / "runs" / "r0" / "trace.csv"

    def _assert_report_is_no_data(self, out, trace_path, capsys):
        with pytest.raises(NoDataError, match=re.escape(str(trace_path))):
            report(out)
        assert main(["report", "--dir", str(out)]) == 4
        assert str(trace_path) in capsys.readouterr().err

    def test_row_with_seven_fields_is_no_data(self, tmp_path, capsys):
        out, path = self._completed_run(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))
        self._assert_report_is_no_data(out, path, capsys)

    def test_every_row_with_seven_fields_is_no_data(self, tmp_path, capsys):
        out, path = self._completed_run(tmp_path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [r.rsplit(",", 1)[0] for r in rows]) + "\n")
        self._assert_report_is_no_data(out, path, capsys)

    def test_wrong_header_is_no_data(self, tmp_path, capsys):
        out, path = self._completed_run(tmp_path)
        path.write_text(path.read_text().replace("grad_norm", "gradnorm", 1))
        self._assert_report_is_no_data(out, path, capsys)

    def test_non_numeric_cell_is_no_data(self, tmp_path, capsys):
        out, path = self._completed_run(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "5x," + lines[2].split(",", 1)[1]
        path.write_text("".join(lines))
        self._assert_report_is_no_data(out, path, capsys)

    def _set_steps(self, path, steps):
        header, *rows = path.read_text().splitlines()
        rows = [f"{step}," + row.split(",", 1)[1] for step, row in zip(steps, rows)]
        path.write_text("\n".join([header] + rows) + "\n")

    def test_non_integer_step_is_no_data(self, tmp_path, capsys):
        out, path = self._completed_run(tmp_path)
        self._set_steps(path, ["1", "1.5", "3", "4", "5"])
        self._assert_report_is_no_data(out, path, capsys)

    def test_step_gap_is_no_data(self, tmp_path, capsys):
        out, path = self._completed_run(tmp_path)
        self._set_steps(path, ["1", "2", "3", "4", "7"])
        self._assert_report_is_no_data(out, path, capsys)

    def test_reordered_steps_are_no_data(self, tmp_path, capsys):
        out, path = self._completed_run(tmp_path)
        self._set_steps(path, ["1", "3", "2", "4", "5"])
        self._assert_report_is_no_data(out, path, capsys)

    @pytest.mark.parametrize("damage", [
        lambda data: data[:90] + b"\xff" + data[91:],
        lambda data: b"\xff\xfe" + data,
    ], ids=["byte-90", "prefix"])
    def test_undecodable_bytes_near_the_start_are_no_data(self, tmp_path, capsys, damage):
        # the header pass reads a first block of text, before loadtxt parses the file
        out, path = self._completed_run(tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        self._assert_report_is_no_data(out, path, capsys)

    @pytest.mark.parametrize("name, damage", [
        ("summary.json", lambda text: text[:len(text) // 2]),
        ("summary.json", lambda text: text.replace('"seed"', '"run_seed"')),
        ("config.json", lambda text: text[:len(text) // 2]),
        ("config.json", lambda text: "[]"),
    ], ids=["summary-truncated", "summary-missing-field", "config-truncated", "config-list"])
    def test_damaged_run_json_is_no_data(self, tmp_path, capsys, name, damage):
        out, trace_path = self._completed_run(tmp_path)
        path = trace_path.with_name(name)
        path.write_text(damage(path.read_text()))
        self._assert_report_is_no_data(out, path, capsys)

    @pytest.mark.parametrize("name, key, value", [
        ("config.json", "shifting.k", None),
        ("config.json", "finetune.init", 3),
        ("summary.json", "final_target_loss", "abc"),
        ("summary.json", "steps_to_threshold", 2.5),
        ("summary.json", "config_hash", None),
        ("config.json", "shifting.k", "abc"),
        ("config.json", "shifting.k", "nan"),
    ], ids=["config-without-k", "config-numeric-init", "summary-text-loss",
            "summary-float-steps", "summary-null-hash", "config-text-k", "config-nan-k"])
    def test_wrong_json_content_is_no_data(self, tmp_path, capsys, name, key, value):
        # the file parses, but a key report reads is missing (None), holds a
        # value of the wrong type or, for shifting.k, not a finite number
        out, trace_path = self._completed_run(tmp_path)
        path = trace_path.with_name(name)
        doc = json.loads(path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(NoDataError, match=re.escape(key)):
            report(out)
        self._assert_report_is_no_data(out, path, capsys)

    def test_trailing_blank_line_is_not_an_error(self, tmp_path):
        out, path = self._completed_run(tmp_path)
        intact = read_trace(path)
        path.write_text(path.read_text() + "\n")
        assert read_trace(path).tobytes() == intact.tobytes()
        report(out)
        assert len((out / "learning_curves.csv").read_text().splitlines()) == 1 + 5

    def test_header_only_trace_has_no_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n")
        trace = read_trace(path)
        assert len(trace) == 0
        assert trace.shape == (0, len(TRACE_COLUMNS))
        assert trace[:, TRACE_COLUMNS.index("target_loss")].size == 0


class TestTransferPairFromConfig:
    def test_mlp_config_builds_matching_pair(self, tmp_path):
        text = f"""
transfer.kind=mlp-1h
transfer.rho=0.7
transfer.seed=5
transfer.dim_in=4
transfer.hidden=5
transfer.classes=3
transfer.n_samples=64
pretrain.steps=10
finetune.steps=10
output_dir={tmp_path}
"""
        cfg = config_from_values(parse_flat_text(text))
        pair = build_transfer_pair(cfg)
        assert pair.source.dim == cfg.transfer.dim
        assert pair.target.dataset_size() == 64
