import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from recadamlab.cli import main
from recadamlab.config import config_from_values, parse_flat_text
from recadamlab.errors import ConfigError, DimensionError, NoDataError
from recadamlab.harness import (TRACE_COLUMNS, build_transfer_pair, finetune,
                                pretrain, read_trace, reference_threshold,
                                report, sweep)
from recadamlab.storage import read_vector, write_vector

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


def quad_cfg(tmp_path, **overrides):
    text = QUAD_BASE.format(out=tmp_path / "exp")
    for key, value in overrides.items():
        line = next(l for l in text.splitlines() if l.startswith(key + "="))
        text = text.replace(line, f"{key}={value}")
    return config_from_values(parse_flat_text(text))


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
        assert trace.column("target_loss")[-1] < 1e-8
        assert len(trace) == 2000
        assert (Path(cfg.output_dir) / "theta_star.bin").exists()
        saved = read_vector(Path(cfg.output_dir) / "theta_star.bin")
        assert np.array_equal(saved, theta_star)

    def test_penalty_columns_are_zero(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"pretrain.steps": 50})
        _, trace = pretrain(cfg)
        assert np.array_equal(trace.column("penalty_value"), np.zeros(50))
        assert np.array_equal(trace.column("lambda"), np.ones(50))

    def test_same_config_same_theta_star_bitwise(self, tmp_path):
        cfg_a = quad_cfg(tmp_path / "a", **{"pretrain.steps": 400})
        cfg_b = quad_cfg(tmp_path / "b", **{"pretrain.steps": 400})
        ta, _ = pretrain(cfg_a)
        tb, _ = pretrain(cfg_b)
        assert np.array_equal(ta, tb)

    def test_zero_steps_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            quad_cfg(tmp_path, **{"pretrain.steps": 0})


class TestFinetune:
    def test_zero_gamma_zeroes_the_penalty_column(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"penalty.gamma": 0.0})
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=0)
        assert np.array_equal(trace.column("penalty_value"), np.zeros(300))
        # lambda schedule still active
        assert trace.column("lambda")[-1] > trace.column("lambda")[0]

    def test_saturated_shifting_reduces_to_adam_bitwise(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        theta_star, _ = pretrain(cfg)
        rec_cfg = dataclasses.replace(
            cfg, shifting=dataclasses.replace(cfg.shifting, k=1000.0, t0=0))
        adam_cfg = dataclasses.replace(
            cfg, finetune=dataclasses.replace(cfg.finetune, optimizer_kind="adam"))
        rec_trace, _ = finetune(rec_cfg, theta_star, seed=0)
        adam_trace, _ = finetune(adam_cfg, theta_star, seed=0)
        assert np.array_equal(rec_trace.column("target_loss"),
                              adam_trace.column("target_loss"))
        assert np.array_equal(rec_trace.column("dist_to_pretrained"),
                              adam_trace.column("dist_to_pretrained"))

    def test_identical_tasks_start_at_the_optimum(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"transfer.rho": 1.0,
                                    "finetune.optimizer.kind": "adam",
                                    "finetune.init": "pretrained"})
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=0)
        assert trace.column("target_loss")[0] < 1e-6

    def test_early_recall_dip_from_random_init(self, tmp_path):
        cfg = quad_cfg(tmp_path)  # k=0.1, gamma=1, init=random
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=0)
        dist = trace.column("dist_to_pretrained")
        assert dist[49] < dist[0]

    def test_lambda_is_nondecreasing_and_final_row_is_max(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        theta_star, _ = pretrain(cfg)
        trace, _ = finetune(cfg, theta_star, seed=1)
        lam = trace.column("lambda")
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
        assert trace.data.shape == reloaded.data.shape == (5, len(TRACE_COLUMNS))
        assert trace.data.tobytes() == reloaded.data.tobytes()

    def test_summary_fields(self, tmp_path):
        cfg = quad_cfg(tmp_path)
        cfg = dataclasses.replace(
            cfg, finetune=dataclasses.replace(cfg.finetune, loss_threshold=1e-3))
        theta_star, _ = pretrain(cfg)
        trace, summary = finetune(cfg, theta_star, seed=0)
        assert summary.best_target_loss == trace.column("target_loss").min()
        assert summary.final_dist_to_pretrained >= 0
        assert summary.seed == 0
        assert summary.config_hash == cfg.config_hash()
        losses = trace.column("target_loss")
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
        cfg = dataclasses.replace(
            cfg, finetune=dataclasses.replace(
                cfg.finetune,
                schedule=dataclasses.replace(cfg.finetune.schedule,
                                             kind="linear-warmup-constant",
                                             warmup_steps=20_000)))
        theta_star, _ = pretrain(cfg)
        trace, summary = finetune(cfg, theta_star, seed=0)
        assert np.all(np.isfinite(trace.column("penalty_value")))
        assert np.all(trace.column("penalty_value") >= 0)
        assert trace.column("penalty_value").max() > 0


    def test_coupled_variant_runs_through_the_harness(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.optimizer.kind": "recadam-coupled",
                                    "penalty.gamma": 5000.0})
        theta_star, _ = pretrain(cfg)
        trace, summary = finetune(cfg, theta_star, seed=0)
        # the coupled variant folds the penalty into the adapted gradient, so
        # even gamma=5000 stays bounded by the Adam step size
        assert np.all(np.isfinite(trace.column("target_loss")))
        assert np.isfinite(summary.final_target_loss)


class TestReferenceThreshold:
    def test_uses_long_vanilla_run(self, tmp_path):
        cfg = quad_cfg(tmp_path, **{"finetune.init": "pretrained"})
        theta_star, _ = pretrain(cfg)
        tau = reference_threshold(cfg, theta_star)
        ref_cfg = dataclasses.replace(
            cfg, finetune=dataclasses.replace(
                cfg.finetune, steps=600, optimizer_kind="adam", init="pretrained"))
        trace, _ = finetune(ref_cfg, theta_star, cfg.seeds[0])
        assert tau == pytest.approx(1.10 * trace.column("target_loss").min(), rel=1e-12)


class TestSweep:
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
        assert trace.column("dist_to_pretrained")[-1] > 0
        assert direct.final_dist_to_pretrained > 0


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
            finals.append(trace.column("target_loss")[0])
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
            icfg = dataclasses.replace(
                cfg, finetune=dataclasses.replace(cfg.finetune, init=init))
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


class TestReadTrace:
    """Damaged and empty trace files.  A damaged trace sits in a completed run
    (one with summary.json), so report reads it and must refuse it."""

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

    def test_trailing_blank_line_is_not_an_error(self, tmp_path):
        out, path = self._completed_run(tmp_path)
        intact = read_trace(path)
        path.write_text(path.read_text() + "\n")
        assert read_trace(path).data.tobytes() == intact.data.tobytes()
        report(out)
        assert len((out / "learning_curves.csv").read_text().splitlines()) == 1 + 5

    def test_header_only_trace_has_no_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n")
        trace = read_trace(path)
        assert len(trace) == 0
        assert trace.data.shape == (0, len(TRACE_COLUMNS))
        assert trace.column("target_loss").size == 0


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
