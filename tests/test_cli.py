import csv

import pytest

from recadamlab.cli import main
from recadamlab.config import load_config

CONFIG = """
transfer.kind=quadratic
transfer.dim=8
transfer.rho=0.7
transfer.seed=0
pretrain.steps=400
pretrain.optimizer.alpha=0.1
finetune.steps=120
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=0.05
finetune.init=random
shifting.k=0.1
shifting.t0=40
penalty.gamma=1.0
seeds=0,1
output_dir={out}
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG.format(out=tmp_path / "exp"))
    return path


def test_full_cli_workflow(tmp_path, config_path, capsys):
    out = tmp_path / "exp"
    assert main(["pretrain", "--config", str(config_path)]) == 0
    assert (out / "theta_star.bin").exists()
    assert (out / "pretrain_trace.csv").exists()

    assert main(["finetune", "--config", str(config_path),
                 "--theta-star", str(out / "theta_star.bin"), "--seed", "1"]) == 0
    run_dirs = list((out / "runs").iterdir())
    assert len(run_dirs) == 1
    assert run_dirs[0].name.endswith("-s1")
    for name in ("trace.csv", "summary.json", "config.json"):
        assert (run_dirs[0] / name).exists()

    grid = tmp_path / "grid.cfg"
    grid.write_text("k=0.05,0.2\nt0=40\nseeds=0,1\n")
    assert main(["sweep", "--config", str(config_path), "--grid", str(grid)]) == 0
    assert (out / "summaries.csv").exists()

    assert main(["report", "--dir", str(out)]) == 0
    assert (out / "learning_curves.csv").exists()
    assert (out / "summary_median.csv").exists()
    printed = capsys.readouterr().out
    assert "wrote" in printed


def test_pretrain_prints_its_steps_and_final_source_loss(tmp_path, config_path, capsys):
    # the step count is pretrain.steps, the loss the last target_loss cell of the trace
    steps = load_config(config_path).pretrain.steps
    assert main(["pretrain", "--config", str(config_path)]) == 0
    with open(tmp_path / "exp" / "pretrain_trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == steps
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (f"pretrained 8 parameters for {steps} steps; "
                     f"final source loss {float(rows[-1]['target_loss']):.6g}")


def test_finetune_default_seed_comes_from_config(tmp_path, config_path):
    out = tmp_path / "exp"
    main(["pretrain", "--config", str(config_path)])
    assert main(["finetune", "--config", str(config_path),
                 "--theta-star", str(out / "theta_star.bin")]) == 0
    assert any(d.name.endswith("-s0") for d in (out / "runs").iterdir())


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("transfer.kind=quadratic\nbogus.key=1\n")
    assert main(["pretrain", "--config", str(bad)]) == 2
    assert main(["pretrain", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad.write_text(CONFIG.format(out=tmp_path / "exp").replace("penalty.gamma=1.0",
                                                               "penalty.gamma=inf"))
    assert main(["pretrain", "--config", str(bad)]) == 2


@pytest.mark.parametrize("line", ["transfer.n_samples=0", "transfer.n_samples=-3",
                                  "penalty.fisher_samples=0", "transfer.label_noise=2.0",
                                  "transfer.label_noise=-0.1"])
def test_out_of_range_size_is_a_config_error(tmp_path, capsys, line):
    key = line.split("=")[0]
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.format(out=tmp_path / "exp").replace("transfer.kind=quadratic",
                                                               "transfer.kind=logistic-regression")
                   + "penalty.kind=diagonal-fisher\n" + line + "\n")
    # the config is refused before any work: no pretraining, no theta_star read
    assert main(["pretrain", "--config", str(bad)]) == 2
    assert main(["finetune", "--config", str(bad), "--theta-star", str(tmp_path / "none")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: {key}") == 2


def test_diagonal_fisher_on_a_quadratic_is_a_config_error(tmp_path, config_path, capsys):
    # the quadratic task has no dataset: every command refuses the config
    # before any work, and a sweep does not pretrain
    bad = tmp_path / "bad.cfg"
    bad.write_text(config_path.read_text() + "penalty.kind=diagonal-fisher\n")
    assert main(["pretrain", "--config", str(config_path)]) == 0
    theta_star = tmp_path / "exp" / "theta_star.bin"
    assert main(["finetune", "--config", str(bad), "--theta-star", str(theta_star)]) == 2
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds=0\n")
    theta_star.unlink()
    assert main(["sweep", "--config", str(bad), "--grid", str(grid)]) == 2
    assert not theta_star.exists()
    assert not (tmp_path / "exp" / "runs").exists()
    err = capsys.readouterr().err
    assert err.count("config error: penalty.kind=diagonal-fisher needs a task with a dataset") == 2


@pytest.mark.parametrize("grid_text", ["gamma=1.0,-1.0", "t0=-5", "k=0.1,0.1000001"])
def test_bad_grid_is_a_config_error_before_any_run(tmp_path, config_path, capsys, grid_text):
    # a value the config refuses, or two k values that print alike and so
    # would share a run directory, stops the sweep before it pretrains
    grid = tmp_path / "grid.cfg"
    grid.write_text(grid_text + "\n")
    assert main(["sweep", "--config", str(config_path), "--grid", str(grid)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "exp" / "runs").exists()


@pytest.mark.parametrize("kind", ["diagonal-fisher", "none"])
def test_gamma_grid_needs_the_isotropic_penalty(tmp_path, capsys, kind):
    # the other penalty kinds ignore gamma, so each gamma would rerun one run
    config = tmp_path / "exp.cfg"
    config.write_text(CONFIG.format(out=tmp_path / "exp").replace(
        "transfer.kind=quadratic", "transfer.kind=logistic-regression")
        + f"penalty.kind={kind}\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("gamma=0.5,5\n")
    assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 2
    assert "penalty.kind=isotropic" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()
    grid.write_text("gamma=5\nseeds=0\nt0=40\n")  # one gamma is allowed
    assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == 0


@pytest.mark.filterwarnings("ignore:overflow")
def test_sweep_with_every_run_failed(tmp_path, config_path, capsys):
    # a successful sweep first: the failed one must not leave its best_config.txt
    out = tmp_path / "exp"
    grid = tmp_path / "grid.cfg"
    grid.write_text("gamma=1\n")
    assert main(["sweep", "--config", str(config_path), "--grid", str(grid)]) == 0
    assert "best configuration" in capsys.readouterr().out
    assert (out / "best_config.txt").exists()
    grid.write_text("gamma=5000\n")
    assert main(["sweep", "--config", str(config_path), "--grid", str(grid)]) == 0
    printed = capsys.readouterr().out
    assert "sweep finished: 0 successful runs" in printed
    assert "best configuration" not in printed
    header, *rows = (out / "summaries.csv").read_text().splitlines()
    assert len(rows) == 2
    assert all(row.split(",")[4].startswith("failed:step") for row in rows)
    assert not (out / "best_config.txt").exists()


@pytest.mark.parametrize("damage", ["missing", "truncated header", "truncated data"])
def test_unreadable_theta_star_is_a_config_error_in_finetune(tmp_path, config_path, capsys,
                                                              damage):
    theta_star = tmp_path / "exp" / "theta_star.bin"
    assert main(["pretrain", "--config", str(config_path)]) == 0
    if damage == "missing":
        theta_star.unlink()
    else:
        data = theta_star.read_bytes()
        theta_star.write_bytes(data[:4] if damage == "truncated header" else data[:-8])
    assert main(["finetune", "--config", str(config_path), "--theta-star", str(theta_star)]) == 2
    assert f"config error: cannot read theta_star file {theta_star}: " in capsys.readouterr().err
    assert not (tmp_path / "exp" / "runs").exists()


def test_truncated_theta_star_is_a_config_error_in_sweep(tmp_path, config_path, capsys):
    # the sweep reads output_dir/theta_star.bin rather than pretraining again
    theta_star = tmp_path / "exp" / "theta_star.bin"
    assert main(["pretrain", "--config", str(config_path)]) == 0
    theta_star.write_bytes(theta_star.read_bytes()[:-8])
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds=0\n")
    assert main(["sweep", "--config", str(config_path), "--grid", str(grid)]) == 2
    assert f"config error: cannot read theta_star file {theta_star}: " in capsys.readouterr().err
    assert not (tmp_path / "exp" / "runs").exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_failure_exit_code(tmp_path, config_path):
    out = tmp_path / "exp"
    main(["pretrain", "--config", str(config_path)])
    diverging = tmp_path / "div.cfg"
    diverging.write_text(CONFIG.format(out=out).replace("penalty.gamma=1.0",
                                                        "penalty.gamma=5000.0"))
    code = main(["finetune", "--config", str(diverging),
                 "--theta-star", str(out / "theta_star.bin")])
    assert code == 3
    # the aborted run leaves a usable partial trace behind
    partial = [d for d in (out / "runs").iterdir()]
    assert any((d / "trace.csv").exists() for d in partial)


def test_no_data_exit_code(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--dir", str(empty)]) == 4


def test_module_invocation(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import recadamlab

    # the child finds the package where this process imported it, installed or not
    src = str(Path(recadamlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    # the package's __main__ and cli's own __main__ guard, without which the second would exit 0
    for module in ("recadamlab", "recadamlab.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "report", "--dir", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 4
        assert "no data" in proc.stderr
