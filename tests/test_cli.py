import pytest

from recadamlab.cli import main

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
    proc = subprocess.run(
        [sys.executable, "-m", "recadamlab", "report", "--dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 4
    assert "no data" in proc.stderr
