import re

import pytest

from recadamlab.config import (config_from_values, format_config, load_config,
                               load_grid, parse_flat_text)
from recadamlab.errors import ConfigError

BASE = """
# quadratic transfer experiment
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed=3
pretrain.steps=500
pretrain.optimizer.alpha=0.1
finetune.steps=200
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=0.05
shifting.k=0.1
shifting.t0=50
penalty.gamma=1.0
seeds=0,1,2
output_dir=out
"""


def test_parse_and_defaults():
    cfg = config_from_values(parse_flat_text(BASE))
    assert cfg.transfer.kind == "quadratic"
    assert cfg.transfer.dim == 12
    assert cfg.finetune.optimizer_kind == "recadam"
    assert cfg.finetune.optimizer.beta1 == 0.9
    assert cfg.finetune.optimizer.eps == 1e-8
    assert cfg.finetune.init == "pretrained"
    assert cfg.penalty.kind == "isotropic"
    assert cfg.penalty.gamma == 1.0
    assert cfg.seeds == (0, 1, 2)
    assert cfg.shifting.t0 == 50


def test_roundtrip_through_format():
    cfg = config_from_values(parse_flat_text(BASE))
    clone = config_from_values(parse_flat_text(format_config(cfg)))
    assert clone == cfg


def test_unknown_key_is_a_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_flat_text(BASE + "\nfinetune.momentum=0.9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_text(BASE + "\ntransfer.dim=5\n")


def test_bad_value_types():
    with pytest.raises(ConfigError):
        parse_flat_text("transfer.dim=twelve\n")
    with pytest.raises(ConfigError):
        parse_flat_text("finetune.optimizer.kind=sgd\n")
    with pytest.raises(ConfigError):
        parse_flat_text("seeds=a,b\n")


@pytest.mark.parametrize("key", ["penalty.gamma", "finetune.optimizer.weight_decay",
                                 "transfer.center_scale", "transfer.label_noise",
                                 "transfer.noise_std", "finetune.loss_threshold"])
@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
def test_non_finite_floats_rejected(key, raw):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_flat_text(f"{key}={raw}\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="transfer.kind"):
        config_from_values(parse_flat_text("output_dir=x\n"))
    with pytest.raises(ConfigError, match="output_dir"):
        config_from_values(parse_flat_text(
            "transfer.kind=quadratic\ntransfer.dim=3\ntransfer.rho=1.0\n"
            "pretrain.steps=10\nfinetune.steps=10\n"))


def test_zero_steps_rejected():
    text = BASE.replace("pretrain.steps=500", "pretrain.steps=0")
    with pytest.raises(ConfigError, match="pretrain.steps"):
        config_from_values(parse_flat_text(text))


def test_rho_bounds():
    text = BASE.replace("transfer.rho=0.7", "transfer.rho=1.5")
    with pytest.raises(ConfigError, match="rho"):
        config_from_values(parse_flat_text(text))


def test_mlp_dim_is_derived_and_checked():
    text = """
transfer.kind=mlp-1h
transfer.rho=0.7
transfer.dim_in=10
transfer.hidden=16
transfer.classes=3
pretrain.steps=10
finetune.steps=10
output_dir=out
"""
    cfg = config_from_values(parse_flat_text(text))
    assert cfg.transfer.dim == 16 * 11 + 3 * 17
    with pytest.raises(ConfigError, match="parameter count"):
        config_from_values(parse_flat_text(text + "transfer.dim=100\n"))
    with pytest.raises(ConfigError, match="dim_in must be >= 1"):
        config_from_values(parse_flat_text(text.replace("dim_in=10", "dim_in=0")))


@pytest.mark.parametrize("kind", ["linear-regression", "logistic-regression"])
def test_diagonal_fisher_needs_a_dataset(kind):
    # a quadratic task has no samples to estimate a Fisher diagonal from
    text = BASE + "penalty.kind=diagonal-fisher\n"
    with pytest.raises(ConfigError, match="penalty.kind=diagonal-fisher needs a task with "
                                          "a dataset.*transfer.kind=quadratic"):
        config_from_values(parse_flat_text(text))
    cfg = config_from_values(parse_flat_text(text.replace("transfer.kind=quadratic",
                                                          f"transfer.kind={kind}")))
    assert cfg.penalty.kind == "diagonal-fisher"
    with pytest.raises(ConfigError, match="needs a task with a dataset"):
        cfg.with_values({"transfer.kind": "quadratic"})


def test_unknown_key_in_values_is_an_error():
    base = parse_flat_text(BASE)
    with pytest.raises(ConfigError, match="unknown key 'penalty.gama'"):
        config_from_values({**base, "penalty.gama": -3.0})


def test_with_values_equals_the_edited_text():
    cfg = config_from_values(parse_flat_text(BASE))
    derived = cfg.with_values({"shifting.k": 0.5, "shifting.t0": 75, "penalty.gamma": 2,
                               "finetune.optimizer.kind": "adam", "seeds": (4, 5)})
    edited = (BASE.replace("shifting.k=0.1", "shifting.k=0.5")
              .replace("shifting.t0=50", "shifting.t0=75")
              .replace("penalty.gamma=1.0", "penalty.gamma=2")
              .replace("finetune.optimizer.kind=recadam", "finetune.optimizer.kind=adam")
              .replace("seeds=0,1,2", "seeds=4,5"))
    assert derived == config_from_values(parse_flat_text(edited))
    assert type(derived.penalty.gamma) is float
    assert cfg.shifting.k == 0.1  # the source config is left as it was
    # an mlp-1h config re-derives its parameter count from the new sizes
    mlp = config_from_values(parse_flat_text(MLP_TEXT)).with_values({"transfer.hidden": 8})
    assert mlp == config_from_values(parse_flat_text(
        MLP_TEXT.replace("transfer.hidden=16", "transfer.hidden=8")))
    assert mlp.transfer.dim == 8 * 11 + 3 * 9


@pytest.mark.parametrize("values, message", [
    ({"penalty.gama": 1.0}, "unknown key 'penalty.gama'"),
    ({"finetune.optimizer.kind": "sgd"}, "finetune.optimizer.kind: 'sgd' not in"),
    ({"shifting.k": float("inf")}, "shifting.k: 'inf' is not a finite number"),
    ({"penalty.gamma": -1.0}, "penalty.gamma must be >= 0"),
    ({"shifting.t0": 2.5}, "shifting.t0: cannot parse '2.5' as int"),
    ({"shifting.t0": -5}, "shifting: annealing midpoint t0 must be >= 0"),
    ({"finetune.optimizer.alpha": 0.0}, "finetune.optimizer: alpha must be finite and > 0"),
    ({"finetune.optimizer.weight_decay": -0.1}, "finetune.optimizer.weight_decay must be >= 0"),
    ({"transfer.rho": 1.5}, "transfer.rho must lie in [0, 1]"),
    # two values out of range: the first in _KEYS order is reported
    ({"transfer.label_noise": 2.0, "transfer.n_samples": 0}, "transfer.n_samples must be >= 1"),
])
def test_with_values_checks_like_a_config_line(values, message):
    cfg = config_from_values(parse_flat_text(BASE))
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.with_values(values)


def test_config_hash_ignores_seeds_and_output_dir():
    cfg = config_from_values(parse_flat_text(BASE))
    other = config_from_values(parse_flat_text(
        BASE.replace("seeds=0,1,2", "seeds=9").replace("output_dir=out",
                                                       "output_dir=elsewhere")))
    assert cfg.config_hash() == other.config_hash()
    changed = config_from_values(parse_flat_text(BASE.replace("shifting.k=0.1",
                                                              "shifting.k=0.2")))
    assert cfg.config_hash() != changed.config_hash()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize("reader", ["config", "grid"])
def test_line_without_equals_sign_is_rejected(tmp_path, reader):
    path = tmp_path / "lines.cfg"
    path.write_text("# no separator below\nk 0.1\n")
    with pytest.raises(ConfigError, match="2: expected key=value"):
        (load_config if reader == "config" else load_grid)(path)


def test_grid_file(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text("k=0.05,0.1\n# comment\nt0=100,250\nseeds=0,1\n")
    grid = load_grid(path)
    assert grid["k"] == (0.05, 0.1)
    assert grid["t0"] == (100, 250)
    assert grid["seeds"] == (0, 1)
    assert grid["gamma"] is None
    path.write_text("steps=1,2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_grid(path)
    path.write_text("k=\n")
    with pytest.raises(ConfigError):
        load_grid(path)
    path.write_text("gamma=1.0,inf\n")
    with pytest.raises(ConfigError, match="not a finite number"):
        load_grid(path)
    path.write_text("k=0.1\nk=0.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_grid(path)


MLP_TEXT = """
transfer.kind=mlp-1h
transfer.rho=0.7
transfer.dim_in=10
transfer.hidden=16
transfer.classes=3
transfer.noise_std=0.5
finetune.loss_threshold=0.25
pretrain.steps=10
finetune.steps=10
output_dir=out
"""


def _pinned_hash_cases():
    from test_acceptance import MLP78_CFG, MLP9_CFG, SWEEP_CFG
    from test_cli import CONFIG
    from test_harness import QUAD_BASE
    return [
        (MLP78_CFG.format(k=0.05, out="out"), "683d9a4c9c48"),
        (MLP9_CFG.format(kind="adam", init="pretrained", out="out"), "d18ef9b74982"),
        (MLP9_CFG.format(kind="recadam", init="random", out="out"), "552a3f4155e1"),
        (SWEEP_CFG.format(out="out"), "366dd0a90006"),
        (CONFIG.format(out="out"), "fdeeaace2e06"),
        (QUAD_BASE.format(out="out"), "b750f36edac2"),
        (BASE, "1ef488aa6e74"),
        (MLP_TEXT, "c4663b688880"),
    ]


def test_config_hash_is_pinned():
    # run directories and summaries are keyed by these hashes
    for text, expected in _pinned_hash_cases():
        assert config_from_values(parse_flat_text(text)).config_hash() == expected


def test_format_config_is_pinned():
    mlp = config_from_values(parse_flat_text(MLP_TEXT))
    assert format_config(mlp) == """\
finetune.batch_size=32
finetune.init=pretrained
finetune.loss_threshold=0.25
finetune.optimizer.alpha=0.001
finetune.optimizer.beta1=0.9
finetune.optimizer.beta2=0.999
finetune.optimizer.eps=1e-08
finetune.optimizer.kind=adam
finetune.optimizer.weight_decay=0.0
finetune.schedule.kind=constant
finetune.schedule.total_steps=0
finetune.schedule.warmup_steps=0
finetune.steps=10
output_dir=out
penalty.fisher_samples=1000
penalty.gamma=5000.0
penalty.kind=isotropic
pretrain.batch_size=32
pretrain.optimizer.alpha=0.01
pretrain.optimizer.beta1=0.9
pretrain.optimizer.beta2=0.999
pretrain.optimizer.eps=1e-08
pretrain.steps=10
seeds=0
shifting.k=0.1
shifting.t0=250
transfer.center_scale=1.0
transfer.classes=3
transfer.dim_in=10
transfer.hidden=16
transfer.kind=mlp-1h
transfer.label_noise=0.0
transfer.n_samples=512
transfer.noise_std=0.5
transfer.rho=0.7
transfer.seed=0
"""
    quad = config_from_values(parse_flat_text(BASE))
    assert format_config(quad) == """\
finetune.batch_size=32
finetune.init=pretrained
finetune.optimizer.alpha=0.05
finetune.optimizer.beta1=0.9
finetune.optimizer.beta2=0.999
finetune.optimizer.eps=1e-08
finetune.optimizer.kind=recadam
finetune.optimizer.weight_decay=0.0
finetune.schedule.kind=constant
finetune.schedule.total_steps=0
finetune.schedule.warmup_steps=0
finetune.steps=200
output_dir=out
penalty.fisher_samples=1000
penalty.gamma=1.0
penalty.kind=isotropic
pretrain.batch_size=32
pretrain.optimizer.alpha=0.1
pretrain.optimizer.beta1=0.9
pretrain.optimizer.beta2=0.999
pretrain.optimizer.eps=1e-08
pretrain.steps=500
seeds=0,1,2
shifting.k=0.1
shifting.t0=50
transfer.center_scale=1.0
transfer.dim=12
transfer.kind=quadratic
transfer.label_noise=0.0
transfer.n_samples=512
transfer.rho=0.7
transfer.seed=3
"""
