"""Byte-for-byte replay of short fine-tuning runs and of their report.

Each case fine-tunes one optimizer kind under one penalty for at most 200
steps and pins the sha256 of the ``trace.csv`` and ``summary.json`` it
writes.  A refactor of the steppers, the penalty, the task gradients or
the training loop must leave these bytes unchanged: it may drop temporaries
but not reorder or fuse float operations.  The quadratic and logistic cases
run every optimizer kind; the mlp-1h and linear-regression cases, pinned
last, run two kinds each.  One more case pins the three files ``report``
writes for a directory of five runs, so a change to how traces are read or
aggregated must leave those bytes unchanged too, and one pins the
``summaries.csv`` and ``best_config.txt`` a small sweep writes, failed rows
included.  The digests belong to the NumPy/BLAS build they were taken on
(NumPy 2.4, OpenBLAS, x86-64); another build may round a reduction
differently and then needs its own digests.
"""

import hashlib

import pytest

from recadamlab.config import config_from_values, parse_flat_text
from recadamlab.harness import finetune, pretrain, report, sweep

pytestmark = pytest.mark.pinned_bytes

ISOTROPIC_CFG = """
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed=3
pretrain.steps=200
pretrain.optimizer.alpha=0.1
finetune.steps=150
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.05
finetune.optimizer.weight_decay={weight_decay}
finetune.init=random
shifting.k=0.1
shifting.t0=60
penalty.kind=isotropic
penalty.gamma=1.0
output_dir={out}
"""

FISHER_CFG = """
transfer.kind=logistic-regression
transfer.dim=16
transfer.rho=0.7
transfer.seed=4
transfer.n_samples=512
pretrain.steps=200
pretrain.batch_size=32
pretrain.optimizer.alpha=0.05
finetune.steps=120
finetune.batch_size=32
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.01
finetune.optimizer.weight_decay={weight_decay}
finetune.init=pretrained
finetune.schedule.kind=linear-warmup-constant
finetune.schedule.warmup_steps=20000
shifting.k=0.1
shifting.t0=60
penalty.kind=diagonal-fisher
penalty.fisher_samples=256
output_dir={out}
"""

KINDS = ("adam", "adamw", "recadam", "recadam-coupled")
PENALTIES = {"isotropic": ISOTROPIC_CFG, "diagonal-fisher": FISHER_CFG}

# (penalty, kind) -> (sha256 of trace.csv, sha256 of summary.json)
DIGESTS = {
    ("diagonal-fisher", "adam"): (
        "3b70f9d737b6d2256d7bb5438d79f87624c2e25ec18ccefd61960a4a203e20c7",
        "a156425af0f3a64e34e499350deed9dbf146a92be99c704bf9e1f0fa4c3d529a"),
    ("diagonal-fisher", "adamw"): (
        "ec32246a7e48a34d7fa7df24ac063eda0e335f76323741cebe7dd90dfa0e7643",
        "c8a85841db91cabc461717c12d747204f593e1a4a245fe162a47278643f75232"),
    ("diagonal-fisher", "recadam"): (
        "e5830e98e051adfe90fc8219b1d5cd2838a55082c614ea3ca5b5244907ac03d4",
        "28c321b7c763d2656efdda7eeea686da76d10fc6d944957b1c599568e3cf824d"),
    ("diagonal-fisher", "recadam-coupled"): (
        "aae1591451d06bd510ba6950fe433769c4cf77060ef6368872db5c3f172ef67c",
        "2b52a3c4c61cf4b746e99a3a3f29376c787f86a37f4f206d9d4510ff6fa8dd19"),
    ("isotropic", "adam"): (
        "b6e1ca52d184877721139d054835f26c2fa8780691e8661c249d7d55ffb25078",
        "b5a5948f749a2232d540e317e6ae2c4110cd17b22d1cf1663db31e55575dcbda"),
    ("isotropic", "adamw"): (
        "831d98a353bd778eae5a13212bddc4ae26bb377de752bb5f9fa22542ea48875c",
        "b776c73195d857bdf54cefe3b68015eedb545ce562db4090688720b92e3a0da5"),
    ("isotropic", "recadam"): (
        "760b5f5a69cdbb4a731b0878ba7a0ee919645ac66a2e629d3ab0a5f24e38f012",
        "ba1a612b0974ed7a581af7cdecde06dc80a9b92f35cc373e300a4939910aa9e4"),
    ("isotropic", "recadam-coupled"): (
        "e1f16773a4ca8d1e7d0daf400fee3e811a38bd04e044f1bd83e67d6ad4278d90",
        "a1399c55910ebba6ee25a0a8d13545d2b729b28f9cafb8116a6992a5c1871f81"),
}


def run_digests(template, kind, out):
    weight_decay = 0.02 if kind == "adamw" else 0.0
    cfg = config_from_values(parse_flat_text(
        template.format(kind=kind, weight_decay=weight_decay, out=out)))
    theta_star, _ = pretrain(cfg, write_outputs=False)
    run_dir = out / "run"
    finetune(cfg, theta_star, seed=11, run_dir=run_dir)
    return tuple(hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                 for name in ("trace.csv", "summary.json"))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("penalty", sorted(PENALTIES))
def test_run_replays_to_pinned_bytes(tmp_path, penalty, kind):
    assert run_digests(PENALTIES[penalty], kind, tmp_path) == DIGESTS[(penalty, kind)]


REPORT_CFG = """
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed=5
pretrain.steps=200
pretrain.optimizer.alpha=0.1
finetune.steps=100
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=0.05
finetune.init={init}
finetune.loss_threshold=0.5
shifting.k={k}
shifting.t0=40
penalty.kind=isotropic
penalty.gamma=1.0
output_dir={out}
"""

# (k, init, seed): k=0.1 has three runs and k=0.5 two, so the learning
# curves take the median of an odd and of an even number of runs
REPORT_RUNS = ((0.1, "random", 1), (0.1, "random", 2), (0.1, "pretrained", 1),
               (0.5, "random", 1), (0.5, "pretrained", 2))

REPORT_DIGESTS = {
    "learning_curves.csv":
        "2047416fb4cb51a62def7bdce99b7faad7f8b344fedd1c97eae827da88c11d97",
    "summary_median.csv":
        "7aef69a2325de2990efc72b7d84d66ee896e356033faa1dd8baaa5e095b73029",
    "init_comparison.csv":
        "67c94bc67e1ea56880838f8fccbed2e9826ec973893f84ab132ffc13dc19052f",
}


def test_report_writes_pinned_bytes(tmp_path):
    theta_star = None
    for k, init, seed in REPORT_RUNS:
        cfg = config_from_values(parse_flat_text(
            REPORT_CFG.format(init=init, k=k, out=tmp_path)))
        if theta_star is None:
            theta_star, _ = pretrain(cfg, write_outputs=False)
        finetune(cfg, theta_star, seed, run_dir=tmp_path / "runs" / f"k{k}-{init}-s{seed}")
    report(tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in REPORT_DIGESTS}
    assert digests == REPORT_DIGESTS


SWEEP_CFG = """
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed=6
pretrain.steps=200
pretrain.optimizer.alpha=0.1
finetune.steps=100
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=0.05
finetune.init=random
finetune.loss_threshold=0.5
shifting.k=0.1
shifting.t0=40
penalty.kind=isotropic
penalty.gamma=1.0
seeds=0,1
output_dir={out}
"""

# gamma=5000 with k=0.05 fails at step 48, so two rows are failed:step48
# with empty cells; k=0.5 reaches lambda=1 in time, and those rows finish
# without reaching the loss threshold (another empty cell)
SWEEP_DIGESTS = {
    "summaries.csv":
        "9b721707134cad040adfe7457e3d050af4dcf2a49b56e7591d9c50a47218b6c1",
    "best_config.txt":
        "649a7145587dbe9b48af7beb880e0d894fbaf1740a3746029319816c358538b0",
}


@pytest.mark.filterwarnings("ignore:overflow")
def test_sweep_writes_pinned_bytes(tmp_path):
    cfg = config_from_values(parse_flat_text(SWEEP_CFG.format(out=tmp_path)))
    sweep(cfg, {"k": (0.05, 0.5), "t0": (20,), "gamma": (1.0, 5000.0), "seeds": None})
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SWEEP_DIGESTS}
    assert digests == SWEEP_DIGESTS


TASK_CFG = """
transfer.rho=0.7
transfer.n_samples=256
pretrain.steps=150
pretrain.batch_size=32
pretrain.optimizer.alpha=0.05
finetune.steps=120
finetune.batch_size=32
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.01
finetune.optimizer.weight_decay={weight_decay}
shifting.k=0.1
shifting.t0=60
penalty.kind=diagonal-fisher
penalty.fisher_samples=256
output_dir={out}
"""

# the two dataset kinds the cases above leave out: their batch gradients
# and, through the diagonal-Fisher penalty, their per-sample gradients
TASK_CFGS = {
    "mlp-1h": """
transfer.kind=mlp-1h
transfer.dim_in=6
transfer.hidden=8
transfer.classes=3
transfer.label_noise=0.1
transfer.seed=7
finetune.init=pretrained""" + TASK_CFG,
    "linear-regression": """
transfer.kind=linear-regression
transfer.dim=10
transfer.seed=8
finetune.init=random""" + TASK_CFG,
}

# (task kind, optimizer kind) -> (sha256 of trace.csv, sha256 of summary.json)
TASK_DIGESTS = {
    ("linear-regression", "adam"): (
        "50c409ad2e62ff025f3e95f6a79617fc97345eb878da134eb9f703a2245642e7",
        "990f4f7e80b8dec3ffe797f7a687319fa4cd4605f5d4204437eb67d00c7bb6a0"),
    ("linear-regression", "recadam-coupled"): (
        "152d8c020a0b3ecb1a126390096c4911d28bc945292e7d8ce69b5bcb6cbb13bb",
        "d0ab21d7eead19ee85823f2defe98a14cc378155a76276204266e425a8154a7e"),
    ("mlp-1h", "adamw"): (
        "6de5ea9316fc37af66217153d76c19954c0b8b2b17d5030094eb540442b0c76c",
        "093011b089c09b89c66437ce8a6b44a0094011556e039c020a3925053437e38d"),
    ("mlp-1h", "recadam-coupled"): (
        "e9b3f1937576c0c2cd972c71c55d6d6cd4b3552b0c9f0eecaebadd239be870a6",
        "3e8f8955f5e8b769716a81dbd73f720db89d5292f78004058b060daaf325fe44"),
}


@pytest.mark.parametrize("task, kind", sorted(TASK_DIGESTS))
def test_dataset_task_run_replays_to_pinned_bytes(tmp_path, task, kind):
    assert run_digests(TASK_CFGS[task], kind, tmp_path) == TASK_DIGESTS[(task, kind)]
