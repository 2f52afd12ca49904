"""The three frozen benchmark workloads.

Each workload is a closed loop with one client: a cycle pretrains the
anchor, fine-tunes its runs one after another and aggregates them with
``report``; the next cycle starts when the last one has finished.  The
configs below are copies, not imports, of the acceptance fixtures they came
from, so that editing a fixture cannot silently change a workload between
two commits.  ``{...}`` fields are filled per workload seed (seed 0 gives
the fixture exactly) and per output directory.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from recadamlab import cli, harness
from recadamlab.config import config_from_values, load_config, parse_flat_text
from recadamlab.errors import NumericError
from recadamlab.storage import read_vector

clock = time.perf_counter

# The machine this benchmark was sized on is a shared VM whose speed swings by
# 20-40% over seconds to minutes, alike for every code path (README,
# "Reference seconds").  So each timed section is bracketed by a fixed probe
# loop that never touches recadamlab, and its wall time is scaled by
# REF_PROBE_S over the mean of the two probes: a reference second is a second
# on a machine where one probe takes REF_PROBE_S.
REF_PROBE_S = 0.010
PROBE_ITERS = 1000
_PROBE_A = np.linspace(-1.0, 1.0, 64 * 16).reshape(64, 16)
_PROBE_B = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)


def speed_probe() -> float:
    """Wall time of a fixed mix of small NumPy calls and interpreter work,
    like the mix in a fine-tuning step."""
    started = clock()
    total = 0.0
    for _ in range(PROBE_ITERS):
        hidden = np.tanh(_PROBE_A @ _PROBE_B)
        total += float(hidden.sum()) + sum(j * 0.5 for j in range(40))
    return clock() - started


@dataclasses.dataclass(frozen=True)
class Lap:
    """One timed section: wall seconds, and the same in reference seconds."""
    wall_s: float
    ref_s: float


class Stopwatch:
    """Times consecutive sections, each lap from the end of the one before.
    With ``probe``, a speed probe runs before the first section and after
    every section, outside all of them."""

    def __init__(self, probe: bool):
        self.probe = probe
        self.probes = [speed_probe()] if probe else []
        self.started = clock()

    def lap(self) -> Lap:
        wall = clock() - self.started
        ref = wall
        if self.probe:
            self.probes.append(speed_probe())
            ref = wall * REF_PROBE_S * 2 / (self.probes[-2] + self.probes[-1])
        self.started = clock()
        return Lap(wall, ref)


# From tests/test_acceptance.py, MLP9_CFG (criterion 9 fixture).
MLP9_CFG = """
transfer.kind=mlp-1h
transfer.rho=0.7
transfer.seed={transfer_seed}
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
seeds={seeds}
output_dir={out}
"""
MLP9_TRANSFER_SEED = 55
MLP9_RUN_SEEDS = (101, 102, 103, 104, 105)
MLP9_ARMS = ({"kind": "adam", "init": "pretrained"},
             {"kind": "recadam", "init": "random"},
             {"kind": "recadam", "init": "pretrained"})

# From tests/test_acceptance.py, SWEEP_CFG and FULL_GRID (criterion 10).
SWEEP_CFG = """
transfer.kind=quadratic
transfer.dim=12
transfer.rho=0.7
transfer.seed={transfer_seed}
pretrain.steps=1000
pretrain.optimizer.alpha=0.1
finetune.steps=300
finetune.optimizer.kind=recadam
finetune.optimizer.alpha=0.05
finetune.init=random
penalty.kind=isotropic
penalty.gamma=1.0
seeds={seeds}
output_dir={out}
"""
SWEEP_GRID = """
k=0.05,0.1,0.2,0.5,1.0
t0=100,250,500,1000
gamma=1.0
seeds={seeds}
"""
SWEEP_TRANSFER_SEED = 0
SWEEP_RUN_SEEDS = (0, 1)
SWEEP_RUNS = 5 * 4 * 2

# No acceptance fixture runs the diagonal-Fisher (EWC) penalty end to end,
# so this config is defined here.  Runs are kept at 1000 steps so that the
# per-run rebuild of the transfer pair and the Fisher estimate stay visible.
FISHER_CFG = """
transfer.kind=logistic-regression
transfer.dim=64
transfer.rho=0.7
transfer.seed={transfer_seed}
transfer.n_samples=8192
pretrain.steps=1000
pretrain.batch_size=128
pretrain.optimizer.alpha=0.05
finetune.steps=1000
finetune.batch_size=128
finetune.optimizer.kind={kind}
finetune.optimizer.alpha=0.01
finetune.optimizer.weight_decay={weight_decay}
finetune.init=pretrained
shifting.k=0.1
shifting.t0=250
penalty.kind=diagonal-fisher
penalty.fisher_samples=8192
seeds={seeds}
output_dir={out}
"""
FISHER_TRANSFER_SEED = 7
FISHER_RUN_SEEDS = (201, 202, 203, 204, 205)
FISHER_ARMS = ({"kind": "recadam-coupled", "weight_decay": 0.0},
               {"kind": "adamw", "weight_decay": 0.01})


SUMMARY_KEYS = ("final_target_loss", "best_target_loss", "steps_to_threshold",
                "final_dist_to_pretrained")


def summary_numbers(summary: dict) -> list:
    """The four summary numbers in a bit-exact, JSON-friendly form."""
    return [v if v is None or isinstance(v, int) else float(v).hex()
            for v in (summary[k] for k in SUMMARY_KEYS)]


@dataclasses.dataclass
class Cycle:
    """Timings and check results of one pretrain -> finetune -> report cycle."""
    setup: Lap = Lap(0.0, 0.0)
    # (arm, lap, steps completed) per arm, or for the whole sweep
    finetune: list = dataclasses.field(default_factory=list)
    report: list = dataclasses.field(default_factory=list)
    probes: list = dataclasses.field(default_factory=list)
    pretrain_steps: int = 0
    runs: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    trace_bytes: int = 0

    @property
    def finetune_steps(self) -> int:
        return sum(steps for _, _, steps in self.finetune)

    @property
    def timed_s(self) -> float:
        """Wall time of the cycle's timed sections."""
        laps = [self.setup, *(lap for _, lap, _ in self.finetune), *self.report]
        return sum(lap.wall_s for lap in laps)

    def check_summary(self, key: str, summary: dict, reference: dict | None) -> None:
        """Count the run as failed unless its summary is finite and, where a
        reference exists, bit-identical to it."""
        numbers = [summary[k] for k in SUMMARY_KEYS]
        if not all(v is None or math.isfinite(v) for v in numbers):
            self.fail(f"{key}: non-finite summary {numbers}")
        elif reference is not None and reference.get(key) != summary_numbers(summary):
            self.fail(f"{key}: summary differs from the reference digest")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


class Workload:
    """One workload at one seed; ``cycle`` runs one closed-loop cycle with
    its timed section inside the ``timed`` context."""

    name = ""
    why = ""
    # report rewrites the same CSV files, so calling it again in a cycle is a
    # fair repeat; more calls give the median more samples
    report_calls = 2
    dim = 0
    batch = 0
    transfer_seed = 0
    base_run_seeds = ()

    def __init__(self, seed: int, work: Path, reference: dict | None):
        self.work = work
        self.out = work / "out"
        self.reference = reference
        self.transfer_seed = self.transfer_seed + seed
        self.seeds = tuple(s + 1000 * seed for s in self.base_run_seeds)
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int, timed, probe: bool) -> Cycle:
        raise NotImplementedError

    def reference_runs(self) -> dict:
        """Summary numbers of every run at this seed, for reference.json."""
        raise NotImplementedError


class _LibraryArms(Workload):
    """Pretrain, then every arm at ``seeds_per_cycle`` run seeds through
    ``harness.finetune``, then ``harness.report`` over the run directories."""

    template = ""
    arms = ()
    seeds_per_cycle = 1
    report_files = ()

    @staticmethod
    def arm_name(arm: dict) -> str:
        return "-".join(str(v) for v in arm.values())

    def prepare(self) -> None:
        common = dict(transfer_seed=self.transfer_seed,
                      seeds=",".join(map(str, self.seeds)), out=self.out)
        self.arm_paths = [_write(self.work / f"arm{i}.cfg", self.template.format(**common, **arm))
                          for i, arm in enumerate(self.arms)]

    def cycle(self, index: int, timed, probe: bool) -> Cycle:
        out = Cycle()
        n = self.seeds_per_cycle
        cycle_seeds = [self.seeds[(index * n + j) % len(self.seeds)] for j in range(n)]
        shutil.rmtree(self.out, ignore_errors=True)
        summaries = {}
        with timed():
            watch = Stopwatch(probe)
            cfg = load_config(self.arm_paths[0])
            theta_star, _ = harness.pretrain(cfg, write_outputs=False)
            out.setup = watch.lap()
            for arm, path in zip(self.arms, self.arm_paths):
                arm_cfg = load_config(path)
                steps = 0
                for run_seed in cycle_seeds:
                    key = f"{self.arm_name(arm)}-s{run_seed}"
                    out.runs += 1
                    try:
                        _, summary = harness.finetune(arm_cfg, theta_star, run_seed,
                                              run_dir=self.out / "runs" / key)
                    except NumericError as exc:
                        out.fail(f"{key}: NumericError at step {exc.step}")
                    else:
                        steps += arm_cfg.finetune.steps
                        summaries[key] = summary.to_dict()
                out.finetune.append((self.arm_name(arm), watch.lap(), steps))
            for _ in range(self.report_calls):
                written = harness.report(self.out / "runs")
                out.report.append(watch.lap())
        out.probes = watch.probes
        out.pretrain_steps = cfg.pretrain.steps
        for key, summary in summaries.items():
            out.check_summary(key, summary, self.reference)
        missing = set(self.report_files) - {Path(p).name for p in written}
        if missing:
            out.problems.append(f"report did not write {sorted(missing)}")
        out.trace_bytes = sum(p.stat().st_size for p in self.out.rglob("trace.csv"))
        return out

    def reference_runs(self) -> dict:
        theta_star, _ = harness.pretrain(load_config(self.arm_paths[0]), write_outputs=False)
        runs = {}
        for arm, path in zip(self.arms, self.arm_paths):
            cfg = load_config(path)
            for run_seed in self.seeds:
                _, summary = harness.finetune(cfg, theta_star, run_seed)
                runs[f"{self.arm_name(arm)}-s{run_seed}"] = summary_numbers(summary.to_dict())
        return runs


class MlpFinetune(_LibraryArms):
    name = "mlp-finetune"
    why = ("criterion 9 fixture, mlp-1h d=227 batch 64 in three arms: the task "
           "gradient dominates the step; set-up and trace I/O are small shares")
    dim, batch = 227, 64
    template = MLP9_CFG
    transfer_seed = MLP9_TRANSFER_SEED
    base_run_seeds = MLP9_RUN_SEEDS
    arms = MLP9_ARMS
    seeds_per_cycle = 1  # three 12000-step runs already take about 7 s
    report_calls = 3
    report_files = ("learning_curves.csv", "summary_median.csv", "init_comparison.csv")


class FisherLogreg(_LibraryArms):
    name = "fisher-logreg"
    why = ("logistic regression d=64 batch 128, diagonal-Fisher penalty: the only path "
           "through Fisher estimation and the coupled and AdamW steppers; big per-run set-up")
    dim, batch = 64, 128
    template = FISHER_CFG
    transfer_seed = FISHER_TRANSFER_SEED
    base_run_seeds = FISHER_RUN_SEEDS
    arms = FISHER_ARMS
    seeds_per_cycle = len(FISHER_RUN_SEEDS)
    report_files = ("learning_curves.csv", "summary_median.csv")


def _cli(args: list) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"recadamlab {' '.join(args)} exited {code}: {sink.getvalue()}")


def _sweep_key(row: dict) -> str:
    return f"k{float(row['k']):g}-t{row['t0']}-g{float(row['gamma']):g}-s{row['seed']}"


def _row_summary(row: dict) -> dict:
    return {k: (None if row[k] == "" else int(row[k]) if k == "steps_to_threshold"
                else float(row[k])) for k in SUMMARY_KEYS}


class QuadSweep(Workload):
    name = "quad-sweep"
    why = ("criterion 10 sweep through the CLI, quadratic d=12, 40 runs x 300 steps: "
           "stepper, bookkeeping and trace write and read dominate")
    dim, batch = 12, 0
    transfer_seed = SWEEP_TRANSFER_SEED
    base_run_seeds = SWEEP_RUN_SEEDS

    def prepare(self) -> None:
        seeds = ",".join(map(str, self.seeds))
        self.cfg_path = _write(self.work / "sweep.cfg", SWEEP_CFG.format(
            transfer_seed=self.transfer_seed, seeds=seeds, out=self.out))
        self.grid_path = _write(self.work / "grid.cfg", SWEEP_GRID.format(seeds=seeds))

    def _run(self, out: Cycle, timed, probe: bool) -> tuple:
        """Pretrain, sweep and report; the sweep's rows and its lap."""
        shutil.rmtree(self.out, ignore_errors=True)
        with timed():
            watch = Stopwatch(probe)
            _cli(["pretrain", "--config", str(self.cfg_path)])
            out.setup = watch.lap()
            _cli(["sweep", "--config", str(self.cfg_path), "--grid", str(self.grid_path)])
            sweep = watch.lap()
            for _ in range(self.report_calls):
                _cli(["report", "--dir", str(self.out)])
                out.report.append(watch.lap())
        out.probes = watch.probes
        with open(self.out / "summaries.csv", newline="") as fh:
            return list(csv.DictReader(fh)), sweep

    def cycle(self, index: int, timed, probe: bool) -> Cycle:
        out = Cycle(runs=SWEEP_RUNS)
        rows, sweep = self._run(out, timed, probe)
        steps = 0
        cfg = load_config(self.cfg_path)
        out.pretrain_steps = cfg.pretrain.steps
        if len(rows) != SWEEP_RUNS:
            out.problems.append(f"summaries.csv has {len(rows)} rows, not {SWEEP_RUNS}")
        for row in rows:
            if row["status"] != "ok":
                out.fail(f"{_sweep_key(row)}: status {row['status']}")
                continue
            steps += cfg.finetune.steps
            out.check_summary(_sweep_key(row), _row_summary(row), self.reference)
        out.finetune.append(("sweep", sweep, steps))
        if rows:
            self.check_replay(out, rows[index % len(rows)])
        out.trace_bytes = sum(p.stat().st_size for p in self.out.rglob("*trace.csv"))
        return out

    def check_replay(self, out: Cycle, row: dict) -> None:
        """Replay one run from its recorded config.json: its trace must match
        the sweep's byte for byte."""
        run_dir = self.out / "runs" / _sweep_key(row)
        flat = json.loads((run_dir / "config.json").read_text())
        seed = int(flat.pop("run_seed"))
        cfg = config_from_values(parse_flat_text("\n".join(f"{k}={v}" for k, v in flat.items())))
        replay_dir = self.work / "replay"
        shutil.rmtree(replay_dir, ignore_errors=True)
        try:
            harness.finetune(cfg, read_vector(self.out / "theta_star.bin"), seed, run_dir=replay_dir)
        except NumericError as exc:
            out.fail(f"replay of {run_dir.name}: NumericError at step {exc.step}")
            return
        if (replay_dir / "trace.csv").read_bytes() != (run_dir / "trace.csv").read_bytes():
            out.fail(f"replay of {run_dir.name}: trace.csv bytes differ")

    def reference_runs(self) -> dict:
        rows, _ = self._run(Cycle(), contextlib.nullcontext, probe=False)
        return {_sweep_key(row): summary_numbers(_row_summary(row)) for row in rows}


WORKLOADS = {w.name: w for w in (MlpFinetune, QuadSweep, FisherLogreg)}
