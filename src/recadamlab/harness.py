"""Experiment orchestration: pretrain, finetune, sweeps, and reports.

Each fine-tuning step logs one trace row describing the state the step
consumed: step index t, lambda(t), batch target loss and penalty value at
theta_{t-1}, their lambda-mixture, distance to the pretrained anchor,
gradient norm, and eta_t.  In memory a trace is one (n_steps, 8) float64
array; on disk it is CSV with 17-significant-digit floats, written row by
row, so an aborted run leaves a usable partial trace (a step that fails its
finiteness checks writes no row).  RunSummary.final_target_loss is
evaluated on the full dataset at the final parameters; best/steps-to-
threshold come from the per-step batch losses in the trace.
"""

import csv
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, NoDataError, NumericError
from .numkit import RandomSource, l2_distance
from .optim import (AdamState, ScheduleMultiplier, adam_step, adamw_step,
                    coupled_recadam_step, recadam_step, schedule_multiplier)
# penalty_loss and penalty_grad are not called here, but perfbench/tracer.py
# wraps them under these names, so they stay importable from this module
from .recall import (PenaltyModel, _penalty_terms, estimate_diag_fisher,  # noqa: F401
                     penalty_grad, penalty_loss)
from .shifting import composite_loss, lambda_at
from .storage import read_vector, write_vector
from .tasks import TransferPair, batch_stream, gen_transfer_pair

TRACE_COLUMNS = ("step", "lambda", "target_loss", "penalty_value",
                 "composite_loss", "dist_to_pretrained", "grad_norm", "eta")

RANDOM_INIT_STD = 0.02  # scaled-normal random initialization
_REFERENCE_FACTOR = 1.10  # see reference_threshold
_REFERENCE_STEPS_MULTIPLIER = 2


def _fmt(x: float) -> str:
    return "%.17g" % x


class TrainingTrace:
    """Per-step experiment record: ``data`` is an (n_steps, 8) float64 array
    whose columns are TRACE_COLUMNS, one row per step."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64).reshape(-1, len(TRACE_COLUMNS))

    def column(self, name: str) -> np.ndarray:
        """A view of one column; do not write to it."""
        return self.data[:, TRACE_COLUMNS.index(name)]

    def __len__(self):
        return len(self.data)


class TraceWriter:
    """Streams trace rows to CSV as they are produced."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._fh = open(self.path, "w", newline="")
        self._fh.write(",".join(TRACE_COLUMNS) + "\n")

    def write_row(self, row: tuple) -> None:
        step = str(int(row[0]))
        self._fh.write(step + "," + ",".join(_fmt(x) for x in row[1:]) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_trace(path: str | os.PathLike) -> TrainingTrace:
    """Load a trace file in one parse.  A wrong header, a row without one
    number per column, a cell that is not a number or a step column other
    than 1, 2, ..., n is NoDataError; blank lines are skipped."""
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        has_rows = any(line.strip() for line in fh)
    if tuple(header) != TRACE_COLUMNS:
        raise NoDataError(f"unexpected trace header in {path}")
    if not has_rows:  # loadtxt warns on an input without rows
        return TrainingTrace(())
    try:
        # given the path, loadtxt reads the file in chunks, not line by line
        data = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError as exc:
        raise NoDataError(f"malformed trace {path}: {exc}") from None
    if data.shape[1] != len(TRACE_COLUMNS):
        raise NoDataError(f"malformed trace {path}: {data.shape[1]} columns")
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise NoDataError(f"malformed trace {path}: steps are not 1, 2, ..., {len(data)}")
    return TrainingTrace(data)


@dataclass
class RunSummary:
    final_target_loss: float
    best_target_loss: float
    steps_to_threshold: Optional[int]
    final_dist_to_pretrained: float
    seed: int
    config_hash: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunSummary":
        return cls(**doc)


def build_transfer_pair(cfg: ExperimentConfig) -> TransferPair:
    t = cfg.transfer
    return gen_transfer_pair(t.kind, t.dim, t.rho, RandomSource(t.seed),
                             n_samples=t.n_samples, dim_in=t.dim_in, hidden=t.hidden,
                             classes=t.classes, noise_std=t.noise_std,
                             center_scale=t.center_scale, label_noise=t.label_noise)


def build_penalty(cfg: ExperimentConfig, pair: TransferPair,
                  theta_star: np.ndarray) -> PenaltyModel:
    pen = cfg.penalty
    if pen.kind == "none":
        return PenaltyModel.none(theta_star)
    if pen.kind == "isotropic":
        return PenaltyModel.isotropic(theta_star, pen.gamma)
    fisher_rng = RandomSource(cfg.transfer.seed).child("fisher")
    fisher, n_obs = estimate_diag_fisher(pair.source, theta_star,
                                         pen.fisher_samples, fisher_rng)
    return PenaltyModel.diagonal_fisher(theta_star, fisher, n_obs)


# Per optimizer kind: (uses the recall penalty, stepper).  The lambdas call
# the steppers by their names in this module, which perfbench/tracer.py wraps.
_STEPPERS = {
    "adam": (False, lambda th, st, cfg, wd, eta, g, lam, pg:
             adam_step(th, st, cfg, eta, g)),
    "adamw": (False, lambda th, st, cfg, wd, eta, g, lam, pg:
              adamw_step(th, st, cfg, eta, g, wd)),
    "recadam": (True, lambda th, st, cfg, wd, eta, g, lam, pg:
                recadam_step(th, st, cfg, eta, g, lam, pg)),
    "recadam-coupled": (True, lambda th, st, cfg, wd, eta, g, lam, pg:
                        coupled_recadam_step(th, st, cfg, eta, g, lam, pg)),
}


def _run_loop(task, theta0, steps, batch_size, rng_batches, writer, pen, kind,
              adam_cfg, weight_decay=0.0, schedule=ScheduleMultiplier(), anneal=None):
    """Shared training loop; returns (trace, theta_final).  The stepper checks
    the gradients before the step's row is recorded."""
    recall, step = _STEPPERS[kind]
    rows = []  # a list append costs less per step than a write into an array row
    theta = np.array(theta0, dtype=np.float64)
    state = AdamState.fresh(theta.size)
    batches = None
    if task.dataset_size() > 0:
        batches = batch_stream(task.dataset_size(), batch_size, rng_batches)
    try:
        for t in range(1, steps + 1):
            batch = next(batches) if batches is not None else None
            loss, grad = task.loss_and_grad(theta, batch)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at step {t}", step=t)
            eta = schedule_multiplier(schedule, t)
            lam = lambda_at(anneal, t) if recall else 1.0
            pval, pgrad, dist = _penalty_terms(pen, theta, with_grad=recall)
            row = (t, lam, loss, pval, composite_loss(lam, loss, pval), dist,
                   float(np.sqrt(np.sum(grad * grad))), eta)
            theta, state = step(theta, state, adam_cfg, weight_decay, eta, grad, lam, pgrad)
            rows.append(row)
            if writer is not None:
                writer.write_row(row)
    finally:
        if writer is not None:
            writer.close()
    return TrainingTrace(rows), theta


def pretrain(cfg: ExperimentConfig, write_outputs: bool = True):
    """Train on the source task with vanilla Adam from a seeded random init.

    Persists theta_star and the pretraining trace under cfg.output_dir.
    """
    pair = build_transfer_pair(cfg)
    task = pair.source
    root = RandomSource(cfg.transfer.seed)
    theta0 = RANDOM_INIT_STD * root.child("pretrain-init").normal(task.dim)
    writer = None
    if write_outputs:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        writer = TraceWriter(out / "pretrain_trace.csv")
    trace, theta = _run_loop(task, theta0, cfg.pretrain.steps, cfg.pretrain.batch_size,
                             root.child("pretrain-batches"), writer,
                             PenaltyModel.none(np.zeros(task.dim)), "adam",
                             cfg.pretrain.optimizer)
    theta_star = theta.copy()
    theta_star.flags.writeable = False
    if write_outputs:
        write_vector(Path(cfg.output_dir) / "theta_star.bin", theta_star)
    return theta_star, trace


def finetune(cfg: ExperimentConfig, theta_star: np.ndarray, seed: int,
             run_dir: str | os.PathLike | None = None):
    """Fine-tune on the target task under the configured optimizer.

    Returns (trace, summary); writes trace.csv, summary.json and
    config.json into run_dir when given.
    """
    pair = build_transfer_pair(cfg)
    task = pair.target
    if theta_star.size != task.dim:
        raise ConfigError(f"theta_star length {theta_star.size} != task dim {task.dim}")
    rng = RandomSource(seed)
    if cfg.finetune.init == "random":
        theta0 = RANDOM_INIT_STD * rng.child("init").normal(task.dim)
    else:
        theta0 = np.array(theta_star, dtype=np.float64)
    pen = build_penalty(cfg, pair, theta_star)
    writer = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        writer = TraceWriter(run_dir / "trace.csv")
        (run_dir / "config.json").write_text(
            json.dumps({**cfg.to_flat(), "run_seed": str(seed)}, sort_keys=True, indent=2))
    ft = cfg.finetune
    trace, theta = _run_loop(task, theta0, ft.steps, ft.batch_size, rng.child("batches"),
                             writer, pen, ft.optimizer_kind, ft.optimizer,
                             ft.weight_decay, ft.schedule, cfg.shifting)
    summary = summarize(trace, task, theta, theta_star, seed, cfg.config_hash(),
                        ft.loss_threshold)
    if run_dir is not None:
        (run_dir / "summary.json").write_text(
            json.dumps(summary.to_dict(), sort_keys=True, indent=2))
    return trace, summary


def summarize(trace: TrainingTrace, task, theta_final, theta_star, seed: int,
              config_hash: str, loss_threshold: Optional[float]) -> RunSummary:
    losses = trace.column("target_loss")
    steps_to = None
    if loss_threshold is not None:
        hits = np.nonzero(losses < loss_threshold)[0]
        if hits.size:
            steps_to = int(trace.column("step")[hits[0]])
    final_full = task.loss_and_grad(theta_final, None)[0]
    return RunSummary(
        final_target_loss=float(final_full),
        best_target_loss=float(losses.min()),
        steps_to_threshold=steps_to,
        final_dist_to_pretrained=l2_distance(theta_final, theta_star),
        seed=seed,
        config_hash=config_hash,
    )


def reference_threshold(cfg: ExperimentConfig, theta_star: np.ndarray) -> float:
    """Default steps_to_threshold target: _REFERENCE_FACTOR x the best batch
    loss of a vanilla-Adam run _REFERENCE_STEPS_MULTIPLIER times as long as
    finetune.steps (pretrained init, constant schedule)."""
    ref_cfg = dataclasses.replace(
        cfg,
        finetune=dataclasses.replace(
            cfg.finetune,
            steps=cfg.finetune.steps * _REFERENCE_STEPS_MULTIPLIER,
            optimizer_kind="adam",
            init="pretrained",
            schedule=dataclasses.replace(cfg.finetune.schedule, kind="constant"),
        ),
    )
    trace, _ = finetune(ref_cfg, theta_star, cfg.seeds[0])
    return _REFERENCE_FACTOR * float(trace.column("target_loss").min())


SUMMARY_FIELDS = ("k", "t0", "gamma", "seed", "status", "final_target_loss",
                  "best_target_loss", "steps_to_threshold",
                  "final_dist_to_pretrained", "config_hash")


def _run_id(k: float, t0: int, gamma: float, seed: int) -> str:
    return f"k{k:g}-t{t0}-g{gamma:g}-s{seed}"


def _grid_runs(cfg: ExperimentConfig, grid: dict) -> dict:
    """run id -> ({k, t0, gamma, seed}, run config) per grid point; a value the
    config refuses or two points with one run id is a ConfigError."""
    ks = grid.get("k") or (cfg.shifting.k,)
    t0s = grid.get("t0") or (cfg.shifting.t0,)
    gammas = grid.get("gamma") or (cfg.penalty.gamma,)
    seeds = grid.get("seeds") or cfg.seeds
    runs = {}
    for k, t0, gamma in itertools.product(ks, t0s, gammas):
        if gamma < 0:
            raise ConfigError(f"grid gamma must be >= 0, got {gamma:g}")
        try:  # AnnealSchedule checks k and t0
            run_cfg = dataclasses.replace(
                cfg,
                shifting=dataclasses.replace(cfg.shifting, k=k, t0=t0),
                penalty=dataclasses.replace(cfg.penalty, gamma=gamma),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
        for seed in seeds:
            run_id = _run_id(k, t0, gamma, seed)
            if run_id in runs:
                raise ConfigError(f"two grid points share the run directory {run_id}")
            runs[run_id] = ({"k": k, "t0": t0, "gamma": gamma, "seed": seed}, run_cfg)
    return runs


def sweep(cfg: ExperimentConfig, grid: dict):
    """Run the Cartesian product of grid values over (k, t0, gamma, seeds).

    Grid entries left as None fall back to the base config's single value.
    Every grid point is checked before pretraining.  Each run gets its own
    directory under output_dir/runs; failures are recorded in the summary
    table and skipped.
    """
    runs = _grid_runs(cfg, grid)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    theta_path = out / "theta_star.bin"
    if theta_path.exists():
        theta_star = read_vector(theta_path)
    else:
        theta_star, _ = pretrain(cfg)

    rows = []
    summaries = []
    for run_id, (point, run_cfg) in runs.items():
        try:
            _, summary = finetune(run_cfg, theta_star, point["seed"],
                                  run_dir=out / "runs" / run_id)
        except NumericError as exc:
            rows.append({**point, "status": f"failed:step{exc.step}",
                         "config_hash": run_cfg.config_hash()})
            continue
        summaries.append(summary)
        rows.append({**point, **summary.to_dict(), "status": "ok"})

    with open(out / "summaries.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for row in rows:
            writer.writerow([_format_cell(row.get(field)) for field in SUMMARY_FIELDS])

    best = _best_configuration(rows)
    if best is not None:
        line = (f"best configuration by median final_target_loss: "
                f"k={best[0]:g} t0={best[1]} gamma={best[2]:g} "
                f"(median={_fmt(best[3])})")
        (out / "best_config.txt").write_text(line + "\n")
    return summaries


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip
    return str(value)


def _best_configuration(rows):
    groups = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        groups.setdefault((row["k"], row["t0"], row["gamma"]), []).append(
            row["final_target_loss"])
    if not groups:
        return None
    scored = [(float(np.median(v)), key) for key, v in groups.items()]
    scored.sort(key=lambda item: (item[0], item[1]))
    median, (k, t0, gamma) = scored[0]
    return k, t0, gamma, median


# --- reporting ---------------------------------------------------------------

def _discover_runs(run_dir: Path):
    """Completed runs only: a failed run leaves a partial trace but no summary."""
    runs = []
    for config_path in sorted(run_dir.rglob("config.json")):
        trace_path = config_path.parent / "trace.csv"
        summary_path = config_path.parent / "summary.json"
        if not (trace_path.exists() and summary_path.exists()):
            continue
        runs.append({"flat": json.loads(config_path.read_text()),
                     "trace": read_trace(trace_path),
                     "summary": RunSummary.from_dict(json.loads(summary_path.read_text()))})
    return runs


def _median_of(runs, name: str) -> str:
    return _fmt(float(np.median([getattr(r["summary"], name) for r in runs])))


def _median_or_none(values):
    vals = [math.inf if v is None else v for v in values]
    med = float(np.median(vals))
    return None if math.isinf(med) else med


def report(run_dir: str | os.PathLike) -> list:
    """Aggregate completed runs into CSV report files.

    Writes learning_curves.csv (per-k median target loss and distance,
    aligned on step), summary_median.csv (median metrics per configuration),
    and init_comparison.csv when both init modes are present.
    """
    run_dir = Path(run_dir)
    runs = _discover_runs(run_dir)
    if not runs:
        raise NoDataError(f"no completed runs (config, trace and summary) under {run_dir}")
    written = []

    # (a) per-k learning curves: one median over the stacked runs per k for all
    # steps at once, equal per step to that step's own median (odd or even count)
    by_k = {}
    for run in runs:
        by_k.setdefault(float(run["flat"]["shifting.k"]), []).append(run["trace"].data)
    ks = sorted(by_k)
    n_steps = min(len(run["trace"]) for run in runs)
    cols = [TRACE_COLUMNS.index("target_loss"), TRACE_COLUMNS.index("dist_to_pretrained")]
    curves = np.hstack([np.median(np.stack([data[:n_steps, cols] for data in by_k[k]]), axis=0)
                        for k in ks])
    curve_path = run_dir / "learning_curves.csv"
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"{name}_k={k:g}"
                                    for k in ks for name in ("target_loss", "dist")])
        writer.writerows([str(step), *map(_fmt, values)]
                         for step, values in enumerate(curves.tolist(), start=1))
    written.append(curve_path)

    # (b) median-over-seeds summary per configuration
    by_cfg = {}
    for run in runs:
        by_cfg.setdefault(run["summary"].config_hash, []).append(run)
    summary_path = run_dir / "summary_median.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_hash", "optimizer_kind", "init", "k", "t0", "gamma",
                         "n_runs", "median_final_target_loss",
                         "median_best_target_loss", "median_steps_to_threshold",
                         "median_final_dist_to_pretrained"])
        for cfg_hash in sorted(by_cfg):
            group = by_cfg[cfg_hash]
            flat = group[0]["flat"]
            writer.writerow([
                cfg_hash, flat["finetune.optimizer.kind"], flat["finetune.init"],
                flat["shifting.k"], flat["shifting.t0"], flat["penalty.gamma"],
                str(len(group)),
                _median_of(group, "final_target_loss"), _median_of(group, "best_target_loss"),
                _format_cell(_median_or_none([r["summary"].steps_to_threshold for r in group])),
                _median_of(group, "final_dist_to_pretrained"),
            ])
    written.append(summary_path)

    # (c) init-strategy comparison when both modes are present
    inits = {r["flat"]["finetune.init"] for r in runs}
    if {"random", "pretrained"} <= inits:
        comparison_path = run_dir / "init_comparison.csv"
        with open(comparison_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "init", "median"])
            for name in ("final_target_loss", "best_target_loss", "final_dist_to_pretrained"):
                for init in ("random", "pretrained"):
                    group = [r for r in runs if r["flat"]["finetune.init"] == init]
                    writer.writerow([name, init, _median_of(group, name)])
        written.append(comparison_path)
    return written
