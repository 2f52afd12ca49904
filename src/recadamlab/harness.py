r"""Experiment orchestration: pretrain, finetune, sweeps, and reports.

Each fine-tuning step logs one trace row describing the state the step consumed: step
index t, lambda(t), batch target loss and penalty value at theta_{t-1}, their
lambda-mixture, distance to the pretrained anchor, gradient norm, and eta_t.  In memory
a trace is one (n_steps, 8) float64 array with the TRACE_COLUMNS, as pretrain, finetune
and read_trace return it; on disk it is CSV with 17-significant-digit floats, written by
_finish, one row per step taken (a failing step writes none): as a fine-tuning stack
exits, also on an exception, and for pretrain after theta_star.bin.
Every file of a run dir, theta_star.bin and the sweep and report tables go to <name>.tmp
and are renamed into place, so a kill or a failed write leaves no part-written file.  Trace
lines end with "\n"; the report CSVs end theirs with "\r\n", as the csv module writes
them; their curve cells are %.17g.
RunSummary.final_target_loss is evaluated on the full dataset at the final parameters;
best/steps-to-threshold come from the trace's batch losses.

One training loop, _run_loop, advances a stack of runs at once: theta and the Adam
moments are (S, d) arrays with one run per row.  A step computes only what the update
reads; the penalty, composite, distance and gradient-norm columns are filled a block of
max(_FILL_STEPS, _BLOCK // S) steps at a time.  pretrain and finetune are its S = 1
case; sweep runs its grid through it in chunks of at most _SWEEP_CHUNK runs and
_TRACE_ROW_BUDGET trace rows, and every run's files are the same bytes a lone finetune
writes.  One-entry memos hold the transfer pair and any Fisher diagonal: a process builds
each once per key.  A failing check's NumericError.rows marks the runs that passed it;
_run_loop retires the others.
"""

import contextlib
import csv
import functools
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import _KEYS, ExperimentConfig
from .errors import ConfigError, DimensionError, NoDataError, NumericError
from .numkit import RandomSource, l2_distance
from .optim import (AdamState, ScheduleMultiplier, adam_step, adamw_step,
                    coupled_recadam_step, recadam_step, schedule_multiplier)
from .recall import PenaltyModel, estimate_diag_fisher, penalty_grad, penalty_loss
from .shifting import composite_loss, lambda_at
from .storage import read_vector, write_vector
from .tasks import TransferPair, batch_stream, gen_transfer_pair

TRACE_COLUMNS = ("step", "lambda", "target_loss", "penalty_value",
                 "composite_loss", "dist_to_pretrained", "grad_norm", "eta")
_ROW_FORMAT = "%d" + ",%.17g" * (len(TRACE_COLUMNS) - 1) + "\n"  # a trace.csv row
_ROW_BYTES, _BLOCK = _ROW_FORMAT.encode(), 64  # TraceWriter formats _BLOCK rows per %
_FILL_STEPS = 8  # the fewest steps _run_loop fills at once, however many runs it stacks
_STEP, _LAMBDA, _LOSS, _PENALTY, _COMPOSITE, _DIST, _GRAD_NORM, _ETA = range(len(TRACE_COLUMNS))

RANDOM_INIT_STD = 0.02  # scaled-normal random initialization


def _fmt(x: float) -> str:
    return "%.17g" % x


class TraceWriter:
    """A trace.csv file: the header on opening, then a run's rows, in write_rows."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._fh.write((",".join(TRACE_COLUMNS) + "\n").encode())

    def write_row(self, row) -> None:
        """One row, a sequence with one number per column."""
        self._fh.write(_ROW_BYTES % tuple(row))

    def write_rows(self, rows: np.ndarray) -> None:
        """The rows of an (n, 8) array: whole blocks by _write_blocks, the rest by write_row."""
        for row in _write_blocks(self._fh, _ROW_BYTES, rows).tolist():
            self.write_row(row)

    def close(self) -> None:
        self._fh.close()


def _write_blocks(fh, row: bytes, rows: np.ndarray) -> np.ndarray:
    """Write the whole _BLOCK-row blocks of rows (n, c) to fh, one % of row a block;
    returns the rows after the last whole block."""
    whole = len(rows) - len(rows) % _BLOCK
    for block in rows[:whole].reshape(-1, _BLOCK * rows.shape[1]):
        fh.write(row * _BLOCK % tuple(block.tolist()))
    return rows[whole:]


def read_trace(path: str | os.PathLike) -> np.ndarray:
    """Load a trace file in one parse, as an (n_steps, 8) array.  A wrong header, a row
    without one number per column, a cell that is not a number or a step column other
    than 1, 2, ..., n is NoDataError; blank lines are skipped."""
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        has_rows = any(line.strip() for line in fh)
    if tuple(header) != TRACE_COLUMNS:
        raise NoDataError(f"unexpected trace header in {path}")
    if not has_rows:  # loadtxt warns on an input without rows
        return np.empty((0, len(TRACE_COLUMNS)))
    try:
        # given the path, loadtxt reads the file in chunks, not line by line
        data = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError as exc:
        raise NoDataError(f"malformed trace {path}: {exc}") from None
    if data.shape[1] != len(TRACE_COLUMNS):
        raise NoDataError(f"malformed trace {path}: {data.shape[1]} columns")
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise NoDataError(f"malformed trace {path}: steps are not 1, 2, ..., {len(data)}")
    return data


def _read_theta_star(path: str | os.PathLike) -> np.ndarray:
    """A theta_star checkpoint; an unreadable or truncated one is a ConfigError."""
    try:
        return read_vector(path)
    except (OSError, DimensionError) as exc:
        raise ConfigError(f"cannot read theta_star file {path}: {exc}") from exc


@dataclass
class RunSummary:
    final_target_loss: float
    best_target_loss: float
    steps_to_threshold: Optional[int]
    final_dist_to_pretrained: float
    seed: int
    config_hash: str

    def to_dict(self) -> dict:
        return asdict(self)


def build_transfer_pair(cfg: ExperimentConfig) -> TransferPair:
    """cfg's transfer pair, from a one-entry memo: every caller shares it, read-only."""
    return _pair_of(**vars(cfg.transfer))


@functools.lru_cache(maxsize=1)
def _pair_of(kind, dim, rho, seed, **sizes) -> TransferPair:
    return gen_transfer_pair(kind, dim, rho, RandomSource(seed), **sizes)


@functools.lru_cache(maxsize=1)
def _fisher_of(fisher_samples: int, theta_bytes: bytes, **t):
    """(read-only Fisher diagonal, n_obs) of t's source task at the anchor theta_bytes."""
    fisher, n_obs = estimate_diag_fisher(_pair_of(**t).source, np.frombuffer(theta_bytes),
                                         fisher_samples, RandomSource(t["seed"]).child("fisher"))
    fisher.flags.writeable = False
    return fisher, n_obs


def build_penalty(cfg: ExperimentConfig, theta_star: np.ndarray) -> PenaltyModel:
    """cfg's penalty, anchored at theta_star (of the task's length, or a ConfigError); a
    Fisher diagonal is memoized by theta_star's bytes, so a changed anchor is re-estimated."""
    if theta_star.size != (dim := build_transfer_pair(cfg).target.dim):
        raise ConfigError(f"theta_star length {theta_star.size} != task dim {dim}")
    pen = cfg.penalty
    if pen.kind != "diagonal-fisher":
        return PenaltyModel(pen.kind, theta_star, pen.gamma if pen.kind == "isotropic" else 0.0)
    return PenaltyModel(pen.kind, theta_star, 0.0, *_fisher_of(
        pen.fisher_samples, np.asarray(theta_star, np.float64).tobytes(), **vars(cfg.transfer)))


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
_SWEEP_CHUNK = 64  # most runs a sweep stacks: bounds per-run state, e.g. n_rows permutations
_TRACE_ROW_BUDGET = 2**18  # most trace rows a sweep chunk holds: 16 MiB
_REPORT_KEYS = dict.fromkeys(  # the config.json keys report reads, all strings
    "finetune.optimizer.kind finetune.init shifting.k shifting.t0 penalty.gamma".split(), str)


# the loop's own checks raise NumericError for a non-finite value, so the
# warnings that kernels differ in (overflow, invalid) do not reach the caller
@np.errstate(over="ignore", invalid="ignore")
def _run_loop(task, theta0, steps, batch_size, batch_rngs, trace_paths, pen, kind, adam_cfg,
              weight_decay=0.0, schedule=ScheduleMultiplier(), anneals=None, gammas=None):
    """The one training loop: it advances S runs at once, one per row of
    theta0 (S, d).  Run i draws its batches from batch_rngs[i], follows
    anneals[i] and the isotropic coefficient gammas[i] (default pen.gamma).
    No file exists while the stack trains: at its exit, with its result or an exception,
    _finish writes run i's rows to trace_paths[i] (None, as pretrain passes: no file).
    A step computes only what the update reads; _fill makes the other columns
    from a block of max(_FILL_STEPS, _BLOCK // S) steps of theta and gradient.  Each
    row of every (S, d) array is bit-identical to the run alone.  Returns per
    run (trace, final theta), or a NumericError for a run whose loss, gradient
    or penalty gradient was not finite at step t (the first check it failed): its
    trace ends at step t - 1, and it leaves the stepper's arrays while the others go on.
    The trace and block arrays keep one row per run id for the whole call."""
    recall, step = _STEPPERS[kind]
    theta = np.array(theta0, dtype=np.float64)
    state = AdamState.fresh(theta.shape)
    # the rows of every step, with the step, lambda and eta columns filled in up front
    data = np.empty((len(theta), steps, len(TRACE_COLUMNS)))
    data[:, :, _STEP] = np.arange(1, steps + 1)
    etas = [schedule_multiplier(schedule, t) for t in range(1, steps + 1)]
    data[:, :, _ETA] = etas
    data[:, :, _LAMBDA] = 1.0
    for anneal, rows in _group(range(len(theta)) if recall else (), lambda i: anneals[i]).items():
        data[rows, :, _LAMBDA] = [lambda_at(anneal, t) for t in range(1, steps + 1)]
    gammas = np.full(len(theta), pen.gamma if gammas is None else gammas, np.float64)[:, None]
    runs = list(range(len(theta)))  # the live runs' ids, one per row of theta and state
    live = slice(None)  # their rows of the by-id arrays: all of them until a run fails
    ends = [steps] * len(theta)  # by run id: the steps its trace may hold
    size = task.dataset_size()
    # by run id: its batch stream (None: no dataset) and trace_paths[run] (None: no file)
    streams = [batch_stream(size, batch_size, rng) if size > 0 else None for rng in batch_rngs]
    # a task without a dataset takes a stack in one call; a lone run takes
    # the one-row call, which costs less a step
    stacked = size == 0 and len(theta) > 1
    thetas, grads = np.empty((2, len(theta), max(_FILL_STEPS, _BLOCK // len(theta)),
                              theta.shape[1]))
    results = [None] * len(theta)
    done = filled = 0  # the steps every live run has taken, and the steps filled
    passing = True  # until the loop ends, an exception may be in flight
    try:
        for t in range(1, steps + 1):
            if t - 1 - filled == thetas.shape[1]:  # a full block
                _fill(data[:, filled:t - 1], thetas, grads, pen, gammas)
                filled = t - 1
            j = t - 1 - filled
            thetas[live, j] = theta
            if stacked:
                data[live, t - 1, _LOSS], grads[live, j] = task.loss_and_grad(theta)
            else:
                for i, run in enumerate(runs):
                    data[run, t - 1, _LOSS], grads[run, j] = task.loss_and_grad(
                        theta[i], None if streams[run] is None else next(streams[run]))
            while runs:  # a failing check drops the rows it marks and goes again with the rest
                try:
                    losses = data[live, t - 1, _LOSS]
                    if not all(map(math.isfinite, losses.tolist())):  # no sum: it overflows
                        raise NumericError(f"non-finite loss at step {t}", step=t,
                                           rows=np.isfinite(losses))
                    # the stepper checks the gradients
                    theta, state = step(theta, state, adam_cfg, weight_decay, etas[t - 1],
                                        grads[live, j], data[live, t - 1, _LAMBDA:_LAMBDA + 1],
                                        penalty_grad(pen, theta, gammas[live]) if recall else None)
                    break
                except NumericError as exc:
                    if (keep := exc.rows) is None or keep.all():
                        raise  # no run to drop: going again would loop
                    for run in itertools.compress(runs, ~keep):
                        results[run] = exc.with_traceback(None)  # holds none of the loop's frames
                        ends[run] = t - 1
                    runs = list(itertools.compress(runs, keep))
                    live = np.array(runs, dtype=np.intp)
                    theta, state = theta[keep], AdamState(state.t, state.m[keep], state.v[keep])
            if not runs:
                break
            done = t
        passing = False
    finally:  # finish every run even if a write fails; a failed write masks no exception in flight
        with (contextlib.suppress(Exception) if passing else contextlib.nullcontext()), \
                contextlib.ExitStack() as finishing:
            try:
                _fill(data[:, filled:done], thetas, grads, pen, gammas)
                filled = done
            finally:  # a fill that fails leaves its steps out of every file
                for run, end in enumerate(ends):
                    finishing.callback(_finish, data[run, :min(end, filled)],
                                       trace_paths and trace_paths[run])
    for i, run in enumerate(runs):
        results[run] = (data[run], theta[i])
    return results


def _fill(rows, thetas, grads, pen, gammas) -> None:
    """Fill the penalty, composite, distance and gradient-norm columns of rows (S, n, 8),
    n steps at once, every row of the by-id arrays.  The steps of a failed run after its
    end come from stale block slots: its file and result never hold them."""
    n = rows.shape[1]
    rows[:, :, _PENALTY] = penalty_loss(pen, thetas[:, :n], gammas[:, None])
    rows[:, :, _DIST] = l2_distance(thetas[:, :n], pen.theta_star)
    rows[:, :, _COMPOSITE] = composite_loss(rows[:, :, _LAMBDA], rows[:, :, _LOSS],
                                            rows[:, :, _PENALTY])
    rows[:, :, _GRAD_NORM] = np.sqrt((grads[:, :n] * grads[:, :n]).sum(axis=-1))


def _finish(rows, path) -> None:
    """A run's exit, the only code that touches a trace file: publish the header and its
    filled rows to path (None: no file)."""
    if path is not None:
        with _published(path) as tmp, contextlib.closing(TraceWriter(tmp)) as writer:
            writer.write_rows(rows)


@contextlib.contextmanager
def _published(path):
    """Yield path + ".tmp" to write; rename it onto path, or remove it if anything raises."""
    tmp = Path(f"{path}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, doc: dict) -> None:
    """Publish doc as a sorted, indented JSON object: config.json or summary.json."""
    with _published(path) as tmp:
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=2))


def _lone(results):
    """The result of a lone run of _run_loop; raises it if it is a NumericError."""
    [result] = results
    if isinstance(result, NumericError):
        raise result
    return result


def pretrain(cfg: ExperimentConfig, write_outputs: bool = True):
    """Train on the source task with vanilla Adam from a seeded random init.

    With write_outputs, a finished run publishes theta_star.bin, then pretrain_trace.csv,
    in cfg.output_dir: a failed or interrupted run or checkpoint write keeps the old pair.
    """
    task = build_transfer_pair(cfg).source
    root = RandomSource(cfg.transfer.seed)
    theta0 = RANDOM_INIT_STD * root.child("pretrain-init").normal(task.dim)
    out = Path(cfg.output_dir)
    if write_outputs:
        out.mkdir(parents=True, exist_ok=True)
    trace, theta = _lone(_run_loop(task, theta0[None], cfg.pretrain.steps,
                                   cfg.pretrain.batch_size, [root.child("pretrain-batches")],
                                   None, PenaltyModel("none", np.zeros(task.dim)), "adam",
                                   cfg.pretrain.optimizer))
    theta_star = theta.copy()
    theta_star.flags.writeable = False
    if write_outputs:
        with _published(out / "theta_star.bin") as tmp:
            write_vector(tmp, theta_star)
        (out / "pretrain_trace.csv").unlink(missing_ok=True)
        _finish(trace, out / "pretrain_trace.csv")
    return theta_star, trace


def _finetune_runs(task, pen, theta_star, runs):
    """Fine-tune runs as the rows of one loop, the only code that writes a run dir.  runs
    holds (run config, seed, run dir or None) per run; the configs may differ only in
    shifting.k, shifting.t0 and penalty.gamma.  Each run dir is made with config.json
    before the loop, gets trace.csv at its exit and summary.json if the run finishes,
    each published whole; a failed summary.json write passes out after the others are
    written.  Returns per run (trace, summary), or the run's NumericError."""
    ft = runs[0][0].finetune
    theta0 = np.empty((len(runs), task.dim))
    for i, (run_cfg, seed, run_dir) in enumerate(runs):
        theta0[i] = (RANDOM_INIT_STD * RandomSource(seed).child("init").normal(task.dim)
                     if ft.init == "random" else theta_star)
        if run_dir is not None:
            Path(run_dir).mkdir(parents=True, exist_ok=True)
            _write_json(Path(run_dir, "config.json"), {**run_cfg.to_flat(), "run_seed": str(seed)})
    trace_paths = [None if d is None else Path(d) / "trace.csv" for _, _, d in runs]
    results = _run_loop(task, theta0, ft.steps, ft.batch_size,
                        [RandomSource(seed).child("batches") for _, seed, _ in runs], trace_paths,
                        pen, ft.optimizer_kind, ft.optimizer, ft.weight_decay, ft.schedule,
                        [run_cfg.shifting for run_cfg, _, _ in runs],
                        [run_cfg.penalty.gamma for run_cfg, _, _ in runs])
    with contextlib.ExitStack() as writing:  # every finished run's summary, even if one fails
        for i, ((run_cfg, seed, run_dir), result) in enumerate(zip(runs, results)):
            if isinstance(result, NumericError):
                continue
            trace, theta = result
            summary = summarize(trace, task, theta, theta_star, seed, run_cfg.config_hash(),
                                ft.loss_threshold)
            if run_dir is not None:
                writing.callback(_write_json, Path(run_dir, "summary.json"), summary.to_dict())
            results[i] = (trace, summary)
    return results


def finetune(cfg: ExperimentConfig, theta_star: np.ndarray, seed: int,
             run_dir: str | os.PathLike | None = None):
    """Fine-tune on the target task under the configured optimizer.

    Returns (trace, summary); _finetune_runs writes config.json, trace.csv
    and summary.json into run_dir when given.  A non-finite value raises
    NumericError and leaves the trace of the steps before it.
    """
    task, pen = build_transfer_pair(cfg).target, build_penalty(cfg, theta_star)
    return _lone(_finetune_runs(task, pen, theta_star, [(cfg, seed, run_dir)]))


def summarize(trace: np.ndarray, task, theta_final, theta_star, seed: int,
              config_hash: str, loss_threshold: Optional[float]) -> RunSummary:
    losses = trace[:, _LOSS]
    steps_to = None
    if loss_threshold is not None:
        hits = np.nonzero(losses < loss_threshold)[0]
        if hits.size:
            steps_to = int(trace[hits[0], _STEP])
    return RunSummary(
        final_target_loss=float(task.loss_and_grad(theta_final, None)[0]),
        best_target_loss=float(losses.min()),
        steps_to_threshold=steps_to,
        final_dist_to_pretrained=l2_distance(theta_final, theta_star),
        seed=seed,
        config_hash=config_hash,
    )


SUMMARY_FIELDS = ("k", "t0", "gamma", "seed", "status", "final_target_loss",
                  "best_target_loss", "steps_to_threshold",
                  "final_dist_to_pretrained", "config_hash")


def _run_id(k: float, t0: int, gamma: float, seed: int) -> str:
    return f"k{k:g}-t{t0}-g{gamma:g}-s{seed}"


def _grid_runs(cfg: ExperimentConfig, grid: dict) -> dict:
    """run id -> ({k, t0, gamma, seed}, run config) per grid point; a value the
    config refuses, two points with one run id, or several gammas for a
    penalty kind that ignores gamma is a ConfigError."""
    ks = grid.get("k") or (cfg.shifting.k,)
    t0s = grid.get("t0") or (cfg.shifting.t0,)
    gammas = grid.get("gamma") or (cfg.penalty.gamma,)
    seeds = grid.get("seeds") or cfg.seeds
    if len(gammas) > 1 and cfg.penalty.kind != "isotropic":
        raise ConfigError(f"a gamma grid needs penalty.kind=isotropic, not {cfg.penalty.kind}")
    runs = {}
    for k, t0, gamma in itertools.product(ks, t0s, gammas):
        run_cfg = cfg.with_values({"shifting.k": k, "shifting.t0": t0, "penalty.gamma": gamma})
        for seed in seeds:
            run_id = _run_id(k, t0, gamma, seed)
            if run_id in runs:
                raise ConfigError(f"two grid points share the run directory {run_id}")
            runs[run_id] = ({"k": k, "t0": t0, "gamma": gamma, "seed": seed}, run_cfg)
    return runs


def sweep(cfg: ExperimentConfig, grid: dict):
    """Run the Cartesian product of grid values over (k, t0, gamma, seeds).

    Grid entries left as None fall back to the base config's single value.
    Every grid point is checked before pretraining, which runs only when
    output_dir/theta_star.bin is missing (an unreadable one is a ConfigError).
    The transfer pair and any Fisher diagonal are built once.  The runs then
    advance together, as the rows of one training loop, in chunks of at most
    _SWEEP_CHUNK runs whose traces fit in _TRACE_ROW_BUDGET rows (at least one
    run a chunk); each run's files are the bytes a lone finetune of its config
    and seed writes, in output_dir/runs: config.json as its chunk starts and
    trace.csv as it exits.  A run that fails is recorded as failed:stepN in the
    summary table and skipped; the others go on.  A sweep stopped mid-chunk by
    an exception writes the steps its runs took; a killed one leaves that
    chunk's runs only config.json, and the later chunks no directory.
    best_config.txt names the (k, t0, gamma) of the lowest median
    final_target_loss; a sweep with no ok run removes an earlier one.
    summaries.csv and best_config.txt are each published whole.
    """
    runs = _grid_runs(cfg, grid)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    theta_path = out / "theta_star.bin"
    if theta_path.exists():
        theta_star = _read_theta_star(theta_path)
    else:
        theta_star, _ = pretrain(cfg)
    task, pen = build_transfer_pair(cfg).target, build_penalty(cfg, theta_star)
    points = list(runs.values())
    jobs = [(run_cfg, point["seed"], out / "runs" / run_id)
            for run_id, (point, run_cfg) in runs.items()]
    rows = []
    summaries = []
    chunk = max(1, min(_SWEEP_CHUNK, _TRACE_ROW_BUDGET // cfg.finetune.steps))
    for start in range(0, len(jobs), chunk):
        results = _finetune_runs(task, pen, theta_star, jobs[start:start + chunk])
        for (point, run_cfg), result in zip(points[start:], results):
            if isinstance(result, NumericError):
                rows.append({**point, "status": f"failed:step{result.step}",
                             "config_hash": run_cfg.config_hash()})
                continue
            summaries.append(result[1])
            rows.append({**point, **result[1].to_dict(), "status": "ok"})
    _write_table(out / "summaries.csv", SUMMARY_FIELDS,
                 ([_format_cell(row.get(field)) for field in SUMMARY_FIELDS] for row in rows))
    (out / "best_config.txt").unlink(missing_ok=True)  # a sweep with no ok run leaves none
    # the lowest median, ties to the smallest (k, t0, gamma)
    groups = _group((row for row in rows if row["status"] == "ok"),
                    lambda row: (row["k"], row["t0"], row["gamma"]))
    if groups:
        median, (k, t0, gamma) = min(
            (float(np.median([row["final_target_loss"] for row in group])), key)
            for key, group in groups.items())
        with _published(out / "best_config.txt") as tmp:
            tmp.write_text(f"best configuration by median final_target_loss: k={k:g} t0={t0} "
                           f"gamma={gamma:g} (median={_fmt(median)})\n")
    return summaries


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip
    return str(value)


def _group(items, key) -> dict:
    """key(item) -> the items with that key, in order; keys in order of first appearance."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _write_table(path: Path, header, rows) -> Path:
    """Publish a CSV file of the header row and then rows; returns path."""
    with _published(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# --- reporting ---------------------------------------------------------------

def _discover_runs(run_dir: Path):
    """Completed runs only: a failed run leaves a partial trace but no summary.  Each
    trace is read and checked whole by read_trace, but a run keeps only "curves", an
    owned (n_steps, 2) copy of its target_loss and dist_to_pretrained columns."""
    runs = []
    for config_path in sorted(run_dir.rglob("config.json")):
        trace_path = config_path.parent / "trace.csv"
        summary_path = config_path.parent / "summary.json"
        if not (trace_path.exists() and summary_path.exists()):
            continue
        flat, k = _read_json(config_path, _report_config, _REPORT_KEYS)
        runs.append({"flat": flat, "k": k,
                     "curves": read_trace(trace_path)[:, [_LOSS, _DIST]],
                     "summary": _read_json(summary_path, RunSummary, RunSummary.__annotations__)})
    return runs


def _read_json(path: Path, build, types: dict):
    """build(**the JSON object in path); a damaged or mistyped file is NoDataError naming it."""
    try:
        doc = json.loads(path.read_text())
        wrong = [key for key, kind in types.items() if not isinstance(dict(doc).get(key), kind)]
        if wrong:
            raise TypeError(f"missing or mistyped {', '.join(wrong)}")
        return build(**doc)
    except (ValueError, TypeError) as exc:
        raise NoDataError(f"malformed {path}: {exc}") from None


def _report_config(**flat):
    """A config.json's keys and its shifting.k, parsed by the config file's
    rule: a k that is not a finite number is ConfigError, a ValueError."""
    return flat, _KEYS["shifting.k"].parse("shifting.k", flat["shifting.k"])


def _median_of(runs, name: str) -> str:
    return _fmt(float(np.median([getattr(r["summary"], name) for r in runs])))


def _median_or_none(values):
    med = float(np.median([math.inf if v is None else v for v in values]))
    return None if math.isinf(med) else med


def report(run_dir: str | os.PathLike) -> list:
    """Aggregate completed runs into CSV report files.

    Writes learning_curves.csv (per-k median target loss and distance,
    aligned on step), summary_median.csv (median metrics per configuration),
    and init_comparison.csv when both init modes are present, each published
    whole.  A damaged trace.csv, summary.json or config.json in a completed
    run is NoDataError naming the file.  Only two columns a run stay in
    memory, and the curve rows go out in _BLOCK-row blocks.
    """
    run_dir = Path(run_dir)
    runs = _discover_runs(run_dir)
    if not runs:
        raise NoDataError(f"no completed runs (config, trace and summary) under {run_dir}")
    # (a) per-k learning curves: one median over the stacked runs per k for all
    # steps at once, equal per step to that step's own median (odd or even count)
    by_k = _group(runs, lambda run: run["k"])
    ks = sorted(by_k)
    n_steps = min(len(run["curves"]) for run in runs)
    curves = np.empty((n_steps, 1 + 2 * len(ks)))  # the step, then two columns per k
    curves[:, 0] = np.arange(1, n_steps + 1)
    for j, k in enumerate(ks):  # the stack is a temporary, so the median may reorder it
        curves[:, 1 + 2 * j:3 + 2 * j] = np.median(np.stack(
            [run["curves"][:n_steps] for run in by_k[k]]), axis=0, overwrite_input=True)
    # csv.writer's bytes: int steps, %.17g cells and {k:g} headers hold no
    # comma or quote, so no cell needs quoting
    header = ["step"] + [f"{name}_k={k:g}" for k in ks for name in ("target_loss", "dist")]
    row = b"%d" + b",%.17g" * (curves.shape[1] - 1) + b"\r\n"
    written = [run_dir / "learning_curves.csv"]
    with _published(written[0]) as tmp, open(tmp, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        rest = _write_blocks(fh, row, curves)
        fh.write(row * len(rest) % tuple(rest.ravel().tolist()))

    # (b) median-over-seeds summary per configuration
    rows = []
    for cfg_hash, group in sorted(_group(runs, lambda run: run["summary"].config_hash).items()):
        flat = group[0]["flat"]
        rows.append([
            cfg_hash, flat["finetune.optimizer.kind"], flat["finetune.init"],
            flat["shifting.k"], flat["shifting.t0"], flat["penalty.gamma"], str(len(group)),
            _median_of(group, "final_target_loss"), _median_of(group, "best_target_loss"),
            _format_cell(_median_or_none([r["summary"].steps_to_threshold for r in group])),
            _median_of(group, "final_dist_to_pretrained"),
        ])
    written.append(_write_table(
        run_dir / "summary_median.csv",
        ["config_hash", "optimizer_kind", "init", "k", "t0", "gamma", "n_runs",
         "median_final_target_loss", "median_best_target_loss", "median_steps_to_threshold",
         "median_final_dist_to_pretrained"], rows))

    # (c) init-strategy comparison when both modes are present
    by_init = _group(runs, lambda run: run["flat"]["finetune.init"])
    if {"random", "pretrained"} <= by_init.keys():
        written.append(_write_table(
            run_dir / "init_comparison.csv", ["metric", "init", "median"],
            ([name, init, _median_of(by_init[init], name)]
             for name in ("final_target_loss", "best_target_loss", "final_dist_to_pretrained")
             for init in ("random", "pretrained"))))
    return written
