"""Flat key=value experiment configuration.

One key per line, sections dotted (``finetune.optimizer.kind=recadam``).
Blank lines and ``#`` comments are allowed; unknown keys are hard errors.
Every key's name, type, default and place in ``ExperimentConfig`` is one
row of ``_KEYS``; parsing, defaults, ``to_flat`` and ``config_hash`` are
all derived from that table.
"""

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError
from .optim import SCHEDULE_KINDS, STEPPER_KINDS, AdamConfig, ScheduleMultiplier
from .recall import PENALTY_KINDS
from .shifting import AnnealSchedule
from .tasks import TASK_KINDS, _task_spec

INIT_KINDS = ("random", "pretrained")


@dataclass
class TransferSpec:
    kind: str
    rho: float
    seed: int
    dim: int
    n_samples: int
    dim_in: int
    hidden: int
    classes: int
    noise_std: Optional[float]
    center_scale: float
    label_noise: float


@dataclass
class PretrainSpec:
    steps: int
    batch_size: int
    optimizer: AdamConfig


@dataclass
class FinetuneSpec:
    steps: int
    batch_size: int
    optimizer_kind: str
    optimizer: AdamConfig
    weight_decay: float
    init: str
    schedule: ScheduleMultiplier
    loss_threshold: Optional[float]


@dataclass
class PenaltySpec:
    kind: str
    gamma: float
    fisher_samples: int


@dataclass
class ExperimentConfig:
    transfer: TransferSpec
    pretrain: PretrainSpec
    finetune: FinetuneSpec
    penalty: PenaltySpec
    shifting: AnnealSchedule
    seeds: tuple
    output_dir: str

    def to_flat(self) -> dict:
        """Canonical flat key -> string mapping (round-trips via parse).

        Unset optional keys are left out, and so are the dimension keys the
        task kind does not use: mlp-1h has dim_in/hidden/classes, the other
        kinds have dim.
        """
        flat = {key: ",".join(map(str, v)) if type(v) is tuple else str(v)
                for key, v in zip(_KEYS, _GET_ALL(self)) if v is not None}
        for key in ("transfer.dim",) if self.transfer.kind == "mlp-1h" else _MLP_DIMS:
            del flat[key]
        return flat

    def config_hash(self) -> str:
        """Hash of the experimental configuration (seeds/output_dir excluded)."""
        flat = self.to_flat()
        flat.pop("seeds", None)
        flat.pop("output_dir", None)
        return hashlib.sha256(_lines(flat).encode()).hexdigest()[:12]


def _number(kind: type) -> Callable:
    def parse(key: str, raw: str):
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{key}: {raw!r} is not a finite number")
        return value
    return parse


def _choice(choices) -> Callable:
    def parse(key: str, raw: str) -> str:
        if raw not in choices:
            raise ConfigError(f"{key}: {raw!r} not in {sorted(choices)}")
        return raw
    return parse


def _list_of(item: Callable) -> Callable:
    def parse(key: str, raw: str) -> tuple:
        values = tuple(item(key, part) for part in raw.split(",") if part.strip())
        if not values:
            raise ConfigError(f"{key}: empty list")
        return values
    return parse


def _text(key: str, raw: str) -> str:
    return raw


_int, _float = _number(int), _number(float)
_REQUIRED = object()


class _Key(NamedTuple):
    parse: Callable
    default: object
    attr: str = ""  # attribute path in ExperimentConfig when it differs from the key


_KEYS = {
    "transfer.kind": _Key(_choice(TASK_KINDS), _REQUIRED),
    "transfer.dim": _Key(_int, 0),
    "transfer.rho": _Key(_float, _REQUIRED),
    "transfer.seed": _Key(_int, 0),
    "transfer.n_samples": _Key(_int, 512),
    "transfer.dim_in": _Key(_int, 0),
    "transfer.hidden": _Key(_int, 0),
    "transfer.classes": _Key(_int, 0),
    "transfer.noise_std": _Key(_float, None),
    "transfer.center_scale": _Key(_float, 1.0),
    "transfer.label_noise": _Key(_float, 0.0),
    "pretrain.steps": _Key(_int, _REQUIRED),
    "pretrain.batch_size": _Key(_int, 32),
    "pretrain.optimizer.alpha": _Key(_float, 0.01),
    "pretrain.optimizer.beta1": _Key(_float, 0.9),
    "pretrain.optimizer.beta2": _Key(_float, 0.999),
    "pretrain.optimizer.eps": _Key(_float, 1e-8),
    "finetune.steps": _Key(_int, _REQUIRED),
    "finetune.batch_size": _Key(_int, 32),
    "finetune.optimizer.kind": _Key(_choice(STEPPER_KINDS), "adam", "finetune.optimizer_kind"),
    "finetune.optimizer.alpha": _Key(_float, 0.001),
    "finetune.optimizer.beta1": _Key(_float, 0.9),
    "finetune.optimizer.beta2": _Key(_float, 0.999),
    "finetune.optimizer.eps": _Key(_float, 1e-8),
    "finetune.optimizer.weight_decay": _Key(_float, 0.0, "finetune.weight_decay"),
    "finetune.init": _Key(_choice(INIT_KINDS), "pretrained"),
    "finetune.schedule.kind": _Key(_choice(SCHEDULE_KINDS), "constant"),
    "finetune.schedule.warmup_steps": _Key(_int, 0),
    "finetune.schedule.total_steps": _Key(_int, 0),
    "finetune.loss_threshold": _Key(_float, None),
    "penalty.kind": _Key(_choice(PENALTY_KINDS), "isotropic"),
    "penalty.gamma": _Key(_float, 5000.0),
    "penalty.fisher_samples": _Key(_int, 1000),
    "shifting.k": _Key(_float, 0.1),
    "shifting.t0": _Key(_int, 250),
    "seeds": _Key(_list_of(_int), (0,)),
    "output_dir": _Key(_text, _REQUIRED),
}
_ATTRS = {key: row.attr or key for key, row in _KEYS.items()}
_GET_ALL = attrgetter(*_ATTRS.values())  # one call fetches every key's value, in table order
_MLP_DIMS = ("transfer.dim_in", "transfer.hidden", "transfer.classes")
_TASK_SIZES = _MLP_DIMS + ("transfer.n_samples", "transfer.noise_std", "transfer.center_scale",
                           "transfer.label_noise")
_MINIMUMS = (("pretrain.steps", 1), ("finetune.steps", 1), ("pretrain.batch_size", 1),
             ("finetune.batch_size", 1), ("penalty.gamma", 0),
             ("finetune.optimizer.weight_decay", 0), ("transfer.n_samples", 1),
             ("penalty.fisher_samples", 1))


def _lines(flat: dict) -> str:
    return "\n".join(f"{k}={v}" for k, v in sorted(flat.items()))


def _read_file(path: str | os.PathLike, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def _read_pairs(text: str, known, where: str) -> dict:
    """Raw key -> value strings of key=value lines; unknown or repeated keys
    are errors, blank lines and # comments are skipped."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where} {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{where} {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{where} {lineno}: duplicate key {key!r}")
        pairs[key] = raw
    return pairs


def parse_flat_text(text: str) -> dict:
    """Parse key=value lines into a typed dict, rejecting unknown keys."""
    return {key: _KEYS[key].parse(key, raw)
            for key, raw in _read_pairs(text, _KEYS, "line").items()}


def _build(cls, values: dict, prefix: str = ""):
    """Instantiate dataclass cls from attribute-path -> value entries,
    recursing into fields that are themselves dataclasses."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        path = prefix + f.name
        if dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, values, path + ".")
        else:
            kwargs[f.name] = values[path]
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix.rstrip('.')}: {exc}") from exc


def config_from_values(values: dict) -> ExperimentConfig:
    full = {}
    for key, row in _KEYS.items():
        if key in values:
            full[key] = values[key]
        elif row.default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            full[key] = row.default
    for key in ("transfer.rho", "transfer.label_noise"):
        if not (0.0 <= full[key] <= 1.0):
            raise ConfigError(f"{key} must lie in [0, 1]")
    for key, low in _MINIMUMS:
        if full[key] < low:
            raise ConfigError(f"{key} must be >= {low}")
    sizes = {key.split(".", 1)[1]: full[key] for key in _TASK_SIZES}
    try:  # the task generator's own size checks; an mlp-1h derives its dim
        spec = _task_spec(full["transfer.kind"], full["transfer.dim"], full["transfer.seed"],
                          sizes)
    except ValueError as exc:
        raise ConfigError(f"transfer: {exc}") from None
    full["transfer.dim"] = spec["dim"]
    return _build(ExperimentConfig, {_ATTRS[key]: value for key, value in full.items()})


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    return config_from_values(parse_flat_text(_read_file(path, "config")))


def format_config(cfg: ExperimentConfig) -> str:
    return _lines(cfg.to_flat()) + "\n"


_GRID_KEYS = {"k": _list_of(_float), "t0": _list_of(_int),
              "gamma": _list_of(_float), "seeds": _list_of(_int)}


def load_grid(path: str | os.PathLike) -> dict:
    """Sweep grid file: comma-separated lists for k, t0, gamma, seeds."""
    pairs = _read_pairs(_read_file(path, "grid"), _GRID_KEYS, "grid line")
    return {key: parse(f"grid {key}", pairs[key]) if key in pairs else None
            for key, parse in _GRID_KEYS.items()}
