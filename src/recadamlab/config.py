"""Flat key=value experiment configuration.

One key per line, sections dotted (``finetune.optimizer.kind=recadam``).
Blank lines and ``#`` comments are allowed; unknown keys are hard errors.
Every key's name, type, default, bounds and attribute path in
``ExperimentConfig`` is one row of ``_KEYS``; parsing, defaults, range
checks, the nested sections, ``to_flat`` and ``config_hash`` derive from it.
Sections are plain namespaces, except those built by their own checking
library constructors (``AdamConfig``, ``ScheduleMultiplier``, ``AnnealSchedule``).
A derived config, such as a sweep grid point, comes from ``cfg.with_values``.
"""

import hashlib
import math
import os
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import ConfigError
from .optim import SCHEDULE_KINDS, STEPPER_KINDS, AdamConfig, ScheduleMultiplier
from .recall import PENALTY_KINDS
from .shifting import AnnealSchedule
from .tasks import _KEYWORDS, DATASET_KINDS, TASK_KINDS, _task_spec

INIT_KINDS = ("random", "pretrained")


class ExperimentConfig(SimpleNamespace):
    """Sections transfer, pretrain, finetune, penalty and shifting, plus seeds
    and output_dir, nested from the _KEYS attribute paths."""

    def _values(self) -> dict:
        """Flat key -> value of every set key the task kind uses (mlp-1h has
        dim_in/hidden/classes, the other kinds have dim)."""
        values = {key: v for key, v in zip(_KEYS, _GET_ALL(self)) if v is not None}
        for key in ("transfer.dim",) if self.transfer.kind == "mlp-1h" else _MLP_DIMS:
            del values[key]
        return values

    def to_flat(self) -> dict:
        """Canonical flat key -> string mapping (round-trips via parse);
        unset optional keys and unused dimension keys are left out."""
        return {key: _flat_text(v) for key, v in self._values().items()}

    def config_hash(self) -> str:
        """Hash of the experimental configuration (seeds/output_dir excluded)."""
        flat = self.to_flat()
        del flat["seeds"], flat["output_dir"]
        return hashlib.sha256(_lines(flat).encode()).hexdigest()[:12]

    def with_values(self, values: dict) -> "ExperimentConfig":
        """This config with some flat keys set, e.g. {"penalty.gamma": 2.0};
        each value is checked as its config-file line would be.  An unknown
        key passes through unparsed for config_from_values to refuse."""
        return config_from_values({**self._values(), **{
            key: _KEYS[key].parse(key, _flat_text(v)) if key in _KEYS else v
            for key, v in values.items()}})


def _flat_text(value) -> str:
    """A value as config-file text, which its key's parser reads back."""
    return ",".join(map(str, value)) if type(value) is tuple else str(value)


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


_int, _float = _number(int), _number(float)
_REQUIRED = object()
_POSITIVE, _NON_NEGATIVE = (1, math.inf), (0, math.inf)


class _Key(NamedTuple):
    parse: Callable
    default: object
    attr: str = ""  # attribute path in ExperimentConfig when it differs from the key
    bounds: tuple = ()  # (low, high) a value must lie in; high may be inf


_KEYS = {
    "transfer.kind": _Key(_choice(TASK_KINDS), _REQUIRED),
    "transfer.dim": _Key(_int, 0),
    "transfer.rho": _Key(_float, _REQUIRED, bounds=(0, 1)),
    "transfer.seed": _Key(_int, 0),
    "transfer.n_samples": _Key(_int, 512, bounds=_POSITIVE),
    "transfer.dim_in": _Key(_int, 0),
    "transfer.hidden": _Key(_int, 0),
    "transfer.classes": _Key(_int, 0),
    "transfer.noise_std": _Key(_float, None),
    "transfer.center_scale": _Key(_float, 1.0),
    "transfer.label_noise": _Key(_float, 0.0, bounds=(0, 1)),
    "pretrain.steps": _Key(_int, _REQUIRED, bounds=_POSITIVE),
    "pretrain.batch_size": _Key(_int, 32, bounds=_POSITIVE),
    "pretrain.optimizer.alpha": _Key(_float, 0.01),
    "pretrain.optimizer.beta1": _Key(_float, 0.9),
    "pretrain.optimizer.beta2": _Key(_float, 0.999),
    "pretrain.optimizer.eps": _Key(_float, 1e-8),
    "finetune.steps": _Key(_int, _REQUIRED, bounds=_POSITIVE),
    "finetune.batch_size": _Key(_int, 32, bounds=_POSITIVE),
    "finetune.optimizer.kind": _Key(_choice(STEPPER_KINDS), "adam", "finetune.optimizer_kind"),
    "finetune.optimizer.alpha": _Key(_float, 0.001),
    "finetune.optimizer.beta1": _Key(_float, 0.9),
    "finetune.optimizer.beta2": _Key(_float, 0.999),
    "finetune.optimizer.eps": _Key(_float, 1e-8),
    "finetune.optimizer.weight_decay": _Key(_float, 0.0, "finetune.weight_decay", _NON_NEGATIVE),
    "finetune.init": _Key(_choice(INIT_KINDS), "pretrained"),
    "finetune.schedule.kind": _Key(_choice(SCHEDULE_KINDS), "constant"),
    "finetune.schedule.warmup_steps": _Key(_int, 0),
    "finetune.schedule.total_steps": _Key(_int, 0),
    "finetune.loss_threshold": _Key(_float, None),
    "penalty.kind": _Key(_choice(PENALTY_KINDS), "isotropic"),
    "penalty.gamma": _Key(_float, 5000.0, bounds=_NON_NEGATIVE),
    "penalty.fisher_samples": _Key(_int, 1000, bounds=_POSITIVE),
    "shifting.k": _Key(_float, 0.1),
    "shifting.t0": _Key(_int, 250),
    "seeds": _Key(_list_of(_int), (0,)),
    "output_dir": _Key(lambda key, raw: raw, _REQUIRED),
}
_ATTRS = {key: row.attr or key for key, row in _KEYS.items()}
_GET_ALL = attrgetter(*_ATTRS.values())  # one call fetches every key's value, in table order
_MLP_DIMS = ("transfer.dim_in", "transfer.hidden", "transfer.classes")


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


# sections a library type describes, built through its constructor, which checks them
_SECTIONS = {"": ExperimentConfig, "pretrain.optimizer": AdamConfig,
             "finetune.optimizer": AdamConfig, "finetune.schedule": ScheduleMultiplier,
             "shifting": AnnealSchedule}


def _build(values: dict, prefix: str = ""):
    """Nest attribute-path -> value entries into the section at prefix: its
    _SECTIONS type, or else a plain namespace."""
    groups = {}  # name -> {rest of path: value}; "" holds a field's own value
    for path, value in values.items():
        name, _, rest = path.partition(".")
        groups.setdefault(name, {})[rest] = value
    fields = {name: group[""] if "" in group else _build(group, prefix + name + ".")
              for name, group in groups.items()}
    section = prefix.rstrip(".")
    try:
        return _SECTIONS.get(section, SimpleNamespace)(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_values(values: dict) -> ExperimentConfig:
    """The config of typed flat values, a missing key at its default; an
    unknown or missing required key or a refused value is a ConfigError."""
    unknown = values.keys() - _KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown key {min(unknown)!r}")
    full = {}
    for key, row in _KEYS.items():
        if key in values:
            full[key] = values[key]
        elif row.default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            full[key] = row.default
    for key, row in _KEYS.items():
        if row.bounds and not row.bounds[0] <= full[key] <= row.bounds[1]:
            low, high = row.bounds
            raise ConfigError(f"{key} must be >= {low}" if high == math.inf
                              else f"{key} must lie in [{low}, {high}]")
    if full["penalty.kind"] == "diagonal-fisher" and full["transfer.kind"] not in DATASET_KINDS:
        raise ConfigError(f"penalty.kind=diagonal-fisher needs a task with a dataset to "
                          f"estimate the Fisher from, not transfer.kind={full['transfer.kind']}")
    sizes = {key: full["transfer." + key] for key in _KEYWORDS}
    try:  # the task generator's own size checks; an mlp-1h derives its dim
        spec = _task_spec(full["transfer.kind"], full["transfer.dim"], sizes)
    except ValueError as exc:
        raise ConfigError(f"transfer: {exc}") from None
    full["transfer.dim"] = spec["dim"]
    return _build({_ATTRS[key]: value for key, value in full.items()})


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    return config_from_values(parse_flat_text(_read_file(path, "config")))


_GRID_KEYS = {"k": _list_of(_float), "t0": _list_of(_int),
              "gamma": _list_of(_float), "seeds": _list_of(_int)}


def load_grid(path: str | os.PathLike) -> dict:
    """Sweep grid file: comma-separated lists for k, t0, gamma, seeds."""
    pairs = _read_pairs(_read_file(path, "grid"), _GRID_KEYS, "grid line")
    return {key: parse(f"grid {key}", pairs[key]) if key in pairs else None
            for key, parse in _GRID_KEYS.items()}
