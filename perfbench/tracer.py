"""Span tracer for the benchmark's traced run.

``Tracer.installed()`` replaces the library's public functions, as the
harness and the CLI see them, with wrappers that record a span per call;
leaving the context restores the originals, so untraced cycles run the
unmodified code.  Spans are aggregated in memory as they close: per layer,
the call count, inclusive time, self time (inclusive time minus the time
of child spans) and the number of child spans.  The cost of one span is
measured in the same process (``calibrate``) and subtracted from self
times by ``corrected_self``.
"""

import contextlib
import hashlib
import statistics
import time
from collections import defaultdict

from recadamlab import cli, harness, optim, tasks

clock = time.perf_counter


def _pair_key(kind, dim, rho, rng, **kwargs):
    return (kind, dim, rho, rng.seed, tuple(sorted(kwargs.items())))


def _fisher_key(task, theta_star, n_samples, rng):
    spec = tuple(sorted(task.spec.items())) if task.spec else id(task)
    return (spec, hashlib.sha1(theta_star.tobytes()).hexdigest(), n_samples, rng.seed)


# (layer, module whose attribute is replaced, attribute, rows of work per call)
_FUNCTIONS = (
    ("tasks.gen_transfer_pair", harness, "gen_transfer_pair", None),
    ("recall.estimate_diag_fisher", harness, "estimate_diag_fisher", None),
    ("recall.penalty_loss", harness, "penalty_loss", None),
    ("recall.penalty_grad", harness, "penalty_grad", None),
    ("numkit.l2_distance", harness, "l2_distance", None),
    ("shifting.lambda_at", harness, "lambda_at", None),
    ("shifting.composite_loss", harness, "composite_loss", None),
    ("optim.schedule_multiplier", harness, "schedule_multiplier", None),
    ("optim.adam_step", harness, "adam_step", None),
    ("optim.adam_step", optim, "adam_step", None),  # called by coupled_recadam_step
    ("optim.adamw_step", harness, "adamw_step", None),
    ("optim.recadam_step", harness, "recadam_step", None),
    ("optim.coupled_recadam_step", harness, "coupled_recadam_step", None),
    ("storage.read_vector", harness, "read_vector", None),
    ("storage.read_vector", cli, "read_vector", None),
    ("storage.write_vector", harness, "write_vector", None),
    ("harness.read_trace", harness, "read_trace", len),
    ("harness.build_penalty", harness, "build_penalty", None),
    ("harness.summarize", harness, "summarize", None),
    ("harness.pretrain", harness, "pretrain", None),
    ("harness.pretrain", cli, "pretrain", None),
    ("harness.finetune", harness, "finetune", None),
    ("harness.finetune", cli, "finetune", None),
    ("harness.sweep", cli, "sweep", None),
    ("harness.report", harness, "report", None),
    ("harness.report", cli, "report", None),
)
_KEYS = {"tasks.gen_transfer_pair": _pair_key, "recall.estimate_diag_fisher": _fisher_key}
_TASK_CLASSES = (tasks.QuadraticTask, tasks.LinearRegressionTask,
                 tasks.LogisticRegressionTask, tasks.MlpTask)


class _TimedBatches:
    """Iterator over a batch stream whose ``next`` is a span."""

    def __init__(self, stream, timed_next):
        self._stream = stream
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next(self._stream)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.children = defaultdict(int)
        self.units = defaultdict(int)
        self.keys = defaultdict(set)
        self.root_time = 0.0      # time inside top-level spans
        self.installed_time = 0.0  # wall time spent inside installed()
        self.span_in = 0.0        # per-span overhead inside the span
        self.span_out = 0.0       # per-span overhead charged to the parent
        self._stack = []          # [child time, child count] of each open span

    def wrap(self, name, fn, units=None, key=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            stack.append([0.0, 0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_time, child_count = stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child_time
                self.children[name] += child_count
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                else:
                    self.root_time += elapsed
            if units is not None:
                self.units[name] += units(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for name, module, attr, units in _FUNCTIONS:
            patch(module, attr, self.wrap(name, getattr(module, attr), units, _KEYS.get(name)))
        for cls in _TASK_CLASSES:
            for attr in ("loss_and_grad", "per_sample_loglik_grads"):
                if attr in cls.__dict__:
                    patch(cls, attr, self.wrap(f"tasks.{attr}", cls.__dict__[attr]))
        patch(harness.TraceWriter, "write_row",
              self.wrap("harness.trace_write", harness.TraceWriter.write_row))
        stream = harness.batch_stream
        timed_next = self.wrap("tasks.batch_next", next)
        patch(harness, "batch_stream",
              lambda *a, **k: _TimedBatches(stream(*a, **k), timed_next))
        started = clock()
        try:
            yield self
        finally:
            self.installed_time += clock() - started
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calibrate(self, n: int = 20000, rounds: int = 5) -> None:
        """Measure the cost of one empty span: the part inside the span and
        the part the parent's self time absorbs."""
        def noop():
            return None

        inside, outside = [], []
        for _ in range(rounds):
            probe = Tracer()
            span = probe.wrap("noop", noop)
            started = clock()
            for _ in range(n):
                noop()
            bare = (clock() - started) / n
            started = clock()
            for _ in range(n):
                span()
            traced = (clock() - started) / n
            recorded = probe.total["noop"] / n
            inside.append(max(0.0, recorded - bare))
            outside.append(max(0.0, traced - bare - inside[-1]))
        self.span_in = statistics.median(inside)
        self.span_out = statistics.median(outside)

    def corrected_self(self, name: str) -> float:
        """Self time with the measured span overhead subtracted."""
        return max(0.0, self.self_time[name] - self.calls[name] * self.span_in
                   - self.children[name] * self.span_out)

    def span_count(self) -> int:
        return sum(self.calls.values())
