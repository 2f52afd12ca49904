"""recadamlab benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload mlp-finetune --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own single-threaded process (BLAS and OpenMP
pinned to one thread) as a closed loop with one client: cycles of pretrain
-> fine-tune runs -> report, one after another, until ``--seconds`` have
passed (at least three cycles).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced cycles and prints the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the workloads and the metrics.
"""

import os

# before NumPy loads OpenBLAS: every matrix here is far below its threading size
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("mlp-finetune", "quad-sweep", "fisher-logreg")
MIN_CYCLES = 3

# (layer, metric suffix, scale from seconds, unit) for self time per call
PER_CALL = (
    ("tasks.loss_and_grad", "us_per_call", 1e6, "us"),
    ("tasks.batch_next", "us_per_call", 1e6, "us"),
    ("tasks.gen_transfer_pair", "ms_per_call", 1e3, "ms"),
    ("tasks.per_sample_loglik_grads", "ms_per_call", 1e3, "ms"),
    ("optim.adam_step", "us_per_call", 1e6, "us"),
    ("optim.recadam_step", "us_per_call", 1e6, "us"),
    ("optim.coupled_recadam_step", "us_per_call", 1e6, "us"),
    ("optim.adamw_step", "us_per_call", 1e6, "us"),
    ("optim.schedule_multiplier", "us_per_call", 1e6, "us"),
    ("shifting.lambda_at", "us_per_call", 1e6, "us"),
    ("shifting.composite_loss", "us_per_call", 1e6, "us"),
    ("recall.penalty_loss", "us_per_call", 1e6, "us"),
    ("recall.penalty_grad", "us_per_call", 1e6, "us"),
    ("numkit.l2_distance", "us_per_call", 1e6, "us"),
    ("recall.estimate_diag_fisher", "ms_per_call", 1e3, "ms"),
    ("harness.build_penalty", "ms_per_call", 1e3, "ms"),
    ("harness.summarize", "ms_per_call", 1e3, "ms"),
    ("harness.trace_write", "us_per_row", 1e6, "us"),
    ("harness.report", "self_ms", 1e3, "ms"),
    ("storage.write_vector", "ms_per_call", 1e3, "ms"),
    ("storage.read_vector", "ms_per_call", 1e3, "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> list:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return [f"git sha     {git_sha()}",
            f"python      {platform.python_version()} ({platform.python_implementation()})",
            f"numpy       {numpy.__version__}",
            f"blas        {blas.get('name', '?')} {blas.get('version', '?')}",
            f"nproc       {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})",
            f"blas threads {threads}"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, cycles) -> tuple:
    """Medians in reference seconds; the notes give the wall-time medians."""
    from workloads import REF_PROBE_S
    setups = [c.setup for c in cycles]
    arms = {}
    for c in cycles:
        for arm, lap, steps in c.finetune:
            if steps:
                arms.setdefault(arm, []).append((lap, steps))
    reports = [lap for c in cycles for lap in c.report]
    probes = [p for c in cycles for p in c.probes]

    def wall(laps):
        return statistics.median(lap.wall_s for lap in laps)

    def rate(attr):
        """Steps per second of a cycle in which every arm runs at its median
        time per step; arms differ in speed, so a median over all of them
        would pick whichever arm lands in the middle."""
        per_step = [statistics.median(getattr(lap, attr) / steps for lap, steps in laps)
                    for laps in arms.values()]
        return len(per_step) / sum(per_step) if per_step else 0.0

    runs = sum(len(laps) for laps in arms.values())
    steps = sum(steps for laps in arms.values() for _, steps in laps)
    metrics = {
        "setup_s": metric(statistics.median(lap.ref_s for lap in setups), "s"),
        "finetune_steps_per_s": metric(rate("ref_s"), "steps/s"),
        "report_s": metric(statistics.median(lap.ref_s for lap in reports), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    batch = f"batch {wl.batch}" if wl.batch else "full batch"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups (config load, transfer pair, "
                   f"pretrain); wall {wall(setups):.4g} s",
        "finetune_steps_per_s": f"per-arm medians of {runs} laps ({', '.join(arms)}), "
                                f"{steps} steps, d={wl.dim}, {batch}; "
                                f"wall {rate('wall_s'):.5g} steps/s",
        "report_s": f"median of {len(reports)} report calls; wall {wall(reports):.4g} s",
        "peak_rss_mib": "peak resident memory of this process",
    }
    notes["speed_probe"] = (f"median {statistics.median(probes) * 1e3:.3f} ms of {len(probes)} "
                            f"probes; timings above are in reference seconds "
                            f"({REF_PROBE_S * 1e3:g} ms a probe)")
    return metrics, notes


def per_layer(tracer, cycles, untraced) -> tuple:
    total_self = sum(tracer.corrected_self(name) for name in tracer.calls)
    metrics, notes = {}, {}

    def add(name, value, unit, note=""):
        metrics[name] = metric(value, unit)
        notes[name] = note

    def per(layer, divisor, scale=1.0):
        return tracer.corrected_self(layer) / divisor * scale if divisor else 0.0

    for layer, suffix, scale, unit in PER_CALL:
        calls = tracer.calls[layer]
        add(f"{layer}.{suffix}", per(layer, calls, scale), unit,
            f"{calls} calls, {tracer.corrected_self(layer):.4f} s self")
        add(f"{layer}.calls", calls, "count")
    lag = "tasks.loss_and_grad"
    add(f"{lag}.share", tracer.corrected_self(lag) / total_self if total_self else 0.0,
        "ratio", "of all self time")
    for layer in ("tasks.gen_transfer_pair", "recall.estimate_diag_fisher"):
        calls = tracer.calls[layer]
        add(f"{layer}.distinct_ratio", len(tracer.keys[layer]) / calls if calls else 0.0,
            "ratio", f"{len(tracer.keys[layer])} distinct of {calls} calls")
    steps = sum(c.finetune_steps + c.pretrain_steps for c in cycles)
    loop = tracer.corrected_self("harness.finetune") + tracer.corrected_self("harness.pretrain")
    add("harness.loop.self_us_per_step", loop / steps * 1e6 if steps else 0.0, "us",
        "finetune + pretrain self time per step")
    add("harness.loop.steps", steps, "count")
    rows = tracer.calls["harness.trace_write"]
    add("harness.trace_write.bytes_per_row",
        sum(c.trace_bytes for c in cycles) / rows if rows else 0.0, "B/row",
        "trace.csv sizes over rows written")
    read_rows = tracer.units["harness.read_trace"]
    add("harness.read_trace.us_per_row", per("harness.read_trace", read_rows, 1e6), "us",
        f"{read_rows} rows")
    add("harness.read_trace.calls", tracer.calls["harness.read_trace"], "count")
    runs = sum(c.runs for c in cycles) if tracer.calls["harness.sweep"] else 0
    add("harness.sweep.self_ms_per_run", per("harness.sweep", runs, 1e3), "ms", f"{runs} runs")
    add("harness.sweep.calls", tracer.calls["harness.sweep"], "count")
    pre_calls = tracer.calls["harness.pretrain"]
    add("harness.pretrain.s", tracer.total["harness.pretrain"] / pre_calls if pre_calls else 0.0,
        "s", "inclusive time per call")
    add("harness.pretrain.calls", pre_calls, "count")

    traced_s = statistics.median(c.timed_s for c in cycles)
    untraced_s = statistics.median(c.timed_s for c in untraced)
    span_cost = tracer.span_in + tracer.span_out
    add("tracing.span_cost_us", span_cost * 1e6, "us", "one empty span, measured in-process")
    add("tracing.spans", tracer.span_count(), "count")
    add("tracing.overhead_share", traced_s / untraced_s - 1.0, "ratio",
        f"median traced cycle {traced_s:.3f} s vs untraced {untraced_s:.3f} s; "
        f"span count x span cost predicts "
        f"{tracer.span_count() * span_cost / tracer.installed_time:.3f}")
    accounted = tracer.root_time / tracer.installed_time
    add("tracing.accounted_share", accounted, "ratio",
        "traced wall time inside top-level spans "
        + ("(check >= 0.95: ok)" if accounted >= 0.95 else "(check >= 0.95: LOW)"))
    return metrics, notes


def run_workload(args) -> int:
    if not (SRC / "recadamlab").is_dir():
        print(f"error: no recadamlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS

    reference = None
    if args.seed == 0:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    cycles, traced = [], []
    try:
        wl = WORKLOADS[args.workload](args.seed, work, reference)
        if tracer is not None:
            tracer.calibrate()
        started = time.perf_counter()
        while len(cycles) < MIN_CYCLES or time.perf_counter() - started < args.seconds:
            is_traced = tracer is not None and len(cycles) % 2 == 1
            cycles.append(wl.cycle(len(cycles), tracer.installed if is_traced
                                   else contextlib.nullcontext, probe=tracer is None))
            traced.append(is_traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if tracer is None:
        metrics, notes = end_to_end(wl, cycles)
    else:
        # the first cycle also pays one-off warm-up costs: leave it out of
        # the traced-versus-untraced comparison
        metrics, notes = per_layer(tracer, [c for c, t in zip(cycles, traced) if t],
                                   [c for c, t in zip(cycles[1:], traced[1:]) if not t])
    attempted = sum(c.runs for c in cycles)
    failed = sum(c.failed for c in cycles)
    problems = [p for c in cycles for p in c.problems]

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(cycles)} cycles, "
          f"closed loop with 1 client")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:8s} {notes.get(name, '')}")
    for name in notes.keys() - metrics.keys():
        print(f"  {name:40s} {notes[name]}")
    print(f"  {'failed_run_ratio':40s} {failed / attempted:14.6g} {'ratio':8s} "
          f"{failed} failed of {attempted} runs")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(f"  output checks: {'ok' if not problems else 'FAILED'} "
          f"(finite summaries{', reference digest' if reference else ''}"
          f"{', sweep rows ok, trace replay' if wl.name == 'quad-sweep' else ''})")
    for line in environment():
        print(f"  {line}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
