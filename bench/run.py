"""
The linfty benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; linfty is imported from ``src/``.
Operations run one after another in this process, each starting when the
previous one has finished; no threads are used.  Every output is checked.

With ``--trace 0`` the run times each part of set-up several times (the
sum of the parts' medians is ``setup_s``), then repeats the workload's fixed batch of operations (one
pass) for about ``--seconds`` seconds and reports the end-to-end metrics.
With ``--trace 1`` it times one untraced pass, then sets up and runs one
pass with the wrappers of tracing.py installed, removes them, and reports
the per-layer metrics.  Spans are written to
``.bench_out/trace-<workload>-<seed>.json``.

Times are normalized to a reference machine speed.  The speed of a shared
machine drifts by tens of percent within seconds, so a short fixed
calibration kernel runs before every operation and before every set-up, and
each raw time is scaled by CAL_REFERENCE_S over the median of the nearby
calibration samples.  A time therefore reads as seconds on a machine where
the kernel takes CAL_REFERENCE_S; a slower or faster program moves it as
much as it moves the raw time, which the details line also gives.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (machine, thread cap, sample counts, raw times, failures, trace
checks).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_BUDGET_S = 1.0   # each set-up part repeats until its samples add up to this
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 40
TAIL_PERCENTILE = 75  # fixed, so it cannot jump with the sample count
TAIL_BEYOND = 10      # samples required beyond the tail percentile
PASS_OVERRUN = 0.5    # start another pass while elapsed + this share of a pass < seconds
CAL_ITERATIONS = 40_000
CAL_REFERENCE_S = 0.01  # the calibration kernel's time at the reference speed
CAL_WINDOW = 3           # calibration samples on each side used to scale a time

# The layers one of which should have the largest self time in each
# workload's traced pass.  Time in counted perm and gfa calls is charged to
# those layers, not to the span that made the calls, so "structures" alone
# means its own key enumeration and not the evaluation it drives.
PREDICTED_DOMINANT = {
    "residual-dense": ("structures", "gfa", "perm"),
    "verify-valid": ("structures",),
    # predicted "restrict"; the gfa.eval calls of its pullback outweigh its
    # own loops (see README.md)
    "restrict-chain": ("restrict", "gfa"),
    "mutation-sweep": ("oracle",),
}

UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibration_kernel() -> int:
    """Fixed pure-Python work of the kind linfty's inner loops do: tuple
    keys, dict lookups and integer xor.  The garbage collector is paused
    while it runs: the kernel's tuples would trigger collections that walk
    the whole live heap, so its time would depend on how much memory linfty
    holds.  Its tuples are all freed by the end, so pausing leaves no
    collection owed to the work that follows."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict = {}
        acc = 0
        for i in range(CAL_ITERATIONS):
            key = (i & 63, (i >> 6) & 63)
            acc ^= table.get(key, i)
            table[key] = acc
        return acc
    finally:
        if was_enabled:
            gc.enable()


class Timeline:
    """Calibration samples interleaved with the timed work of one run."""

    def __init__(self):
        self.cals: list = []

    def calibrate(self) -> int:
        """Time the kernel once; returns the sample's index."""
        start = time.perf_counter()
        calibration_kernel()
        self.cals.append(time.perf_counter() - start)
        return len(self.cals) - 1

    def scale(self, index: int) -> float:
        """Factor from raw seconds to reference seconds around a sample."""
        window = self.cals[max(0, index - CAL_WINDOW):index + CAL_WINDOW + 1]
        return CAL_REFERENCE_S / statistics.median(window)


def tail(per_op: dict) -> tuple:
    """(value, rank, samples beyond) of the TAIL_PERCENTILE nearest-rank
    percentile over the operations of a pass, each taken at its median over
    the run's passes.  Pooling the raw samples instead would put the rank on
    the boundary between two operations (for example 18 of 24) and report
    the noisiest sample of one of them."""
    medians = sorted(statistics.median(v) for v in per_op.values())
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(medians))
    beyond = sum(len(v) for v in per_op.values() if statistics.median(v) > medians[rank - 1])
    return medians[rank - 1], rank, beyond


def run_pass(workload, timeline: Timeline, samples: dict, failures: list) -> None:
    """One pass over the workload's operations, each preceded by a
    calibration sample.  Appends (raw seconds, calibration index) per label;
    checks run outside the timed region."""
    for label, call in workload.ops():
        cal = timeline.calibrate()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            samples.setdefault(label, []).append((time.perf_counter() - start, cal))
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        samples.setdefault(label, []).append((time.perf_counter() - start, cal))
        try:
            problem = workload.check(label, result)
        except Exception as exc:
            problem = f"{label}: check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)


def fresh_dir(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=parent))


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time to import linfty once more in this process: its modules are
    taken out of sys.modules, imported afresh from their cached bytecode,
    and the originals put back.  The modules linfty depends on stay loaded,
    so this is the cost of linfty's own module code.  Imports timed in
    fresh interpreters spread 35 % between quartiles, against 10 % here:
    the calibration kernel of this process does not track another
    process's speed."""
    def loaded() -> list:
        return [n for n in sys.modules if n == "linfty" or n.startswith("linfty.")]

    saved = {n: sys.modules.pop(n) for n in loaded()}
    try:
        return timed(lambda: importlib.import_module("linfty.cli"))
    finally:
        for n in loaded():
            del sys.modules[n]
        sys.modules.update(saved)
        gc.collect()  # the copies are cyclic garbage; do not let them raise peak_rss_mb


def repeated(steps: list, timeline: Timeline) -> dict:
    """Time of one repeat of steps, as the sum of each step's median over
    the repeats (the way wall_s sums the operations of a pass).  A step is a
    callable returning the raw seconds it measured; each is timed after a
    calibration sample.  Repeats until the repeats add up to SETUP_BUDGET_S,
    at least SETUP_MIN_REPEATS and at most SETUP_MAX_REPEATS times."""
    repeats, spent = [], 0.0
    while len(repeats) < SETUP_MIN_REPEATS or (
            spent < SETUP_BUDGET_S and len(repeats) < SETUP_MAX_REPEATS):
        repeat = []
        for step in steps:
            cal = timeline.calibrate()
            repeat.append((step(), cal))
        repeats.append(repeat)
        spent += sum(s for s, _ in repeat)
    timeline.calibrate()  # a sample after the last step
    per_step = list(zip(*repeats))
    return {"s": sum(statistics.median(s * timeline.scale(c) for s, c in step) for step in per_step),
            "raw_s": sum(statistics.median(s for s, _ in step) for step in per_step),
            "repeats": len(repeats)}


def timed_setup(workload, timeline: Timeline, workdir: Path) -> dict:
    """setup_s: the import of linfty, one set-up (inputs, fixtures, bundle
    files) and one validity check of every input meant to be valid, each
    taken at its median over repeats.  Returns it with the parts.  The
    check is timed bundle by bundle, so that each bundle's time is scaled by
    the calibration samples next to it."""
    def one_setup() -> float:
        target = fresh_dir(workdir)
        return timed(lambda: workload.setup(target))

    parts = {"import": repeated([import_seconds], timeline),
             "setup": repeated([one_setup], timeline)}
    if workload.valid:
        parts["validate"] = repeated(
            [lambda c=call: timed(c) for _, call in workload.validations()], timeline)
    return {"setup_s": sum(p["s"] for p in parts.values()), "parts": parts}


def end_to_end(workload, seconds: float, workdir: Path) -> tuple:
    timeline = Timeline()
    setup = timed_setup(workload, timeline, workdir)
    workload.reference()
    ops_per_pass = len(workload.ops())
    # enough passes that at least TAIL_BEYOND samples lie beyond the tail
    beyond_per_pass = ops_per_pass - math.ceil(TAIL_PERCENTILE / 100 * ops_per_pass)
    min_passes = max(2, math.ceil(TAIL_BEYOND / max(1, beyond_per_pass)))

    samples: dict = {}
    failures: list = []
    pass_s = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_pass(workload, timeline, samples, failures)
        pass_s.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if len(pass_s) >= min_passes and elapsed + PASS_OVERRUN * pass_s[-1] >= seconds:
            break
    timeline.calibrate()  # a sample after the last operation

    scaled = {label: [raw * timeline.scale(cal) for raw, cal in v] for label, v in samples.items()}
    flat = [t for v in scaled.values() for t in v]
    medians = [statistics.median(v) for v in scaled.values()]
    raw = {label: [r for r, _ in v] for label, v in samples.items()}
    tail_value, tail_rank, tail_beyond = tail(scaled)
    metrics = {
        # the batch's time, as the sum of each operation's median over passes
        "wall_s": sum(medians),
        "op_p50_s": statistics.median(medians),
        "op_tail_s": tail_value,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": len(pass_s),
        "ops_per_pass": ops_per_pass,
        "samples": len(flat),
        "op_tail": {"percentile": TAIL_PERCENTILE, "rank_in_pass": tail_rank,
                    "samples_beyond": tail_beyond},
        "raw": {
            "wall_s": sum(statistics.median(v) for v in raw.values()),
            "op_p50_s": statistics.median(statistics.median(v) for v in raw.values()),
            "op_tail_s": tail(raw)[0],
            "pass_s": pass_s,
            "setup": setup["parts"],
            "calibration_s": {"median": statistics.median(timeline.cals),
                              "min": min(timeline.cals), "max": max(timeline.cals),
                              "samples": len(timeline.cals)},
        },
    }
    return metrics, failures, len(flat), details


def traced(workload, workdir: Path) -> tuple:
    workload.setup(fresh_dir(workdir))
    workload.validate()
    workload.reference()
    timeline = Timeline()
    samples: dict = {}
    failures: list = []
    run_pass(workload, timeline, samples, failures)
    untraced_end = len(timeline.cals)

    setup_tracer, pass_tracer = tracing.Tracer(), tracing.Tracer()
    with setup_tracer.installed():
        workload.setup(fresh_dir(workdir))
    with pass_tracer.installed():
        start = time.perf_counter()
        run_pass(workload, timeline, samples, failures)
        traced_wall = time.perf_counter() - start
    timeline.calibrate()
    leftover = tracing.wrapped_names()
    if leftover:
        failures.append(f"tracing wrappers left installed: {leftover}")

    def pass_time(traced_pass: bool) -> float:
        return sum(raw * timeline.scale(cal) for v in samples.values() for raw, cal in v
                   if (cal >= untraced_end) == traced_pass)

    metrics = tracing.per_layer_metrics(setup_tracer, pass_tracer)
    metrics["trace.overhead_frac"] = pass_time(True) / pass_time(False) - 1
    selfs = tracing.layer_self_times(pass_tracer.spans, traced_wall)
    observed = max((k for k in selfs if k != "bench"), key=selfs.get)
    predicted = PREDICTED_DOMINANT[workload.name]
    if observed not in predicted:
        failures.append(f"dominant layer {observed}, predicted one of {predicted}")
    details = {
        "untraced_pass_s": pass_time(False),
        "traced_pass_s": pass_time(True),
        "layer_self_s": selfs,
        "dominant_layer": {"predicted": predicted, "observed": observed,
                           "confirmed": observed in predicted},
        "spans": len(pass_tracer.spans),
    }
    path = OUT_DIR / f"trace-{workload.name}-{workload.seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed,
        "span_fields": ["name", "start", "end", "parent", "info", "counted"],
        "setup_spans": setup_tracer.spans, "pass_spans": pass_tracer.spans,
        "counters": {k: {"calls": c.calls, "s": c.s} for k, c in pass_tracer.counters.items()},
    }) + "\n")
    details["trace_file"] = str(path.relative_to(ROOT))
    attempted = sum(len(v) for v in samples.values())
    return metrics, failures, attempted, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The thread pool in `linfty verify` is not under test; pin it off.
    os.environ.pop("LINFTY_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import linfty.cli
        import workloads
    except ImportError as exc:
        print(f"error: cannot import linfty from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = fresh_dir(OUT_DIR)
    try:
        if args.trace:
            values, failures, attempted, details = traced(workload, workdir)
            units = {k: tracing.unit_of(k) for k in values}
        else:
            values, failures, attempted, details = end_to_end(workload, args.seconds, workdir)
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / attempted,
        "failures": failures[:10],
        "recorded_digests": bool(workloads.load_expected(args.workload, args.seed)),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "linfty_thread_cap": linfty.cli._thread_cap(),
        "cal_reference_s": CAL_REFERENCE_S,
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
