"""Run one workload of the intrep benchmark and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports intrep from ./src and from
nothing else.  With --trace 0 it measures the workload for --seconds (or
for a fixed number of operations sized by --seconds) and reports the
end-to-end metrics, every time at the reference speed of speed.py; with
--trace 1 it runs a fixed unit of the
workload untraced and then traced, and reports the per-layer metrics.  The
last line of stdout is one JSON object; lines before it give the inputs,
the machine and the metrics as the workload itself names them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array

import spans
import speed
import workloads

SETUP_REPEATS = 11
OUT_DIR = ".perfbench"
# Times `import intrep` in a fresh interpreter, then the speed kernel in that
# same process (speed.py is imported after intrep, so it adds nothing to it).
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import intrep; t1 = time.perf_counter(); "
    "import sys; sys.path.insert(0, sys.argv[1]); import speed; "
    "print(t0, t1, intrep.__file__, *(speed.timed_kernel()[1] for _ in range(5)))"
)


def load_intrep(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "intrep", "__init__.py")):
        sys.exit("perfbench: no src/intrep here; run from the root of an intrep checkout")
    sys.path.insert(0, src)
    import intrep

    return intrep


def cold_imports(intrep, repeats: int) -> tuple[float, float, float]:
    """Medians over fresh interpreters, after one unrecorded warm-up: seconds
    from spawning one to its first statement, seconds its `import intrep`
    takes, and the latter at the reference speed the child itself measured."""
    env = workloads.child_env(intrep)
    here = os.path.dirname(os.path.abspath(__file__))
    first, took, scaled = [], [], []
    for i in range(repeats + 1):
        spawned = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, here],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        if os.path.realpath(out[2]) != os.path.realpath(intrep.__file__):
            sys.exit(f"perfbench: the child imported {out[2]}, not {intrep.__file__}")
        if i:
            first.append(float(out[0]) - spawned)
            took.append(float(out[1]) - float(out[0]))
            scaled.append(took[-1] * statistics.fmean(speed.NOMINAL_S / float(t) for t in out[3:]))
    return statistics.median(first), statistics.median(took), statistics.median(scaled)


class Tally:
    """Outcomes and latencies of the operations of one run."""

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self.ops = self.refused = self.wrong = 0
        self.error = None

    def record(self, op, k: int) -> None:
        start = time.perf_counter()
        try:
            seconds, status = op(k)
        except Exception:  # a crash is a wrong answer; keep the first traceback
            seconds, status = time.perf_counter() - start, workloads.WRONG
            self.error = self.error or traceback.format_exc()
        self.starts.append(start)
        self.seconds.append(seconds)
        self.ops += 1
        self.refused += status == workloads.REFUSED
        self.wrong += status == workloads.WRONG

    def scaled(self, factor) -> list[float]:
        """Each operation's seconds at the reference speed."""
        return [s * factor(a, a + s) for a, s in zip(self.starts, self.seconds)]


def latencies(seconds: list[float], tail: int) -> tuple[float, float]:
    """Median and tail percentile (100 = slowest), in seconds."""
    kept = sorted(seconds)
    if tail == 100 or len(kept) < 2:
        high = kept[-1]
    else:
        high = statistics.quantiles(kept, n=100)[tail - 1]
    return statistics.median(kept), high


def sampling(workload, meter: speed.Meter):
    """Where the meter samples while this workload runs (see speed.py)."""
    if workload.sampling == "ticking":
        workload.clock = meter.clock
        return meter.ticking()
    if workload.sampling == "children":
        return meter.children(os.path.join(OUT_DIR, "speed"))
    return speed.pinned()


def measure(workload, tally: Tally, seconds: float):
    """Run the workload for `seconds`, or for its fixed number of operations
    if it has one; return the meter's scaler."""
    meter = speed.Meter()
    between = workload.sampling != "ticking"
    fixed = workload.fixed_ops(seconds) if hasattr(workload, "fixed_ops") else None
    with sampling(workload, meter):
        start, k = time.perf_counter(), 0
        while (k < fixed) if fixed else (k == 0 or time.perf_counter() - start < seconds):
            if between:
                meter.sample()
            tally.record(workload.op, k)
            k += 1
        meter.sample()
    return meter.scaler()


def peak_rss_mb(concurrency: int) -> float:
    """This process's peak RSS plus `concurrency` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + concurrency * child) / 1024


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as loose:
                return loose.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(root),
    }


def named_metrics(workload, tally: Tally, p50, high, busy_s, setup_s, peak):
    """The end-to-end metrics under the names the workload gives them."""
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "error_rate": ((tally.refused + tally.wrong) / tally.ops, "ratio"),
    }
    if workload.name == "verify":
        named["verify_s"] = (p50, "s")
    elif workload.name == "sweep-wide":
        named["sweep_patterns_per_s"] = (workload.patterns_per_op / p50, "1/s")
    elif workload.name == "codec-mix":
        named["codec_ops_per_s"] = (tally.ops / busy_s, "1/s")
        named["codec_p50_us"] = (p50 * 1e6, "us")
        named["codec_p99_us"] = (high * 1e6, "us")
    else:
        named["cli_p50_ms"] = (p50 * 1e3, "ms")
        named["cli_p90_ms"] = (high * 1e3, "ms")
    return {name: {"value": v, "unit": u} for name, (v, u) in named.items()}


def untraced(workload, seconds: float, cold) -> tuple[Tally, dict, dict]:
    """End-to-end metrics; every time is at the reference speed (speed.py)."""
    tally = Tally()
    factor = measure(workload, tally, seconds)
    peak = peak_rss_mb(workload.concurrency)
    scaled = tally.scaled(factor)
    p50, high = latencies(scaled, workload.tail)
    busy_s = sum(scaled)
    setup_s = cold[2]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
        "op_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": high * 1e3, "unit": "ms"},
        "ops_per_s": {"value": tally.ops / busy_s, "unit": "1/s"},
    }
    raw_p50, raw_high = latencies(tally.seconds, workload.tail)
    detail = {
        "named": named_metrics(workload, tally, p50, high, busy_s, setup_s, peak),
        "latency_samples": len(scaled),
        "tail_percentile": workload.tail,
        "raw": {"setup_s": cold[1], "op_p50_ms": raw_p50 * 1e3, "op_tail_ms": raw_high * 1e3,
                "ops_per_s": tally.ops / sum(tally.seconds)},
    }
    if workload.name == "codec-mix":
        detail["takum_inputs_above_2^254"] = workload.above_2_254
    return tally, metrics, detail


def traced(workload, intrep, workload_id, seconds, cold) -> tuple[Tally, dict, dict]:
    """Repeat the workload's fixed unit untraced for half the time (or, for
    a workload of fixed size, for half its operations), then run it once traced."""
    op = getattr(workload, "in_process", workload.op)
    tally = Tally()
    fixed = workload.fixed_ops(seconds / 2) // workload.unit_ops if hasattr(workload, "fixed_ops") else None
    before, start, reps = os.times(), time.perf_counter(), 0
    while (reps < fixed) if fixed else (reps == 0 or time.perf_counter() - start < seconds / 2):
        for k in range(workload.unit_ops):
            tally.record(op, k)
        reps += 1
    wall = time.perf_counter() - start
    after = os.times()
    cpu = sum(after[:4]) - sum(before[:4])

    tracer = spans.Tracer(workload_id)
    tracer.install(intrep)
    try:
        start = time.perf_counter()
        for k in range(workload.unit_ops):
            span = tracer.open(f"op.{workload.name}")
            tally.record(op, k)
            tracer.close(span)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    values, absent = spans.per_layer(tracer)
    values["oracle.pool.cpu_s"] = cpu / reps
    values["oracle.pool.efficiency"] = cpu / (wall * workload.workers)
    values["cli.interpreter_ms"] = cold[0] * 1e3
    values["cli.import_ms"] = cold[1] * 1e3
    values["trace.overhead_ratio"] = traced_wall / (wall / reps)
    units = spans.metric_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}.bin")
    tracer.write(spans_path)
    detail = {
        "absent": absent,
        "spans": len(tracer.end),
        "spans_file": spans_path,
        "unit_ops": workload.unit_ops,
    }
    return tally, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    intrep = load_intrep(root)
    env = environment(root)
    cold = cold_imports(intrep, SETUP_REPEATS)
    workers = len(os.sched_getaffinity(0))
    workload = workloads.WORKLOADS[args.workload](intrep, args.seed, workers)
    workload_id = list(workloads.WORKLOADS).index(args.workload) + 1

    env["load_before"] = os.getloadavg()
    if args.trace:
        tally, metrics, detail = traced(workload, intrep, workload_id, args.seconds, cold)
    else:
        tally, metrics, detail = untraced(workload, args.seconds, cold)
    env["load_after"] = os.getloadavg()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_digest": workload.inputs_digest,
        "workers": workload.workers,
        "ops": tally.ops,
        "refused": tally.refused,
        "wrong": tally.wrong,
        **detail,
        "first_error": tally.error,
    }
    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(detail))
    for name, metric in detail.get("named", metrics).items():
        print(f"# {args.workload:<10} {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.ops,
        "failed": tally.refused + tally.wrong,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
