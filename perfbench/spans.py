"""Spans around the calls into intrep's layers, for the traced run.

The tracer replaces module and class attributes (`intrep.posit.decode`,
`BitString.from_uint`, ...) with wrappers that record one span per call:
name, start, end, parent span and workload id.  Spans live in flat arrays
while the run goes on and are written out once, after it.  The program's
source is not touched, and a target that no longer exists is reported as
absent instead of failing the run.

Spans nest on one thread, so the time a span's children cover is the sum of
their durations, and self time is duration minus that sum.  Pool children
are forked with the wrappers removed, so nothing inside them is recorded.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array

# Span names the per-layer metrics are built from.  A metric is marked
# absent when a span it is built from could not be installed.
CORE_SPANS = ("core.from_uint", "core.from_mantissa", "formats.decode")
CODEC_SPANS = (
    "posit.decode",
    "takum.decode",
    "minifloat.decode",
    "posit.encode_integer",
    "takum.encode_integer",
    "posit.min_length",
    "takum.min_length",
)
DECODE_SPANS = ("posit.decode", "takum.decode", "minifloat.decode")
CHECKS = (
    "posit_consecutive",
    "takum_consecutive",
    "minifloat_consecutive",
    "min_length.posit",
    "min_length.takum",
    "negation_closure",
    "round_trip",
    "analytic_consecutive",
    "known_discrepancies",
)
CLI_COMMANDS = ("decode", "encode-int", "min-bits", "max-consecutive", "table", "verify")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {}
    for name in CORE_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in CODEC_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.ns_per_call"] = "ns"
    for check in CHECKS:
        units[f"oracle.check.{check}.s"] = "s"
    units["oracle.min_length_table.s"] = "s"
    units["oracle.largest_consecutive.s"] = "s"
    units["oracle.patterns"] = "count"
    units["oracle.patterns_per_s"] = "1/s"
    units["oracle.min_length_table.useful_ratio"] = "ratio"
    units["oracle.sweep.useful_ratio"] = "ratio"
    units["oracle.pool.cpu_s"] = "s"
    units["oracle.pool.efficiency"] = "ratio"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for command in CLI_COMMANDS:
        units[f"cli.main.{command}.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _family(args, kwargs) -> str:
    fmt = args[0] if args else kwargs["fmt"]
    return type(fmt).__name__.removesuffix("Format").lower()


def _command(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


def targets(intrep) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, namer) for every wrapped public name."""
    core, formats, oracle = intrep.core, intrep.formats, intrep.oracle
    found = [
        (core.BitString, "from_uint", "core.from_uint", None),
        (core.DyadicValue, "from_mantissa", "core.from_mantissa", None),
        (formats, "decode", "formats.decode", None),
    ]
    for name in CODEC_SPANS:
        module, attr = name.split(".")
        found.append((getattr(intrep, module), attr, name, None))
    for check in CHECKS:
        if check.startswith("min_length."):
            continue
        attr = check if check == "known_discrepancies" else f"check_{check}"
        found.append((oracle, attr, f"oracle.check.{check}", None))
    found += [
        (oracle, "check_min_length", "oracle.check.min_length",
         lambda a, k: f"oracle.check.min_length.{_family(a, k)}"),
        (oracle, "min_length_table", "oracle.min_length_table", None),
        (oracle, "largest_consecutive", "oracle.largest_consecutive", None),
        # Private, but the only place the set of integers a sweep found is
        # visible; its absence only marks oracle.sweep.useful_ratio absent.
        (oracle, "_integers_at_width", "oracle.sweep", None),
        (intrep.cli, "main", "cli.main", lambda a, k: f"cli.main.{_command(a, k)}"),
    ]
    return found


class Tracer:
    """Span recorder.  Use install(), run the work, then uninstall()."""

    def __init__(self, workload_id: int):
        self.workload_id = workload_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.workload = array("B")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        # span index -> (width argument, integers found), for oracle.sweep spans
        self.sweeps: dict[int, tuple[int, int]] = {}
        self.targets_resolved = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span for the benchmark's own operation; returns its index."""
        i = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.workload.append(self.workload_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, original, span_name: str, namer):
        fixed = self.name_id(span_name)
        names, parents, workloads = self.name, self.parent, self.workload
        starts, ends, stack = self.start, self.end, self._stack
        wid, name_id, clock = self.workload_id, self.name_id, time.perf_counter_ns
        observe = self._observer(span_name)

        def wrapper(*args, **kwargs):
            # open() and close() inlined: this runs once per traced call.
            i = len(ends)
            names.append(fixed if namer is None else name_id(namer(args, kwargs)))
            parents.append(stack[-1])
            workloads.append(wid)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(i, args, kwargs, result)
            return result

        return wrapper

    def _observer(self, span_name: str):
        if span_name == "oracle.min_length_table":
            def resolved(i, args, kwargs, result):
                self.targets_resolved += sum(v is not None for v in result.values())
            return resolved
        if span_name == "oracle.sweep":
            def found(i, args, kwargs, result):
                self.sweeps[i] = (args[1], len(result))
            return found
        return None

    def install(self, intrep) -> None:
        """Wrap every target that exists; note the others as absent."""
        for owner, attr, span_name, namer in targets(intrep):
            try:
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(getattr(owner, attr), span_name, namer)
            if isinstance(raw, (classmethod, staticmethod)):
                # getattr gave the bound method, so the wrapper needs no cls.
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, raw))
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def write(self, path: str) -> None:
        """Span table: a text header naming the columns, then the raw arrays."""
        header = (
            f"spans {len(self.end)} workload {self.workload_id} "
            f"columns name:H parent:i workload:B start_ns:q end_ns:q "
            f"names {','.join(self.names)}\n"
        )
        with open(path, "wb") as out:
            out.write(header.encode())
            for column in (self.name, self.parent, self.workload, self.start, self.end):
                column.tofile(out)


def span_totals(names, parents, starts, ends, count_ids=frozenset()):
    """Per name id: [calls, inclusive ns, self ns]; per span: counted descendants.

    Children are recorded after their parent, so one pass from the last span
    to the first sees every child before its parent.  A span's counted
    descendants are those whose name id is in count_ids.
    """
    n = len(ends)
    child_ns = array("q", bytes(8 * n))
    counted = array("q", bytes(8 * n))
    totals: dict[int, list[int]] = {}
    for i in range(n - 1, -1, -1):
        duration = ends[i] - starts[i]
        name = names[i]
        p = parents[i]
        if p >= 0:
            child_ns[p] += duration
            counted[p] += counted[i] + (name in count_ids)
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns[i]
    return totals, counted


def per_layer(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from the recorded spans, and the absent names.

    Counts and `.s` times are totals over the traced work, which is the same
    fixed unit for a given workload and seed; `ns_per_call` is inclusive.
    """
    ids = {name: i for i, name in enumerate(tracer.names)}
    decode_ids = frozenset(ids[name] for name in DECODE_SPANS if name in ids)
    totals, counted = span_totals(tracer.name, tracer.parent, tracer.start, tracer.end, decode_ids)

    def total(name):
        return totals.get(ids.get(name), [0, 0, 0])

    values: dict[str, float] = {}
    for name in CORE_SPANS + CODEC_SPANS:
        calls, inclusive, own = total(name)
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own / 1e9
        if name in CODEC_SPANS:
            values[f"{name}.ns_per_call"] = inclusive / calls if calls else 0.0
    for check in CHECKS:
        values[f"oracle.check.{check}.s"] = total(f"oracle.check.{check}")[1] / 1e9
    values["oracle.min_length_table.s"] = total("oracle.min_length_table")[1] / 1e9
    values["oracle.largest_consecutive.s"] = total("oracle.largest_consecutive")[1] / 1e9
    for command in CLI_COMMANDS:
        values[f"cli.main.{command}.s"] = total(f"cli.main.{command}")[1] / 1e9

    # Oracle work: outermost oracle spans, the decodes under them, and the
    # sweeps that ran in pool children (no traced decode under them), which
    # enumerate all 2^n patterns of their width.
    oracle_ids = {i for name, i in ids.items() if name.startswith("oracle.")}
    oracle_spans = [i for i in range(len(tracer.end)) if tracer.name[i] in oracle_ids]
    patterns = oracle_ns = 0
    for i in oracle_spans:
        p = tracer.parent[i]
        while p >= 0 and tracer.name[p] not in oracle_ids:
            p = tracer.parent[p]
        if p < 0:
            patterns += counted[i]
            oracle_ns += tracer.end[i] - tracer.start[i]
    sweep_patterns = sweep_found = 0
    for i, (width, found) in tracer.sweeps.items():
        decoded = counted[i] or 1 << width
        if not counted[i]:
            patterns += decoded
        sweep_patterns += decoded
        sweep_found += found
    table_id = ids.get("oracle.min_length_table")
    table_patterns = sum(counted[i] for i in oracle_spans if tracer.name[i] == table_id)
    values["oracle.patterns"] = patterns
    values["oracle.patterns_per_s"] = patterns / (oracle_ns / 1e9) if oracle_ns else 0.0
    values["oracle.min_length_table.useful_ratio"] = (
        tracer.targets_resolved / table_patterns if table_patterns else 0.0
    )
    values["oracle.sweep.useful_ratio"] = sweep_found / sweep_patterns if sweep_patterns else 0.0

    def is_absent(span):
        return any(span == a or span.startswith(a + ".") for a in tracer.absent)

    oracle_inputs = (*DECODE_SPANS, "oracle.sweep")
    depends = {
        "oracle.patterns": oracle_inputs,
        "oracle.patterns_per_s": oracle_inputs,
        "oracle.min_length_table.useful_ratio": ("oracle.min_length_table", *DECODE_SPANS),
        "oracle.sweep.useful_ratio": ("oracle.sweep",),
    }
    missing = [
        metric
        for metric in values
        if any(map(is_absent, depends.get(metric, (metric.rsplit(".", 1)[0],))))
    ]
    return values, missing
