"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from array import array

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import intrep  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from intrep import BitString, oracle  # noqa: E402


def test_generation_repeats_for_equal_seeds():
    assert workloads.codec_block(7, 300) == workloads.codec_block(7, 300)
    assert workloads.codec_block(7, 300) != workloads.codec_block(8, 300)
    assert workloads.cli_cases(7) == workloads.cli_cases(7)
    assert workloads.cli_cases(7) != workloads.cli_cases(8)


def test_a_codec_block_covers_every_bit_length_in_both_families():
    cases = workloads.codec_block(1, 0)
    assert len(cases) == workloads.CODEC_BLOCK
    for family in ("posit", "takum"):
        lengths = sorted(abs(m).bit_length() for f, m, *_ in cases if f == family)
        assert lengths == list(range(1, 256))
    assert {m > 0 for _, m, *_ in cases} == {True, False}


@pytest.mark.parametrize("seed", [1, 2])
def test_every_group_holds_the_same_inputs_above_2_254(seed):
    # Each group steps the top bit length through every trailing-zero count
    # once; only m = +-2^254 (count 254) is not above 2^254.
    for group in range(2):
        blocks = range(group * workloads.CODEC_GROUP, (group + 1) * workloads.CODEC_GROUP)
        count = sum(
            workloads.takum_above_2_254(case) for b in blocks for case in workloads.codec_block(seed, b)
        )
        assert count == workloads.CODEC_GROUP - 1


def test_codec_mix_refuses_exactly_the_inputs_above_2_254():
    codec = workloads.CodecMix(intrep, 5, 1)
    tally = _count_outcomes(codec.op, 3 * workloads.CODEC_BLOCK)
    assert tally.wrong == 0
    assert tally.refused == codec.above_2_254 > 0
    assert codec.fixed_ops(1) == workloads.CODEC_GROUP * workloads.CODEC_BLOCK


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds a1 [15, 25].
    names = array("H", [0, 1, 2, 1])
    parents = array("i", [-1, 0, 1, 0])
    starts = array("q", [0, 10, 15, 50])
    ends = array("q", [100, 40, 25, 90])
    totals, counted = spans.span_totals(names, parents, starts, ends, frozenset({2}))
    assert totals[0] == [1, 100, 30]  # 100 - 30 - 40
    assert totals[1] == [2, 70, 60]  # a: 30 - 10; b: 40
    assert totals[2] == [1, 10, 10]
    assert list(counted) == [1, 1, 0, 0]


def test_reference_decoders_agree_with_intrep():
    rng = random.Random(0)
    for family in ("posit", "takum"):
        decode = getattr(intrep, family).decode
        ref = reference.DECODERS[family]
        cases = [(u, n) for n in range(2, 11) for u in range(1 << n)]
        cases += [(rng.getrandbits(n), n) for n in (rng.randint(11, 300) for _ in range(2000))]
        for u, n in cases:
            assert workloads.as_reference(decode(BitString.from_uint(u, n))) == ref(u, n)


def test_reference_decoders_on_known_patterns():
    assert reference.posit(0b0110000001, 10) == (1, 17, 0)
    assert reference.takum(0b01001101, 8) == (1, 5, 0)
    assert reference.posit(0b1000, 4) == reference.NAR
    assert reference.render(reference.posit(0b011, 3)) == "16"


@pytest.mark.parametrize("family, m, length", workloads.MIN_BITS_EXPECTED)
def test_min_bits_literals_match_the_oracle(family, m, length):
    fmt = intrep.PositFormat() if family == "posit" else intrep.TakumFormat()
    assert oracle.min_length(fmt, m) == length


def _count_outcomes(op, ops):
    tally = run.Tally()
    for k in range(ops):
        tally.record(op, k)
    return tally


def test_gate_passes_unmodified_code():
    codec = workloads.CodecMix(intrep, 3, 1)
    tally = _count_outcomes(codec.op, 400)
    assert tally.wrong == 0
    cli = workloads.CliCold(intrep, 3, 1)
    tally = _count_outcomes(cli.in_process, cli.unit_ops)
    assert (tally.wrong, tally.refused) == (0, 0)


@pytest.mark.parametrize("family", ["posit", "takum"])
def test_gate_catches_a_wrong_decode_injected_by_wrapper(monkeypatch, family):
    original = getattr(intrep, family).decode

    def doubled(bits):
        value = original(bits)
        if value.is_finite:
            return intrep.DyadicValue.from_mantissa(
                value.sign, value.significand, value.exponent2 + 1
            )
        return value

    monkeypatch.setattr(getattr(intrep, family), "decode", doubled)
    codec = workloads.CodecMix(intrep, 3, 1)
    assert _count_outcomes(codec.op, 400).wrong > 0
    cli = workloads.CliCold(intrep, 3, 1)
    assert any(argv[2].startswith(family) for argv, _ in cli.cases if argv[0] == "decode")
    assert _count_outcomes(cli.in_process, cli.unit_ops).wrong > 0


def test_gate_catches_a_wrong_sweep(monkeypatch):
    original = oracle.largest_consecutive

    def halved(fmt, n=None, workers=None):
        report = original(fmt, n, workers)
        return type(report)(report.format, report.n, report.value // 2, None, report.source, False)

    monkeypatch.setattr(oracle, "largest_consecutive", halved)
    monkeypatch.setattr(workloads, "SWEEP_WIDTH", 12)
    sweep = workloads.SweepWide(intrep, 0, 1)
    assert _count_outcomes(sweep.op, 1).wrong == 1


def test_verify_output_check():
    good = "PASS  a: ok\nNOTE  b: fyi\nPASS  c: ok\nall 2 checks passed\n"
    assert workloads.verify_passed(good)
    assert not workloads.verify_passed(good.replace("PASS  c", "FAIL  c"))
    assert not workloads.verify_passed("PASS  a: ok\nall 2 checks passed\n")


def test_tracer_records_spans_and_restores_the_program():
    before = (intrep.posit.decode, BitString.__dict__["from_uint"])
    tracer = spans.Tracer(workload_id=1)
    tracer.install(intrep)
    try:
        span = tracer.open("op.test")
        intrep.cli.main(["min-bits", "--format", "posit", "--value", "5"])
        oracle.largest_consecutive(intrep.PositFormat(), 8)
        tracer.close(span)
    finally:
        tracer.uninstall()
    assert (intrep.posit.decode, BitString.__dict__["from_uint"]) == before
    values, absent = spans.per_layer(tracer)
    assert absent == []
    assert values["posit.min_length.calls"] == 1
    assert values["posit.decode.calls"] == 256 == values["oracle.patterns"]
    assert values["formats.decode.calls"] == 256
    assert 0 < values["oracle.sweep.useful_ratio"] <= 1
    assert values["cli.main.min-bits.s"] > 0
    assert set(values) | {"oracle.pool.cpu_s", "oracle.pool.efficiency", "cli.interpreter_ms",
                          "cli.import_ms", "trace.overhead_ratio"} == set(spans.metric_units())


def test_a_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(intrep.formats, "decode")
    tracer = spans.Tracer(workload_id=1)
    tracer.install(intrep)
    tracer.uninstall()
    _, absent = spans.per_layer(tracer)
    assert absent == ["formats.decode.calls", "formats.decode.self_s"]


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == spans.metric_units()
    cli = workloads.CliCold(intrep, 0, 1)
    _, metrics, _ = run.untraced(cli, 0.1, (0.1, 0.1, 0.1))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in metrics.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_scaler_takes_the_mean_speed_near_an_operation():
    meter = speed.Meter()
    meter.at.extend([0.0, 1.0, 1.1, 1.2, 5.0])
    nominal = speed.NOMINAL_S
    meter.took.extend([1.0, 2 * nominal, 4 * nominal, nominal, nominal])
    factor = meter.scaler()
    assert factor(1.05, 1.15) == pytest.approx((1 / 2 + 1 / 4 + 1) / 3)  # samples 1.0 .. 1.2
    assert factor(4.9, 5.0) == pytest.approx(1)
    assert factor(9.0, 9.5) == pytest.approx(1)  # none near: the nearest


def test_ticking_clock_leaves_out_the_handler():
    meter = speed.Meter()
    with meter.ticking():
        start, wall = meter.clock(), time.perf_counter()
        while time.perf_counter() - wall < 10.5 * speed.INTERVAL_S:
            pass
        counted, wall = meter.clock() - start, time.perf_counter() - wall
    assert len(meter.took) >= 5
    # At most one tick falls between the two final reads.
    assert counted == pytest.approx(wall - meter.stolen, abs=max(meter.took))
    assert meter.stolen > max(meter.took)


def test_children_meter_collects_samples_from_forked_children(tmp_path):
    meter = speed.Meter()
    with meter.children(str(tmp_path / "speed")):
        pid = os.fork()
        if pid == 0:
            end = time.perf_counter() + 3.5 * speed.INTERVAL_S
            while time.perf_counter() < end:
                pass
            os._exit(0)
        os.waitpid(pid, 0)
    assert len(meter.took) >= 2
    assert list(meter.at) == sorted(meter.at)
    assert not (tmp_path / "speed").exists()
