"""Acceptance criteria.

Each test covers one criterion, prints exactly one summary line

    ACCEPTANCE <k>: <name>: PASS|FAIL (<elapsed>s, budget <budget>s)

directly to the terminal (bypassing capture), and fails if the criterion or
its time budget is violated.
"""

import time
from contextlib import contextmanager

from intrep import PRESETS, PositFormat, TakumFormat, minifloat, oracle, posit, takum
from intrep.cli import build_table, figure_rows, render_magnitude, _render_table


@contextmanager
def criterion(capsys, number, name, budget):
    start = time.perf_counter()
    error = None
    try:
        yield
    except BaseException as exc:  # report FAIL, then let pytest see it
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and elapsed <= budget
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {name}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s, budget {budget:.0f}s)")
    if error is not None:
        raise error
    assert elapsed <= budget, f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


# Independently derived largest-consecutive values for the standard formats.
EXPECTED_TABLE_VALUES = {
    "e5m2": 2**3,
    "posit8": 2**4,
    "takum8": 2**3,
    "float16": 2**11,
    "bfloat16": 2**8,
    "posit16": 2**10,
    "takum16": 2**9,
    "float32": 2**24,
    "posit32": 2**23,
    "takum32": 2**24,
    "float64": 2**53,
    "posit64": 2**48,
    "takum64": 2**55,
    "float128": 2**113,
    "posit128": 2**100,
    "takum128": 2**118,
}


def test_criterion_1_table_values(capsys):
    with criterion(capsys, 1, "summary table exact values", 5):
        rows = {row.name: row for row in build_table()}
        for name, expected in EXPECTED_TABLE_VALUES.items():
            assert rows[name].value == expected, name
        assert rows["posit128"].ratio == 2**100 / (2**127 - 1)
        assert rows["float16"].ratio == 2**11 / (2**15 - 1)
        assert render_magnitude(2048) == "2^11 = 2048"
        assert render_magnitude(2**24) == "2^24 (~ 1.7e+07)"
        assert render_magnitude(2**24, exact=True) == "2^24 = 16777216"
        assert render_magnitude(2**113) == "2^113 (~ 1.0e+34)"


def test_criterion_2_e4m3_conflict(capsys):
    with criterion(capsys, 2, "e4m3 conflict surfaced, enumeration wins", 1):
        report = oracle.largest_consecutive(PRESETS["e4m3"])
        assert report.value == 16
        assert report.agreement is True
        rows = {row.name: row for row in build_table()}
        assert rows["e4m3"].value == 32 and rows["e4m3"].source == "reference"
        assert rows["e4m3 (computed)"].value == 16
        assert rows["e4m3 (computed)"].source == "oracle"
        assert rows["e4m3"].footnote and rows["e4m3 (computed)"].footnote
        footnote = _render_table(build_table(), exact=False).splitlines()[-1]
        assert "32" in footnote and "16" in footnote
        notes = oracle.known_discrepancies()
        assert len(notes) == 1 and notes[0].note and notes[0].passed


def test_criterion_3_min_length_formulas(capsys):
    with criterion(capsys, 3, "minimal-length formulas vs oracle, m = 1..4096", 60):
        for fmt, formula in ((PositFormat(), posit.min_length), (TakumFormat(), takum.min_length)):
            table = oracle.min_length_table(fmt, range(1, 4097))
            mismatches = [m for m in range(1, 4097) if table[m] != formula(m)]
            assert mismatches == [], (fmt, mismatches[:10])
        for m in (1, 7, 9, 10, 100, 4096):
            assert posit.min_length(-m) == posit.min_length(m)
            assert takum.min_length(-m) == takum.min_length(m)


def test_criterion_4_consecutive_formulas(capsys):
    with criterion(capsys, 4, "largest-consecutive formulas vs oracle, n = 5..16", 120):
        for fmt, formula in (
            (PositFormat(), posit.largest_consecutive),
            (TakumFormat(), takum.largest_consecutive),
        ):
            for n in range(5, 17):
                report = oracle.largest_consecutive(fmt, n)
                assert report.value == formula(n), (fmt, n)
                assert report.agreement is True, (fmt, n)
        for name, spec in PRESETS.items():
            if spec.width <= 16:
                report = oracle.largest_consecutive(spec)
                assert report.value == minifloat.largest_consecutive(spec), name
                assert report.agreement is True, name


def test_criterion_5_analytic_exponent(capsys):
    with criterion(capsys, 5, "Lambert-W consecutive exponent, n = 5..64", 1):
        import math

        for n in range(5, 65):
            exact = takum.consecutive_exponent(n)
            assert takum.consecutive_exponent_analytic(n) == exact, n
            bound = 1 << (n - 3)
            assert exact * 2**exact < bound <= (exact + 1) * 2 ** (exact + 1), n
            x = math.log(2.0) * math.pow(2.0, n - 3)
            w = takum.lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x), n


def test_criterion_6_negation_and_round_trip(capsys):
    with criterion(capsys, 6, "negation closure (n <= 14) and round trips (|m| <= 4096)", 120):
        negation = oracle.check_negation_closure(14)
        assert negation.passed, negation.detail
        round_trip = oracle.check_round_trip(4096)
        assert round_trip.passed, round_trip.detail


FROZEN_FIGURE_EXPONENTS = {
    8: (4, 3),
    16: (10, 9),
    32: (23, 24),
    64: (48, 55),
    128: (100, 118),
}


def test_criterion_7_figure_data(capsys):
    with criterion(capsys, 7, "width-sweep figure data, n = 5..128", 1):
        rows = figure_rows(5, 128)
        assert len(rows) == 124
        by_n = {n: (p, t) for n, p, t in rows}
        for n, expected in FROZEN_FIGURE_EXPONENTS.items():
            assert by_n[n] == expected, n
        for n, p, t in rows:
            assert p == 4 * (n - 3) // 5
            assert t == takum.consecutive_exponent(n)
        posits = [p for _, p, _ in rows]
        takums = [t for _, _, t in rows]
        assert posits == sorted(posits)
        assert takums == sorted(takums)
