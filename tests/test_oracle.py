import concurrent.futures

import pytest

from intrep import (
    PRESETS,
    BudgetError,
    FormatError,
    MinifloatSpec,
    PositFormat,
    TakumFormat,
    cli,
    minifloat,
    oracle,
    posit,
    takum,
)

# Frozen from the exhaustive enumeration: every integer some 5-bit posit
# pattern hits within [-100, 100].  Note 3, 5, 6, 7 are absent: five bits
# leave no fraction bits, so only exact powers of two survive (and 64 has a
# shorter pattern than 32 does at this width).
POSIT5_INTEGERS = (-64, -16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 64)


def test_posit5_representable_set():
    result = oracle.representable_set(PositFormat(), 5, window=100)
    assert result == POSIT5_INTEGERS
    assert 16 in result
    assert 3 not in result


def test_representable_set_membership():
    result = oracle.representable_set(PositFormat(), 5, window=100)
    for m in range(-130, 131):
        assert (m in result) == (m in POSIT5_INTEGERS), m


def test_takum12_covers_small_integers():
    result = oracle.representable_set(TakumFormat(), 12, window=10)
    assert result == tuple(range(-10, 11))


def test_e4m3_largest_integer():
    result = oracle.representable_set(PRESETS["e4m3"], window=500)
    assert max(result) == 448
    assert min(result) == -448


def test_representable_set_validation():
    with pytest.raises(TypeError):
        oracle.representable_set(PositFormat(), 8)  # no window
    with pytest.raises(FormatError):
        oracle.representable_set(PositFormat(), 8, window=0)
    # A bad width and a bad window: the width is resolved first.
    with pytest.raises(FormatError, match="^posit width must be an integer, got '8'$"):
        oracle.representable_set(PositFormat(), "8", window=0)
    with pytest.raises(FormatError):
        oracle.representable_set(PositFormat(), 5, window=True)
    # No width cap: a narrow window costs a few decodes a width, however wide.
    assert oracle.representable_set(PositFormat(), 64, window=10) == tuple(range(-10, 11))


@pytest.mark.parametrize("fmt", [PositFormat(), TakumFormat()], ids=["posit", "takum"])
def test_a_tapered_sweep_starts_no_pool(monkeypatch, fmt):
    # The gap ladder runs in this process: largest_consecutive's workers is ignored.
    serial = oracle.representable_set(fmt, 16, window=50)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    assert oracle.representable_set(fmt, 16, window=50) == serial
    assert oracle.largest_consecutive(fmt, 16, workers=2).agreement is True


def test_a_sweep_with_empty_halves_starts_no_pool(monkeypatch):
    # Bias 40000 puts every nonzero magnitude below 1, so no integer but 0
    # is found, and the sweep runs in this process as every sweep does.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    assert oracle.representable_set(MinifloatSpec(15, 1, 40000), window=5) == (0,)


def test_consecutive_report_posit8():
    report = oracle.largest_consecutive(PositFormat(), 8)
    assert report.n == 8
    assert report.value == 16
    assert report.exponent == 4
    assert report.source == "oracle"
    assert report.agreement is True


def test_consecutive_report_e4m3():
    report = oracle.largest_consecutive(PRESETS["e4m3"])
    assert report.value == 16
    assert report.agreement is True


def test_consecutive_report_without_closed_form():
    # Width 2 is below the posit floor: the oracle refuses it as the handle
    # does, rather than answering for a format the library will not build.
    # Agreement None without a closed form: test_consecutive_report_non_power_of_two.
    with pytest.raises(FormatError):
        oracle.largest_consecutive(PositFormat(), 2)
    report = oracle.largest_consecutive(PositFormat(), 3)
    assert report.value == 1
    assert report.exponent == 0
    assert report.agreement is True


def test_consecutive_report_non_power_of_two():
    report = oracle.largest_consecutive(MinifloatSpec(2, 2, 0))
    assert report.value == 7
    assert report.exponent is None
    assert report.agreement is None  # no closed form applies to this shape


def test_largest_consecutive_needs_both_signs(decode_fault):
    # 1010111 is the only odd posit pattern for -5, and 10101110 its only
    # posit8 pattern; with both NaR, [-5, 5] has a gap.
    hidden = {(0b1010111, 7), (0b10101110, 8)}
    decode_fault(lambda u, n, value: None if (u, n) in hidden else value, posit)
    report = oracle.largest_consecutive(PositFormat(), 8)
    assert report.value == 4
    assert report.agreement is False


def test_a_pattern_0_that_is_not_zero_is_seen(decode_fault, capsys):
    # Zero goes through the same rule as every other integer: nothing
    # presumes that pattern 0 decodes to it.
    decode_fault(lambda u, n, value: None if u == 0 else value, posit)
    report = oracle.largest_consecutive(PositFormat(8))
    assert (report.value, report.agreement) == (-1, False)
    assert oracle.min_length(PositFormat(), 0) is None
    assert cli.main(["verify", "--max-n", "8", "--max-m", "16"]) == cli.EXIT_VERIFICATION
    expected = "FAIL  posit largest-consecutive formula vs oracle, n=5..8: n=5: closed form 2, oracle -1"
    assert expected in capsys.readouterr().out.splitlines()


def test_a_hidden_float16_pattern_fails_the_minifloat_suite(decode_fault):
    # 0 11000 1111010000 is float16's only pattern of 1000 = 125 * 2^3.
    spot = 0b0110001111010000
    assert minifloat.decode_uint(PRESETS["float16"], spot) == (1, 125, 3)
    decode_fault(lambda u, n, value: None if (u, n) == (spot, 16) else value, minifloat)
    result = oracle.check_minifloat_consecutive()
    assert not result.passed
    assert result.detail == "float16: closed form 2048, oracle 999"


def test_largest_consecutive_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DECODES", 300)
    with pytest.raises(BudgetError, match=r"^\d+ decodes to width \d+, over the budget of 300$"):
        oracle.largest_consecutive(PositFormat(), 25)


@pytest.mark.parametrize(
    "question",
    [
        lambda: oracle.largest_consecutive(PositFormat(), 20),
        lambda: oracle.largest_consecutive(TakumFormat(), 20),
        lambda: oracle.min_length_table(TakumFormat(), range(1, 4097)),
        lambda: oracle.representable_set(PRESETS["float16"], window=5000),
    ],
    ids=["posit-walk", "takum-walk", "min-length", "float16-window"],
)
def test_the_budget_admits_exactly_the_decodes_a_question_makes(
    monkeypatch, decode_fault, question
):
    count = 0

    def counting(u, n, value):
        nonlocal count
        count += 1
        return value

    decode_fault(counting, posit, takum, minifloat)
    answer, spent = question(), count
    monkeypatch.setattr(oracle, "MAX_DECODES", spent)
    assert question() == answer
    monkeypatch.setattr(oracle, "MAX_DECODES", spent - 1)
    refusal = rf"^{spent} decodes to width \d+, over the budget of {spent - 1}$"
    with pytest.raises(BudgetError, match=refusal):
        question()


@pytest.mark.parametrize(
    "fmt,max_n",
    [(PositFormat(), 20), (TakumFormat(), 20)]
    + [(PRESETS[p], PRESETS[p].width) for p in oracle.MINIFLOAT_CHECKED],
    ids=["posit", "takum", *oracle.MINIFLOAT_CHECKED],
)
def test_the_walk_yields_every_width(fmt, max_n):
    # The ladder ends once no gap is live; the walk's window never empties.
    walk = oracle._consecutive_walk(fmt, max_n)
    assert [n for n, _ in walk] == list(range(2, max_n + 1))


@pytest.mark.parametrize(
    "fmt",
    [PositFormat(64), TakumFormat(64), PositFormat(128), TakumFormat(128)],
    ids=lambda fmt: fmt.name,
)
def test_representable_set_answers_a_wide_format(fmt):
    assert oracle.representable_set(fmt, window=1000) == tuple(range(-1000, 1001))


@pytest.mark.parametrize("m", [65537, 2**40 + 1, 2**200 + 1], ids=["2^16+1", "2^40+1", "2^200+1"])
@pytest.mark.parametrize("fmt", [PositFormat(), TakumFormat()], ids=["posit", "takum"])
def test_min_length_table_reaches_past_24_bits(fmt, m):
    assert oracle.min_length_table(fmt, [m, -m]) == dict.fromkeys([m, -m], fmt.codec.min_length(m))


def test_a_bare_takum_has_no_min_length_from_2_255():
    # Its gap below NaR never dies, so the climb stops at DEFAULT_MAX_BITS.
    assert oracle.min_length(TakumFormat(), 2**255) is None


def test_min_length_table_stops_once_no_gap_is_live(monkeypatch):
    widths = []
    true_batch = posit.decode_uints
    recording = lambda patterns, n: widths.append(n) or true_batch(patterns, n)
    monkeypatch.setattr(posit, "decode_uints", recording)
    assert oracle.min_length_table(PositFormat(), [3]) == {3: 6}
    assert widths == [1, 2, 3, 4, 5, 6]  # width 1's batch is empty: 0 is no target


def test_min_length_examples():
    assert oracle.min_length(PositFormat(), 1) == 2
    assert oracle.min_length(PositFormat(), 3) == 6
    assert oracle.min_length(TakumFormat(), 8) == 4
    assert oracle.min_length(TakumFormat(), -8) == 4
    assert oracle.min_length(PositFormat(), 0) == 1


def test_min_length_not_found_is_none():
    assert oracle.min_length(PositFormat(5), 3) is None


def test_min_length_table_validation():
    assert oracle.min_length_table(PositFormat(), [0, 1]) == {0: 1, 1: 2}
    with pytest.raises(FormatError):
        oracle.min_length_table(PRESETS["e4m3"], [1, 2])


@pytest.mark.parametrize("targets", [[1.5], [True], [1, True]])
def test_min_length_table_rejects_non_int_targets(targets):
    with pytest.raises(FormatError):
        oracle.min_length_table(PositFormat(), targets)


@pytest.mark.parametrize("fmt", [PositFormat(), TakumFormat()], ids=["posit", "takum"])
def test_min_length_table_counts_zero(fmt):
    assert oracle.min_length_table(fmt, [0, 1, -1]) == {0: 1, 1: 2, -1: 2}


def test_min_length_table_sweep():
    table = oracle.min_length_table(TakumFormat(), [1, 8, 9, 10])
    assert table == {1: 2, 8: 4, 9: 10, 10: 9}


def test_min_length_table_stops_at_last_target(decode_fault):
    calls = []

    def counting(u, n, value):
        calls.append((u, n))
        return value

    decode_fault(counting, posit)
    assert oracle.min_length_table(PositFormat(), [1]) == {1: 2}
    assert calls == [(0b01, 2)]  # 01 is 1: the sweep ends before 11


def test_verify_all_validation():
    with pytest.raises(FormatError):
        oracle.verify_all(max_n=4)
    with pytest.raises(FormatError):
        oracle.verify_all(max_m=0)


@pytest.mark.parametrize(
    "check",
    [lambda m: oracle.check_min_length(PositFormat(), m), oracle.check_round_trip],
    ids=["min_length", "round_trip"],
)
@pytest.mark.parametrize("max_m", [0, -1])
def test_length_checks_refuse_an_empty_range(check, max_m):
    with pytest.raises(FormatError, match=f"^max_m must be at least 1, got {max_m}$"):
        check(max_m)


WIDTH_SWEEPS = [
    oracle.check_posit_consecutive,
    oracle.check_takum_consecutive,
    oracle.check_negation_closure,
]


@pytest.mark.parametrize("check", WIDTH_SWEEPS, ids=["posit", "takum", "negation"])
def test_width_sweeps_refuse_an_empty_range(check):
    with pytest.raises(FormatError, match="^max_n must be at least 5, got 4$"):
        check(4)


@pytest.mark.parametrize("check", [oracle.check_negation_closure], ids=["negation"])
def test_width_sweeps_refuse_an_over_budget_range_before_any_decode(decode_fault, check):
    def refuse(*args):
        # Raising, not recording: the first decode ends what would be a 2^25-pattern sweep.
        raise AssertionError(f"enumeration started: {args}")

    decode_fault(refuse, posit, takum)
    detail = r"decodes 2\^25 patterns, past the budget of 16777216"
    with pytest.raises(BudgetError, match=f"^negation closure to n=25 {detail}$"):
        check(25)


def test_the_round_trip_budget_counts_the_patterns_each_family_decodes(monkeypatch):
    # |m| <= 49 is 2 * 49 + 1 = 99 patterns per family; 50 would be 101.
    monkeypatch.setattr(oracle, "MAX_DECODES", 99)
    assert oracle.check_round_trip(49).passed
    detail = r"decodes 2\|m\| \+ 1 patterns per family, past the budget of 99"
    with pytest.raises(BudgetError, match=rf"^round trip to \|m\|=50 {detail}$"):
        oracle.check_round_trip(50)


def test_the_min_length_check_refuses_past_the_budget_before_any_decode(
    monkeypatch, decode_fault
):
    count = 0

    def counting(u, n, value):
        nonlocal count
        count += 1
        return value

    decode_fault(counting, posit, takum)
    monkeypatch.setattr(oracle, "MAX_DECODES", 99)
    detail = "decodes a pattern per m, past the budget of 99"
    with pytest.raises(BudgetError, match=f"^posit min-length to m=100 {detail}$"):
        oracle.check_min_length(PositFormat(), 100)
    assert count == 0


def test_verify_all_small_budget_passes():
    results = oracle.verify_all(max_n=8, max_m=64)
    assert all(r.passed for r in results)
    notes = [r for r in results if r.note]
    assert len(notes) == 1
    assert "the brute-force oracle over the 8-bit patterns gives 16" in notes[0].detail


@pytest.mark.parametrize("fmt", [PositFormat(), TakumFormat()], ids=["posit", "takum"])
def test_check_min_length_catches_mutated_formula(monkeypatch, fmt):
    true_formula = fmt.codec.min_length
    monkeypatch.setattr(fmt.codec, "min_length", lambda m: true_formula(m) + (m == 7))
    result = oracle.check_min_length(fmt, 16)
    assert not result.passed
    assert "m=7" in result.detail


def test_check_min_length_climbs_a_missing_target_to_the_256_bit_ceiling(decode_fault):
    # 011 is the only odd pattern of 16, so with it hidden no width has 16;
    # the table takes no bound from the formula, so it climbs to
    # DEFAULT_MAX_BITS: 21 decodes to width 8, then two gaps round 16 a width.
    calls = 0

    def hiding(u, n, value):
        nonlocal calls
        calls += 1
        return None if (u, n) == (0b011, 3) else value

    decode_fault(hiding, posit)
    result = oracle.check_min_length(PositFormat(), 16)
    assert result.detail == "m=16: formula 3, oracle None"
    assert not result.passed
    assert calls == 21 + 2 * (256 - 8)


@pytest.mark.parametrize(
    "module,check,budget,named",
    [
        (posit, oracle.check_posit_consecutive, {"max_n": 6}, "n=5"),
        (takum, oracle.check_takum_consecutive, {"max_n": 6}, "n=5"),
        (minifloat, oracle.check_minifloat_consecutive, {}, "float16"),
    ],
    ids=["posit", "takum", "minifloat"],
)
def test_check_takum_consecutive_catches_mutated_formula(monkeypatch, module, check, budget, named):
    true_formula = module.largest_consecutive
    monkeypatch.setattr(module, "largest_consecutive", lambda n: 2 * true_formula(n))
    result = check(**budget)
    assert not result.passed
    assert result.detail.startswith(named + ":")


@pytest.mark.parametrize(
    "module,overrides,named",
    [
        # 111011 is -(000101): corrupting it breaks 000101's negation.
        (posit, {0b111011: (-1, 3, -8)}, "posit pattern 000101"),
        # 000101 is NaR while 111011 stays finite, so the pair fails.
        (takum, {0b000101: None}, "takum pattern 000101"),
        # Neither value is finite and nonzero, yet zero's negative is not NaR.
        (takum, {0b000101: (1, 0, 0), 0b111011: None}, "takum pattern 000101"),
        # Zero's and NaR's patterns are their own two's complements, so
        # neither may be finite and nonzero.
        (takum, {0b000000: (1, 1, 0)}, "takum pattern 000000"),
        (posit, {0b100000: (1, 1, 0)}, "posit pattern 100000"),
        # Each is its own negative, so only their names tell them apart.
        (posit, {0b000000: None, 0b100000: (1, 0, 0)}, "posit pattern 000000"),
    ],
    ids=["negative-half", "positive-half-nar", "zero-and-nar", "zero", "nar", "zero-nar-swapped"],
)
def test_check_negation_closure_catches_mutated_kernel(decode_fault, module, overrides, named):
    decode_fault(lambda u, n, value: overrides[u] if n == 6 and u in overrides else value, module)
    result = oracle.check_negation_closure(6)
    assert not result.passed
    assert result.detail == named + " at n=6"


@pytest.mark.parametrize(
    "module,m,replacement,named",
    [
        (posit, 5, None, "posit m=5 decoded to NaR"),
        (posit, 5, (1, 3, -1), "posit m=5 decoded to 3*2^-1"),
        (takum, -7, (-1, 3, 1), "takum m=-7 decoded to -6"),
    ],
    ids=["nar", "fraction", "wrong-integer"],
)
def test_check_round_trip_names_the_first_wrong_decode(decode_fault, module, m, replacement, named):
    bits = module.encode_integer(m)
    spot = (bits.uint, bits.width)
    decode_fault(lambda u, n, value: replacement if (u, n) == spot else value, module)
    result = oracle.check_round_trip(16)
    assert not result.passed
    assert result.detail == named
