import ast
import inspect
import pickle
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import intrep
from intrep import (
    PRESETS,
    BitString,
    BudgetError,
    CapacityError,
    DomainError,
    DyadicValue,
    FormatError,
    MinifloatSpec,
    PositFormat,
    TakumFormat,
    cli,
    formats,
    integer_profile,
    minifloat,
    oracle,
    parse_format,
    posit,
    takum,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("posit", PositFormat()),
        ("posit8", PositFormat(8)),
        ("posit128", PositFormat(128)),
        ("takum", TakumFormat()),
        ("takum12", TakumFormat(12)),
        ("TAKUM16", TakumFormat(16)),
        (" e4m3 ", PRESETS["e4m3"]),
        ("E5M2", PRESETS["e5m2"]),
        ("float16", PRESETS["float16"]),
        ("bfloat16", PRESETS["bfloat16"]),
        ("float128", PRESETS["float128"]),
    ],
)
def test_parse_format(text, expected):
    assert parse_format(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        *["", "posit2", "takum4", "float8", "posit0", "p8", "takumx", 8, None],
        pytest.param("posit" + "9" * 5000, id="posit-width-past-the-digit-limit"),
    ],
)
def test_parse_format_rejects(digit_limit, text):
    with pytest.raises(FormatError):
        parse_format(text)


def test_width_floors():
    with pytest.raises(FormatError):
        PositFormat(2)
    with pytest.raises(FormatError):
        TakumFormat(4)
    assert PositFormat(3).n == 3
    assert TakumFormat(5).n == 5


@pytest.mark.parametrize(
    "name",
    ["posit", "posit8", "takum", "takum64", "e4m3", "e5m2", "float16", "bfloat16", "float64"],
)
def test_format_name_round_trip(name):
    assert parse_format(name).name == name


def test_format_name_custom_minifloat():
    spec = MinifloatSpec(3, 2, 3)
    assert spec.name == "minifloat(e=3,f=2,bias=3,ieee)"


def test_handles_are_immutable_values():
    assert PositFormat(16) != TakumFormat(16)
    assert PositFormat(16) == PositFormat(n=16)
    assert hash(PositFormat(16)) == hash(PositFormat(n=16))
    assert MinifloatSpec(5, 10, 15) == PRESETS["float16"]
    assert hash(MinifloatSpec(5, 10, 15)) == hash(PRESETS["float16"])
    assert repr(PositFormat(16)) == "PositFormat(n=16)"
    assert repr(TakumFormat()) == "TakumFormat(n=None)"
    assert repr(PRESETS["e5m2"]) == (
        "MinifloatSpec(exponent_bits=5, fraction_bits=2, bias=15, "
        "special=<SpecialValues.IEEE: 'ieee'>)"
    )
    e4m3 = PRESETS["e4m3"]
    for handle, field in ((PositFormat(16), "n"), (e4m3, "bias"), (e4m3, "_layout")):
        with pytest.raises(AttributeError):
            setattr(handle, field, 0)
        with pytest.raises(AttributeError):
            delattr(handle, field)
        with pytest.raises(AttributeError):
            handle.other = 0


@pytest.mark.parametrize(
    "fmt", [PositFormat(), TakumFormat(12), *PRESETS.values()], ids=lambda fmt: fmt.name
)
def test_handles_pickle(fmt):
    copy = pickle.loads(pickle.dumps(fmt))
    assert type(copy) is type(fmt) and copy == fmt
    # A minifloat's decode layout is rebuilt by the constructor, not pickled.
    n = fmt.width or 8
    assert list(copy.ladder_decode(n, range(256))) == list(fmt.ladder_decode(n, range(256)))


def test_format_width():
    assert PositFormat().width is None
    assert PositFormat(8).width == 8
    assert PRESETS["e4m3"].width == 8
    assert PRESETS["float128"].width == 128


def test_resolve_width():
    assert formats.resolve_width(PositFormat(8)) == 8
    assert formats.resolve_width(PositFormat(8), 8) == 8
    assert formats.resolve_width(PositFormat(), 16) == 16
    assert formats.resolve_width(PRESETS["e4m3"], 8) == 8
    with pytest.raises(FormatError):
        formats.resolve_width(PositFormat(8), 16)
    with pytest.raises(FormatError):
        formats.resolve_width(PositFormat())
    with pytest.raises(FormatError):
        formats.resolve_width(PRESETS["e4m3"], 9)
    # No handle has a width below 1, so that is refused before any comparison.
    for fmt in (PositFormat(8), PRESETS["e4m3"]):
        with pytest.raises(FormatError, match="^width must be at least 1, got 0$"):
            formats.resolve_width(fmt, 0)


@pytest.mark.parametrize("fmt,n", [(PositFormat(), 2), (TakumFormat(), 4)], ids=["posit", "takum"])
@pytest.mark.parametrize(
    "entry",
    [
        formats.resolve_width,
        lambda fmt, n: fmt.closed_form(n),
        oracle.largest_consecutive,
        lambda fmt, n: oracle.representable_set(fmt, n, window=10),
        lambda fmt, n: fmt.codec.largest_consecutive(n),
        lambda fmt, n: fmt.codec.exponent_range(n),
    ],
    ids=[
        "resolve_width",
        "closed_form",
        "oracle.largest_consecutive",
        "oracle.representable_set",
        "codec.largest_consecutive",
        "codec.exponent_range",
    ],
)
def test_explicit_width_below_floor_is_a_format_error(entry, fmt, n):
    # A bare handle given a width refuses exactly what the handle built at
    # that width refuses, with the same error type and text.
    with pytest.raises(FormatError) as built:
        type(fmt)(n)
    with pytest.raises(FormatError) as given:
        entry(fmt, n)
    assert str(given.value) == str(built.value)


@pytest.mark.parametrize(
    "call,name,value",
    [
        pytest.param(lambda: PositFormat(8.0), "posit width", 8.0, id="PositFormat-float"),
        pytest.param(lambda: TakumFormat(16.5), "takum width", 16.5, id="TakumFormat-float"),
        pytest.param(lambda: PositFormat("8"), "posit width", "8", id="PositFormat-str"),
        pytest.param(lambda: PositFormat(True), "posit width", True, id="PositFormat-bool"),
        pytest.param(
            lambda: formats.resolve_width(PositFormat(8), 8.0), "width", 8.0, id="resolve_width"
        ),
        pytest.param(lambda: PRESETS["e4m3"].closed_form(8.0), "width", 8.0, id="e4m3.closed_form"),
        pytest.param(lambda: oracle.check_round_trip(True), "max_m", True, id="check_round_trip"),
        pytest.param(
            lambda: oracle.check_min_length(PositFormat(), 2.5), "max_m", 2.5, id="check_min_length"
        ),
        pytest.param(lambda: oracle.verify_all(max_n=16.0), "max_n", 16.0, id="verify_all"),
        pytest.param(
            lambda: oracle.check_negation_closure(5.0), "max_n", 5.0, id="check_negation_closure"
        ),
        pytest.param(
            lambda: oracle.representable_set(PositFormat(8), window=2.0),
            "window",
            2.0,
            id="representable_set",
        ),
        pytest.param(
            lambda: oracle.min_length_table(PositFormat(), [1, 2.0]),
            "target",
            2.0,
            id="min_length_table",
        ),
        pytest.param(
            lambda: posit.largest_consecutive(8.0), "posit width", 8.0, id="posit.largest_consecutive"
        ),
        pytest.param(lambda: takum.exponent_range(5.0), "takum width", 5.0, id="takum.exponent_range"),
        pytest.param(lambda: posit.decode_uint(1, 8.0), "width", 8.0, id="posit.decode_uint"),
        pytest.param(lambda: takum.decode_uint(1, True), "width", True, id="takum.decode_uint"),
        pytest.param(
            lambda: list(posit.decode_uints([1], 8.0)), "width", 8.0, id="posit.decode_uints"
        ),
        pytest.param(
            lambda: list(TakumFormat().ladder_decode(8.0, [1])),
            "width",
            8.0,
            id="TakumFormat.ladder_decode",
        ),
        pytest.param(
            lambda: PositFormat(8).ladder_decode("8", [1]),
            "width",
            "8",
            id="posit8.ladder_decode-str",
        ),
        pytest.param(
            lambda: TakumFormat(12).ladder_decode(None, [1]),
            "width",
            None,
            id="takum12.ladder_decode-None",
        ),
        pytest.param(
            lambda: PRESETS["e4m3"].ladder_decode(8.0, [1]), "width", 8.0, id="e4m3.ladder_decode"
        ),
        pytest.param(
            lambda: formats.signed_integer_count(1.0), "width", 1.0, id="signed_integer_count"
        ),
        pytest.param(lambda: cli.figure_rows(5.0, 8), "n_min", 5.0, id="figure_rows-n_min"),
        pytest.param(lambda: cli.figure_rows(5, "8"), "n_max", "8", id="figure_rows-n_max"),
        pytest.param(lambda: posit.encode_uint(3, 7.5), "max_bits", 7.5, id="posit.encode_uint"),
        pytest.param(
            lambda: takum.encode_integer(3, True), "max_bits", True, id="takum.encode_integer"
        ),
        pytest.param(lambda: posit.min_length(True), "m", True, id="posit.min_length-bool"),
        pytest.param(lambda: takum.min_length(2.0), "m", 2.0, id="takum.min_length-float"),
        pytest.param(lambda: posit.min_length(0.0), "m", 0.0, id="posit.min_length-zero-float"),
        pytest.param(lambda: posit.encode_uint(True), "m", True, id="posit.encode_uint-m"),
        pytest.param(lambda: posit.encode_uint(2.0), "m", 2.0, id="posit.encode_uint-m-float"),
        pytest.param(lambda: takum.encode_integer(2.0), "m", 2.0, id="takum.encode_integer-m"),
        pytest.param(lambda: integer_profile(2.0), "m", 2.0, id="integer_profile"),
        pytest.param(lambda: BitString.from_uint(1, True), "width", True, id="from_uint-width"),
        pytest.param(lambda: BitString.from_uint(1.0, 8), "value", 1.0, id="from_uint-value"),
        pytest.param(lambda: BitString.from_uint(True, 8), "value", True, id="from_uint-bool"),
        pytest.param(lambda: BitString.from_uint(1, 8.0), "width", 8.0, id="from_uint-width-float"),
        pytest.param(
            lambda: posit.non_fraction_bits(1.5), "exponent", 1.5, id="posit.non_fraction_bits"
        ),
        pytest.param(
            lambda: posit.non_fraction_bits(True),
            "exponent",
            True,
            id="posit.non_fraction_bits-bool",
        ),
        pytest.param(
            lambda: minifloat.non_fraction_bits(PRESETS["e4m3"], 1.5),
            "exponent",
            1.5,
            id="minifloat.non_fraction_bits",
        ),
        pytest.param(
            lambda: takum.non_fraction_bits(1.5), "exponent", 1.5, id="takum.non_fraction_bits"
        ),
        pytest.param(lambda: cli.render_magnitude(1.0), "value", 1.0, id="render_magnitude"),
        pytest.param(
            lambda: cli.render_magnitude(float("nan")),
            "value",
            float("nan"),
            id="render_magnitude-nan",
        ),
    ],
)
def test_a_width_budget_or_window_that_is_not_an_integer_is_a_format_error(call, name, value):
    # Before any work, and in one text naming the argument: a float or a
    # bool would otherwise name a handle "posit8.0" or bound a range by True.
    with pytest.raises(FormatError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call()


@pytest.mark.parametrize(
    "call,name,floor,value",
    [
        pytest.param(lambda: posit.decode_uint(1, 0), "width", 1, 0, id="posit.decode_uint"),
        pytest.param(lambda: takum.decode_uint(1, 0), "width", 1, 0, id="takum.decode_uint"),
        # At the call, before any pattern is drawn: the batch is lazy, its refusal is not.
        pytest.param(lambda: posit.decode_uints([], 0), "width", 1, 0, id="posit.decode_uints"),
        pytest.param(lambda: takum.decode_uints([], -2), "width", 1, -2, id="takum.decode_uints"),
        pytest.param(lambda: BitString.from_uint(0, 0), "width", 1, 0, id="from_uint"),
        pytest.param(
            lambda: PRESETS["e4m3"].ladder_decode(0, [1]), "width", 1, 0, id="e4m3.ladder_decode"
        ),
        pytest.param(
            lambda: formats.signed_integer_count(0), "width", 1, 0, id="signed_integer_count"
        ),
        pytest.param(lambda: posit.encode_uint(5, -1), "max_bits", 0, -1, id="posit.encode_uint"),
        pytest.param(
            lambda: takum.encode_integer(5, -1), "max_bits", 0, -1, id="takum.encode_integer"
        ),
    ],
)
def test_a_width_or_budget_below_its_floor_is_a_format_error(call, name, floor, value):
    # The floor each guard names to check_int, in check_int's one text: not
    # "u does not fit in n bits", and not the budget's CapacityError.
    with pytest.raises(ValueError) as refusal:
        call()
    assert type(refusal.value) is FormatError
    assert str(refusal.value) == f"{name} must be at least {floor}, got {value}"


@pytest.mark.parametrize(
    "call,text",
    [
        pytest.param(
            lambda: takum.lambert_w0("8"),
            "lambert_w0 needs finite x >= 0, got '8'",
            id="lambert_w0-str",
        ),
        pytest.param(
            lambda: takum.lambert_w0(None),
            "lambert_w0 needs finite x >= 0, got None",
            id="lambert_w0-None",
        ),
        pytest.param(
            lambda: DyadicValue.from_mantissa(1, 1.0, 0),
            "from_mantissa needs an int numerator, got 1.0",
            id="from_mantissa-float",
        ),
    ],
)
def test_an_argument_of_the_wrong_type_is_a_domain_error(call, text):
    # Refused in the domain's own text, not as the TypeError of the first
    # comparison or shift the argument reaches.
    with pytest.raises(ValueError) as refusal:
        call()
    assert type(refusal.value) is DomainError
    assert str(refusal.value) == text


HUGE = 1 << 20000  # 6,021 decimal digits, past CPython's default limit of 4,300


@pytest.fixture
def digit_limit():
    """CPython's default int-to-str limit, whatever PYTHONINTMAXSTRDIGITS says."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "call,error,article",
    [
        pytest.param(lambda: takum.min_length(HUGE), DomainError, "a", id="takum.min_length"),
        pytest.param(lambda: posit.encode_uint(HUGE), CapacityError, "a", id="posit.encode_uint"),
        pytest.param(
            lambda: takum.encode_integer(-HUGE),
            DomainError,
            "a negative",
            id="takum.encode_integer",
        ),
        pytest.param(lambda: BitString.from_uint(HUGE, 8), FormatError, "a", id="from_uint"),
        pytest.param(lambda: posit.decode_uint(HUGE, 8), FormatError, "a", id="posit.decode_uint"),
        pytest.param(lambda: takum.decode_uint(HUGE, 8), FormatError, "a", id="takum.decode_uint"),
        pytest.param(
            lambda: minifloat.decode_uint(PRESETS["e4m3"], HUGE),
            FormatError,
            "a",
            id="minifloat.decode_uint",
        ),
        pytest.param(lambda: PositFormat(-HUGE), FormatError, "a negative", id="PositFormat"),
        pytest.param(
            lambda: posit.largest_consecutive(-HUGE),
            FormatError,
            "a negative",
            id="posit.largest_consecutive",
        ),
        pytest.param(
            lambda: formats.resolve_width(PositFormat(8), HUGE),
            FormatError,
            "a",
            id="resolve_width",
        ),
        pytest.param(lambda: DyadicValue(1, HUGE, 0), DomainError, "a", id="DyadicValue"),
        pytest.param(
            lambda: intrep.cli._needed_bits(PositFormat(8), HUGE),
            CapacityError,
            "a",
            id="cli._needed_bits",
        ),
        pytest.param(lambda: cli.figure_rows(5, HUGE), FormatError, "a", id="cli.figure_rows"),
        pytest.param(lambda: BitString(HUGE), FormatError, "a", id="BitString"),
        pytest.param(
            lambda: takum.consecutive_exponent_analytic(HUGE),
            DomainError,
            "a",
            id="takum.consecutive_exponent_analytic",
        ),
        pytest.param(
            lambda: oracle.check_round_trip(HUGE), BudgetError, "a", id="check_round_trip"
        ),
        pytest.param(
            lambda: oracle.check_min_length(PositFormat(), HUGE),
            BudgetError,
            "a",
            id="check_min_length",
        ),
        pytest.param(lambda: oracle.verify_all(16, HUGE), BudgetError, "a", id="verify_all"),
    ],
)
def test_a_refusal_of_an_integer_past_the_digit_limit_keeps_its_type(
    digit_limit, call, error, article
):
    # The refusal names the integer by its bit length where its decimal would
    # raise an untyped ValueError of its own.
    with pytest.raises(ValueError) as refusal:
        call()
    assert type(refusal.value) is error
    assert f"{article} 20001-bit integer" in str(refusal.value)


TAPERED = pytest.mark.parametrize("fmt", [PositFormat(), TakumFormat()], ids=["posit", "takum"])


def decode_each(fmt, n: int, patterns) -> list:
    """The reference path: the codec's decode_uint, one pattern at a time."""
    if isinstance(fmt, MinifloatSpec):
        return [minifloat.decode_uint(fmt, u) for u in patterns]
    return [fmt.codec.decode_uint(u, n) for u in patterns]


@TAPERED
def test_batch_decode_agrees_on_every_short_pattern(fmt):
    for n in range(1, 17):
        patterns = range(1 << n)
        assert list(fmt.ladder_decode(n, patterns)) == decode_each(fmt, n, patterns), n


@TAPERED
def test_batch_decode_agrees_on_random_wide_patterns(fmt):
    rng = random.Random(15)
    for n in range(17, 1025):
        patterns = [rng.getrandbits(n) for _ in range(6)] + [0, 1 << (n - 1), (1 << n) - 1]
        assert list(fmt.ladder_decode(n, patterns)) == decode_each(fmt, n, patterns), n


@pytest.mark.parametrize("name", ["float16", "bfloat16", "e4m3", "e5m2", "float32", "float64"])
def test_batch_decode_agrees_on_minifloat_patterns(name):
    spec = PRESETS[name]
    n = spec.width
    if n <= 16:
        patterns = range(1 << n)
    else:
        rng = random.Random(name)
        patterns = [rng.getrandbits(n) for _ in range(5000)]
    assert list(minifloat.decode_uints(spec, patterns)) == decode_each(spec, n, patterns)


@TAPERED
@pytest.mark.parametrize("n,u", [(4, 16), (4, -1), (13, 1 << 13), (0, 0), (0, 1), (-3, 5)])
def test_batch_decode_refuses_what_decode_uint_refuses(fmt, n, u):
    with pytest.raises(FormatError) as single:
        fmt.codec.decode_uint(u, n)
    with pytest.raises(FormatError) as batch:
        list(fmt.ladder_decode(n, [u]))
    text = f"{u} does not fit in {n} bits" if n >= 1 else f"width must be at least 1, got {n}"
    assert str(batch.value) == str(single.value) == text


@pytest.mark.parametrize("u", [16, -1])
def test_minifloat_batch_decode_refuses_what_decode_uint_refuses(u):
    spec = MinifloatSpec(2, 1, 1)
    with pytest.raises(FormatError) as single:
        minifloat.decode_uint(spec, u)
    with pytest.raises(FormatError) as batch:
        list(minifloat.decode_uints(spec, [u]))
    assert str(batch.value) == str(single.value) == f"{u} does not fit in 4 bits"


@pytest.mark.parametrize("u", [16, 17, -1])
def test_the_minifloat_ladder_refuses_a_pattern_outside_its_width(u):
    # In the tapered ladders' text, and as the pattern is drawn: 16 would
    # otherwise decode as the spec's zero, and 17 or -1 be refused in the
    # text of the spec pattern they map to.
    values = PRESETS["e4m3"].ladder_decode(4, [u])
    with pytest.raises(FormatError, match=f"^{u} does not fit in 4 bits$"):
        list(values)


@pytest.mark.parametrize("name,n", [("float16", 8), ("e4m3", 16), ("bfloat16", 15), ("e4m3", 9)])
def test_a_minifloat_refuses_a_width_not_its_own(name, n):
    # The width is intrinsic to the spec: an n-bit closed form would silently
    # answer for the spec's width.  Its ladder decodes the narrower widths
    # the gap ladder climbs through, but no pattern wider than the spec.
    spec = PRESETS[name]
    with pytest.raises(FormatError, match=f"^width {n} conflicts with {name}$"):
        spec.closed_form(n)
    wider = max(n, spec.width + 1)
    with pytest.raises(FormatError, match=f"^width {wider} conflicts with {name}$"):
        spec.ladder_decode(wider, [1])


@pytest.mark.parametrize("name,wider,narrower,run", [("posit8", 16, 5, 16), ("takum12", 13, 7, 64)])
def test_a_sized_tapered_handle_refuses_a_width_not_its_own(name, wider, narrower, run):
    # A closed form answers for the handle's width only, and patterns wider
    # than the handle are not its patterns; narrower ones still decode, as
    # the gap ladder climbs through them.
    fmt = parse_format(name)
    with pytest.raises(FormatError, match=f"^width {wider} conflicts with {name}$"):
        fmt.ladder_decode(wider, [(1 << (wider - 1)) - 1])
    for n in (wider, narrower):
        with pytest.raises(FormatError, match=f"^width {n} conflicts with {name}$"):
            fmt.closed_form(n)
    patterns = range(1 << narrower)
    expected = list(fmt.codec.decode_uints(patterns, narrower))
    assert list(fmt.ladder_decode(narrower, patterns)) == expected
    report = oracle.largest_consecutive(fmt)
    assert (report.value, report.agreement) == (run, True)


def test_decode_dispatch():
    assert formats.decode(PositFormat(8), BitString("011")) == DyadicValue.from_mantissa(1, 16, 0)
    assert formats.decode(TakumFormat(12), BitString("0101")) == DyadicValue.from_mantissa(1, 8, 0)
    e4m3_448 = formats.decode(PRESETS["e4m3"], BitString("01111110"))
    assert e4m3_448 == DyadicValue.from_mantissa(1, 448, 0)
    # A family handle without a width decodes any length.
    assert formats.decode(PositFormat(), BitString("0" * 60 + "1")).is_finite


def test_decode_polices_width():
    with pytest.raises(FormatError, match="^width 9 conflicts with posit8$"):
        formats.decode(PositFormat(8), BitString("010000000"))
    with pytest.raises(FormatError, match="^width 6 conflicts with takum5$"):
        formats.decode(TakumFormat(5), BitString("010011"))
    with pytest.raises(FormatError, match="^width 4 conflicts with e4m3$"):
        formats.decode(PRESETS["e4m3"], BitString("0111"))


def test_closed_form_resolves_the_handles_width():
    assert PositFormat(8).closed_form() == 16
    assert PositFormat().closed_form(8) == 16
    assert TakumFormat().closed_form(12) == 64
    assert PRESETS["e4m3"].closed_form() == 16
    assert PRESETS["e4m3"].closed_form(8) == 16
    with pytest.raises(FormatError):
        PRESETS["e4m3"].closed_form(9)
    with pytest.raises(FormatError, match="^posit needs an explicit width$"):
        PositFormat().closed_form()


@pytest.mark.parametrize("fmt", [PositFormat(), TakumFormat()], ids=["posit", "takum"])
def test_largest_consecutive_is_the_last_fitting_integer(fmt):
    # k = largest_consecutive(n) fits in n bits and k + 1 needs more, at every
    # width the figure sweeps; past the takum exponent range, 2^255 fits nowhere.
    codec = fmt.codec
    for n in range(5, 1025):
        k = codec.largest_consecutive(n)
        assert codec.min_length(k) <= n, n
        try:
            assert codec.min_length(k + 1) > n, n
        except DomainError:
            assert fmt == TakumFormat() and k + 1 == 1 << 255, n


@pytest.mark.parametrize(
    "module,name,bits",
    [(posit, "posit8", "011"), (takum, "takum", "0101"), (minifloat, "e4m3", "01111110")],
)
def test_decode_looks_up_the_family_decode_at_each_call(capsys, monkeypatch, module, name, bits):
    # formats.decode, and the CLI's decode through it, reach the family's
    # module-level decode at call time, so a wrapper set on the module (a
    # tracer's span, an injected fault) sees every decode.
    sentinel = "decoded by the wrapper"
    monkeypatch.setattr(module, "decode", lambda *args: sentinel)
    assert formats.decode(parse_format(name), BitString(bits)) == sentinel
    assert cli.main(["decode", "--format", name, "--bits", bits]) == 0
    assert capsys.readouterr().out == sentinel + "\n"


def test_no_family_dispatch_outside_formats():
    # Callers go through the handle's members; no module, formats.py
    # included, asks which family a handle belongs to, neither by isinstance
    # nor by probing a member in a try and reading its refusal as the answer.
    families = {"PositFormat", "TakumFormat", "MinifloatSpec"}
    found = []
    for path in sorted(Path(intrep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Try) and any(
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Attribute)
                for stmt in node.body
            ):
                found.append((path.name, node.lineno))
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
                continue
            if len(node.args) == 2 and families & {
                getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])
            }:
                found.append((path.name, node.lineno))
    assert found == []


def test_every_definition_has_a_reader():
    # Each function and class in the package is named somewhere besides its
    # definition: in the package, the README, or the benchmark harness.
    # Names only the tests read are surface nobody needs.
    repo = Path(__file__).parents[1]
    sources = sorted(Path(intrep.__file__).parent.glob("*.py"))
    harness = [p for p in (repo / "perfbench").iterdir() if p.is_file()]
    readers = [*sources, repo / "README.md", *(p for p in harness if not p.name.startswith("test_"))]
    words = Counter(word for path in readers for word in re.findall(r"\w+", path.read_text()))
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {
        node.name
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, definitions) and not node.name.startswith("__")
    }
    unread = sorted(name for name in names if words[name] < 2)
    assert unread == []


def test_only_core_refuses_a_width_a_handle_does_not_have():
    # core.check_width and resolve_width are the width rule of every handle;
    # the refusal's text anywhere else would be a second copy of the rule.
    sources = sorted(Path(intrep.__file__).parent.glob("*.py"))
    found = [path.name for path in sources if "conflicts with" in path.read_text()]
    assert found == ["core.py"]


def test_only_core_refuses_a_pattern_too_wide_for_its_width():
    # core.does_not_fit is the refusal of every kernel, BitString.from_uint
    # and the minifloat ladder; its text anywhere else would be a second copy.
    sources = sorted(Path(intrep.__file__).parent.glob("*.py"))
    found = [path.name for path in sources if "does not fit in" in path.read_text()]
    assert found == ["core.py"]


def test_every_handle_has_the_same_operations():
    # One interface per family: the same public methods on every handle, and
    # besides them name, width and codec; other members describe its shape.
    handles = [PositFormat(), TakumFormat(8), *PRESETS.values()]
    operations = {"closed_form", "decode", "ladder_decode", "precision_profile"}
    public = [{name for name in dir(type(h)) if not name.startswith("_")} for h in handles]
    for handle, names in zip(handles, public):
        methods = {name for name in names if inspect.isfunction(getattr(type(handle), name))}
        assert methods == operations, handle.name
    assert set.intersection(*public) == {*operations, "name", "width", "codec"}
