import re

import pytest

from intrep import (
    PRESETS,
    BitString,
    BudgetError,
    DomainError,
    DyadicValue,
    FormatError,
    MinifloatSpec,
    SpecialValues,
    minifloat,
    oracle,
)


def value(sign, numerator, exponent2):
    return DyadicValue.from_mantissa(sign, numerator, exponent2)


def test_preset_shapes():
    assert PRESETS["float16"] == MinifloatSpec(5, 10, 15)
    assert PRESETS["bfloat16"] == MinifloatSpec(8, 7, 127)
    assert PRESETS["float32"] == MinifloatSpec(8, 23, 127)
    assert PRESETS["float64"] == MinifloatSpec(11, 52, 1023)
    assert PRESETS["float128"] == MinifloatSpec(15, 112, 16383)
    assert PRESETS["e4m3"] == MinifloatSpec(4, 3, 7, SpecialValues.E4M3)
    assert PRESETS["e5m2"] == MinifloatSpec(5, 2, 15)


def test_preset_widths():
    widths = {name: spec.width for name, spec in PRESETS.items()}
    assert widths == {
        "float16": 16,
        "bfloat16": 16,
        "float32": 32,
        "float64": 64,
        "float128": 128,
        "e4m3": 8,
        "e5m2": 8,
    }


DECODE_CASES = [
    # e4m3: no infinities, single NaN pattern per sign at all-ones exp+frac
    ("e4m3", "00000000", DyadicValue.zero()),
    ("e4m3", "10000000", DyadicValue.zero()),
    ("e4m3", "01111110", value(1, 448, 0)),  # largest finite
    ("e4m3", "01111111", DyadicValue.nar()),
    ("e4m3", "11111111", DyadicValue.nar()),
    ("e4m3", "11111110", value(-1, 448, 0)),
    ("e4m3", "00000001", value(1, 1, -9)),  # smallest subnormal
    ("e4m3", "00001000", value(1, 1, -6)),  # smallest normal
    ("e4m3", "00111000", value(1, 1, 0)),  # one
    # e5m2: IEEE specials, all-ones exponent is NaR (inf and NaN alike)
    ("e5m2", "01111100", DyadicValue.nar()),
    ("e5m2", "01111101", DyadicValue.nar()),
    ("e5m2", "01111011", value(1, 57344, 0)),  # largest finite
    ("e5m2", "00000001", value(1, 1, -16)),
    # float16
    ("float16", "0111101111111111", value(1, 65504, 0)),
    ("float16", "0000000000000001", value(1, 1, -24)),
    ("float16", "0111110000000000", DyadicValue.nar()),  # +inf
    ("float16", "0011110000000000", value(1, 1, 0)),
    # bfloat16
    ("bfloat16", "0011111110000000", value(1, 1, 0)),
    ("bfloat16", "1100000001000000", value(-1, 3, 0)),
]


@pytest.mark.parametrize("preset,bits,expected", DECODE_CASES)
def test_decode(preset, bits, expected):
    assert minifloat.decode(PRESETS[preset], BitString(bits)) == expected


def test_decode_requires_exact_width():
    with pytest.raises(FormatError):
        minifloat.decode(PRESETS["e4m3"], BitString("0111111"))
    with pytest.raises(FormatError):
        minifloat.decode(PRESETS["e4m3"], BitString("011111100"))


def test_all_ones_exponent_is_normal_without_specials():
    spec = MinifloatSpec(2, 1, 1, SpecialValues.NONE)
    assert minifloat.decode(spec, BitString("0111")) == value(1, 3, 1)  # 6
    assert spec.max_normal_exponent == 2


LARGEST_CONSECUTIVE_CASES = [
    ("float16", 2**11),
    ("bfloat16", 2**8),
    ("float32", 2**24),
    ("float64", 2**53),
    ("float128", 2**113),
    ("e4m3", 2**4),
    ("e5m2", 2**3),
]


@pytest.mark.parametrize("preset,expected", LARGEST_CONSECUTIVE_CASES)
def test_largest_consecutive(preset, expected):
    assert minifloat.largest_consecutive(PRESETS[preset]) == expected


def test_e4m3_exponent_reach():
    # The all-ones exponent still carries normal numbers; only the all-ones
    # fraction pattern there is the NaN.
    assert PRESETS["e4m3"].max_normal_exponent == 8
    assert PRESETS["e5m2"].max_normal_exponent == 15
    # Without fraction bits the lone NaN eats the entire top exponent.
    assert MinifloatSpec(4, 0, 7, SpecialValues.E4M3).max_normal_exponent == 7


def test_largest_consecutive_fallback_matches_enumeration():
    # min_normal_exponent = 1 > 0, so the closed form does not apply; only the
    # oracle answers: the integer ladder tops out at the largest finite value 7.
    tiny = MinifloatSpec(2, 2, 0)
    assert tiny.min_normal_exponent == 1
    with pytest.raises(DomainError):
        minifloat.largest_consecutive(tiny)
    report = oracle.largest_consecutive(tiny)
    assert report.value == 7
    assert report.agreement is None


def test_largest_consecutive_fallback_budget(monkeypatch):
    wide = MinifloatSpec(2, 25, 0)
    with pytest.raises(DomainError):
        minifloat.largest_consecutive(wide)
    # The real budget takes tens of seconds to spend on this shape's walk.
    monkeypatch.setattr(oracle, "MAX_DECODES", 300)
    with pytest.raises(BudgetError, match=r"decodes to width \d+, over the budget of 300$"):
        oracle.largest_consecutive(wide)


def test_closed_form_matches_enumeration_across_shapes():
    applies = refused = 0
    for exponent_bits in range(1, 4):
        for fraction_bits in range(0, 5):
            for bias in range(-2, 9):
                for special in SpecialValues:
                    spec = MinifloatSpec(exponent_bits, fraction_bits, bias, special)
                    target = fraction_bits + 1
                    if spec.min_normal_exponent <= 0 and spec.max_normal_exponent >= target:
                        expected = oracle.largest_consecutive(spec).value
                        assert minifloat.largest_consecutive(spec) == expected, spec
                        applies += 1
                    else:
                        with pytest.raises(DomainError):
                            minifloat.largest_consecutive(spec)
                        refused += 1
    assert applies and refused


def test_non_fraction_bits():
    f32 = PRESETS["float32"]
    assert minifloat.non_fraction_bits(f32, 0) == 9
    assert minifloat.non_fraction_bits(f32, 127) == 9
    assert minifloat.non_fraction_bits(f32, -126) == 9
    assert minifloat.non_fraction_bits(f32, -127) == 10  # one subnormal step
    assert minifloat.non_fraction_bits(f32, -149) == 32  # deepest subnormal
    with pytest.raises(FormatError):
        minifloat.non_fraction_bits(f32, -150)
    with pytest.raises(FormatError):
        minifloat.non_fraction_bits(f32, 128)


def test_exponent_domain():
    assert minifloat.exponent_domain(PRESETS["float16"]) == (-24, 15)
    assert minifloat.exponent_domain(PRESETS["float32"]) == (-149, 127)
    assert minifloat.exponent_domain(PRESETS["e4m3"]) == (-9, 8)


def test_invalid_shape_rejected():
    shape = (
        "MinifloatSpec(exponent_bits=0, fraction_bits=3, bias=1, "
        "special=<SpecialValues.IEEE: 'ieee'>)"
    )
    with pytest.raises(FormatError, match=re.escape(f"impossible minifloat shape: {shape}")):
        MinifloatSpec(0, 3, 1)
    with pytest.raises(FormatError):
        MinifloatSpec(4, -1, 1)
    # Malformed values that the arithmetic would otherwise take: "ieee" is
    # not SpecialValues.IEEE, so 01111000 would decode as 256, not +inf.
    for malformed in [(4, 3, 7, "ieee"), (4, 3, 7.5), (4.0, 3, 7), (True, 3, 7), (4, 3, False)]:
        with pytest.raises(FormatError, match="impossible minifloat shape"):
            MinifloatSpec(*malformed)
