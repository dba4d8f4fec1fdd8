import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intrep import (
    BitString,
    CapacityError,
    DomainError,
    DyadicValue,
    FormatError,
    oracle,
    posit,
    takum,
)
from intrep.formats import TakumFormat


def value(sign, numerator, exponent2):
    return DyadicValue.from_mantissa(sign, numerator, exponent2)


# Hand-decoded from the field layout: sign, direction, 3 regime bits,
# r characteristic bits, fraction, with ghost zeros past the end.
DECODE_CASES = [
    ("0", DyadicValue.zero()),
    ("1", DyadicValue.nar()),
    ("10", DyadicValue.nar()),
    ("000000000000", DyadicValue.zero()),
    ("100000000000", DyadicValue.nar()),
    ("01", value(1, 1, 0)),
    ("010010000000", value(1, 1, 1)),  # regime 001, characteristic 0 -> c=1
    ("01001", value(1, 1, 1)),
    ("0101", value(1, 1, 3)),  # regime 010, both characteristic bits ghost
    ("010011", value(1, 1, 2)),  # regime 001, characteristic 1 -> c=2
    ("0100101", value(1, 3, 0)),  # c=1, fraction 1 -> (1+1/2)*2 = 3
    ("01001101", value(1, 5, 0)),  # c=2, fraction 01 -> (1+1/4)*4 = 5
    ("0110", value(1, 1, 15)),  # regime 100 -> 4 characteristic bits, ghost
    ("00111", value(1, 1, -1)),  # direction 0, regime 111 -> c=-1
    ("0011", value(1, 1, -3)),  # direction 0, regime 110 -> c=-4+1+0=-3
    ("11", value(-1, 1, 0)),  # two's complement of "01" -> -1
    ("1011", value(-1, 1, 3)),  # two's complement of "0101" -> -8
    ("10111", value(-1, 1, 1)),  # two's complement of "01001" -> -2
]


@pytest.mark.parametrize("bits,expected", DECODE_CASES)
def test_decode(bits, expected):
    assert takum.decode(BitString(bits)) == expected


def test_decode_negative_characteristic_band():
    # direction 0, regime 110 -> one characteristic bit, c = -4 + 1 + C.
    assert takum.decode(BitString("00110")) == value(1, 1, -3)
    assert takum.decode(BitString("001101")) == value(1, 1, -2)
    assert takum.decode(BitString("00111")) == value(1, 1, -1)


ENCODE_CASES = [
    (1, "01"),
    (2, "01001"),
    (3, "0100101"),
    (4, "010011"),
    (5, "01001101"),
    (8, "0101"),
    (16, "0101001"),
    (12, "01010001"),
    (-1, "11"),
    (-8, "1011"),
]


@pytest.mark.parametrize("m,bits", ENCODE_CASES)
def test_encode_integer(m, bits):
    assert str(takum.encode_integer(m)) == bits


def test_encode_zero_is_single_bit():
    assert str(takum.encode_integer(0)) == "0"


def test_encode_zero_respects_the_budget():
    assert str(takum.encode_integer(0, 1)) == "0"
    with pytest.raises(CapacityError, match="needs 1 takum bits, more than max_bits=0"):
        takum.encode_integer(0, 0)


MIN_LENGTH_CASES = [
    (0, 1),  # the 1-bit pattern "0"
    (1, 2),
    (2, 5),
    (3, 7),
    (4, 6),
    (8, 4),
    (16, 7),
    (5, 8),
    # Regression: the characteristic-truncation savings only apply when the
    # fraction is empty, even though the bit length is a power of two here.
    (9, 10),
    (10, 9),
    (12, 8),
]


@pytest.mark.parametrize("m,length", MIN_LENGTH_CASES)
def test_min_length(m, length):
    assert takum.min_length(m) == length
    assert takum.min_length(-m) == length


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "magnitude,length", [(1 << 254, 12), ((1 << 254) + 1, 266), ((1 << 255) - 1, 266)]
)
def test_magnitude_range(magnitude, length, sign):
    # Exponents reach 254, so every integer below 2^255 in magnitude is
    # representable, given enough fraction bits.
    m = sign * magnitude
    assert takum.min_length(m) == length
    bits = takum.encode_integer(m, max_bits=length)
    assert bits.width == length
    assert takum.decode(bits) == DyadicValue.from_mantissa(1 if m > 0 else -1, abs(m), 0)


@pytest.mark.parametrize("m", [1 << 255, -(1 << 255)])
def test_magnitude_out_of_range(m):
    with pytest.raises(DomainError):
        takum.min_length(m)
    with pytest.raises(DomainError):
        takum.encode_integer(m, max_bits=1000)


def test_encode_capacity():
    with pytest.raises(CapacityError):
        takum.encode_integer(3, max_bits=6)
    assert str(takum.encode_integer(3, max_bits=7)) == "0100101"


LARGEST_CONSECUTIVE_CASES = [
    (5, 2),
    (8, 2**3),
    (12, 2**6),
    (16, 2**9),
    (32, 2**24),
    (64, 2**55),
    (128, 2**118),
]


@pytest.mark.parametrize("n,expected", LARGEST_CONSECUTIVE_CASES)
def test_largest_consecutive(n, expected):
    assert takum.largest_consecutive(n) == expected


def test_largest_consecutive_domain():
    with pytest.raises(FormatError):
        takum.largest_consecutive(4)


def test_largest_consecutive_stops_at_the_exponent_cap():
    # The closed form 2^consecutive_exponent(n) reaches 2^255 at n = 266, but
    # 2^255 has no takum; every smaller integer fits in 266 bits.
    assert takum.largest_consecutive(265) == 2**254
    assert takum.consecutive_exponent(266) == 255
    assert takum.largest_consecutive(266) == 2**255 - 1
    assert takum.largest_consecutive(1024) == 2**255 - 1


def test_consecutive_exponent_sandwich():
    # Over figure's whole range: the search starts at a bound, which this pins.
    for n in range(5, 1025):
        v = takum.consecutive_exponent(n)
        bound = 1 << (n - 3)
        assert v * 2**v < bound <= (v + 1) * 2 ** (v + 1)


def test_lambert_w0_known_points():
    assert takum.lambert_w0(0.0) == 0.0
    assert takum.lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
    # W0(1) is the omega constant.
    assert takum.lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)
    with pytest.raises(DomainError):
        takum.lambert_w0(-1.0)


@pytest.mark.parametrize(
    "x",
    [1e-12, 0.25, 1.0, 2.5, math.e, 3.0, 100.0, 1e6, 1e18, 1e30, 1e300, 1e301, 1e308, 1.7e308],
)
def test_lambert_w0_matches_mpmath(x):
    w = takum.lambert_w0(x)
    reference = float(mpmath.lambertw(mpmath.mpf(x)))
    assert w == pytest.approx(reference, rel=1e-10)
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)


def test_analytic_consecutive_exponent():
    for n in range(5, 65):
        assert takum.consecutive_exponent_analytic(n) == takum.consecutive_exponent(n), n


def test_analytic_consecutive_exponent_at_the_end_of_double_range():
    # 2^(n-3) ln 2 is about 3.1e307 and 6.2e307 at n = 1025 and 1026, where
    # w * e^w overflows while lambert_w0 iterates; 2^1024 is no double.
    for n in (1025, 1026):
        assert takum.consecutive_exponent_analytic(n) == takum.consecutive_exponent(n), n
    with pytest.raises(DomainError, match="n=1027$"):
        takum.consecutive_exponent_analytic(1027)


def test_analytic_consecutive_exponent_exact_boundaries():
    # At these widths the bound is hit exactly, the razor's edge for the
    # floating-point ceiling.
    for n in (6, 9, 14, 23, 40):
        assert takum.consecutive_exponent_analytic(n) == takum.consecutive_exponent(n), n


def test_non_fraction_bits():
    assert takum.non_fraction_bits(0) == 5
    assert takum.non_fraction_bits(1) == 6
    assert takum.non_fraction_bits(7) == 8
    assert takum.non_fraction_bits(-1) == 5
    assert takum.non_fraction_bits(-2) == 6
    assert takum.non_fraction_bits(254) == 12
    assert takum.non_fraction_bits(-255) == 12
    with pytest.raises(DomainError):
        takum.non_fraction_bits(255)
    with pytest.raises(DomainError):
        takum.non_fraction_bits(-256)


def test_every_exponent_code_decodes_to_its_power_of_two():
    # A 0 sign bit and the code of e, with no fraction bits, is exactly 2^e:
    # the negative exponents' codes are checked here and nowhere else.
    for e in range(-254, 255):
        bits, length = takum._code(e)
        assert takum.decode_uint(bits, 1 + length) == (1, 1, e), e
    # 2^-255 is no takum: its code is all zeros, so the pattern is zero.
    assert takum._code(-255) == (0, 11)
    assert takum.decode_uint(0, 12) == (1, 0, 0)


def test_exponent_range():
    assert takum.exponent_range(12) == range(-255, 255)
    assert takum.exponent_range(64) == range(-255, 255)


def _coded_exponent(triple):
    # A value ((1 - 3S) + f) * 2^e with f in [0, 1) has coded exponent e:
    # floor(log2 x) when x > 0, ceil(log2 |x|) - 1 when x < 0.
    sign, significand, exponent2 = triple
    if sign > 0:
        return exponent2 + significand.bit_length() - 1
    return exponent2 + (significand - 1).bit_length() - 1


@pytest.mark.parametrize(
    "codec,n",
    [
        pytest.param(codec, n, id=f"{codec.__name__.rpartition('.')[2]}{n}")
        for codec in (takum, posit)
        for n in range(codec.MIN_WIDTH, 17)
    ],
)
def test_exponent_range_matches_enumeration(codec, n):
    coded = {
        _coded_exponent(t)
        for u in range(1 << n)
        if (t := codec.decode_uint(u, n)) is not None and t[1]
    }
    span = codec.exponent_range(n)
    assert (span.start, span.stop - 1) == (min(coded), max(coded))


@given(st.integers(-(2**200), 2**200).filter(lambda m: m != 0))
def test_round_trip_at_min_length(m):
    bits = takum.encode_integer(m, max_bits=4096)
    assert bits.width == takum.min_length(m)
    assert takum.decode(bits) == DyadicValue.from_mantissa(1 if m > 0 else -1, abs(m), 0)


@given(st.integers(1, 2**24), st.integers(0, 12))
def test_decode_ignores_appended_zeros(pattern_seed, extra):
    width = max(2, pattern_seed.bit_length())
    u = pattern_seed % (1 << width)
    extended = BitString.from_uint(u << extra, width + extra)
    assert takum.decode(extended) == takum.decode(BitString.from_uint(u, width))


@given(st.integers(1, 2**16 - 1))
def test_negation_closure(pattern):
    width = 16
    v = takum.decode(BitString.from_uint(pattern, width))
    if v.is_finite:
        negated = DyadicValue.from_mantissa(-v.sign, v.significand, v.exponent2)
        assert takum.decode(BitString.from_uint(-pattern & ((1 << width) - 1), width)) == negated


@given(st.integers(1, 2**14 - 1), st.integers(2, 14))
def test_exponent_domain(pattern, width):
    v = takum.decode(BitString.from_uint(pattern % (1 << width), width))
    if v.is_finite:
        exponent = v.exponent2 + (v.significand.bit_length() - 1)
        assert takum.MIN_EXPONENT <= exponent <= takum.MAX_EXPONENT


def test_min_length_matches_oracle_small():
    table = oracle.min_length_table(TakumFormat(), range(1, 257))
    for m in range(1, 257):
        assert table[m] == takum.min_length(m), m
