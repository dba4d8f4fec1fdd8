import pytest
from hypothesis import given
from hypothesis import strategies as st

from intrep import BitString, CapacityError, DyadicValue, FormatError, oracle, posit
from intrep.formats import PositFormat


def value(sign, numerator, exponent2):
    return DyadicValue.from_mantissa(sign, numerator, exponent2)


# Hand-decoded from the field layout: sign, regime run, termination, 2-bit
# exponent, fraction, with ghost zeros past the end.
DECODE_CASES = [
    ("0", DyadicValue.zero()),
    ("1", DyadicValue.nar()),
    ("00000", DyadicValue.zero()),
    ("10000", DyadicValue.nar()),
    ("01", value(1, 1, 0)),
    ("0100", value(1, 1, 0)),
    ("01000000", value(1, 1, 0)),
    ("01001", value(1, 1, 1)),  # exponent field 01
    ("0101", value(1, 1, 2)),
    ("01011", value(1, 1, 3)),
    ("011", value(1, 1, 4)),  # regime run of 2 ones
    ("0111", value(1, 1, 8)),  # run of 3
    ("0101001", value(1, 5, 0)),  # fraction 01 -> (1+1/4)*4 = 5
    ("0110001", value(1, 3, 3)),  # (1+1/2)*16 = 24
    ("0110000001", value(1, 17, 0)),  # (1+1/16)*16
    ("00111", value(1, 1, -1)),  # negative regime, exponent field 11
    ("00100", value(1, 1, -4)),
    ("00001", value(1, 1, -12)),
    ("11", value(-1, 1, 0)),
    ("1100", value(-1, 1, 0)),
    ("1011", value(-1, 1, 2)),
    ("1101", value(-1, 1, -2)),  # two's complement of 0011 = 1/4
    ("10101", value(-1, 1, 3)),  # two's complement of 01011 = 8
    ("1010111", value(-1, 5, 0)),  # two's complement of 0101001 = 5
]


@pytest.mark.parametrize("bits,expected", DECODE_CASES)
def test_decode(bits, expected):
    assert posit.decode(BitString(bits)) == expected


ENCODE_CASES = [
    (1, "01"),
    (2, "01001"),
    (3, "010011"),
    (4, "0101"),
    (5, "0101001"),
    (6, "010101"),
    (8, "01011"),
    (16, "011"),
    (17, "0110000001"),
    (-1, "11"),
    (-4, "1011"),
    (-16, "101"),
]


@pytest.mark.parametrize("m,bits", ENCODE_CASES)
def test_encode_integer(m, bits):
    assert str(posit.encode_integer(m)) == bits


def test_encode_zero_is_single_bit():
    assert str(posit.encode_integer(0)) == "0"


def test_encode_zero_respects_the_budget():
    assert str(posit.encode_integer(0, 1)) == "0"
    with pytest.raises(CapacityError, match="needs 1 posit bits, more than max_bits=0"):
        posit.encode_integer(0, 0)


MIN_LENGTH_CASES = [(0, 1), (1, 2), (2, 5), (3, 6), (4, 4), (8, 5), (16, 3), (5, 7), (6, 6), (7, 7)]


@pytest.mark.parametrize("m,length", MIN_LENGTH_CASES)
def test_min_length(m, length):
    assert posit.min_length(m) == length
    assert posit.min_length(-m) == length


def test_encode_capacity():
    with pytest.raises(CapacityError):
        posit.encode_integer(3, max_bits=5)
    assert str(posit.encode_integer(3, max_bits=6)) == "010011"
    # Powers of two stay cheap at any size; odd giants do not.
    assert posit.encode_integer(1 << 300, max_bits=256).width == 77
    with pytest.raises(CapacityError):
        posit.encode_integer((1 << 300) + 1, max_bits=256)


LARGEST_CONSECUTIVE_CASES = [
    (3, 1),
    (4, 1),
    (5, 2),
    (8, 2**4),
    (16, 2**10),
    (32, 2**23),
    (64, 2**48),
    (128, 2**100),
]


@pytest.mark.parametrize("n,expected", LARGEST_CONSECUTIVE_CASES)
def test_largest_consecutive(n, expected):
    assert posit.largest_consecutive(n) == expected


def test_largest_consecutive_domain():
    with pytest.raises(FormatError):
        posit.largest_consecutive(2)


def test_non_fraction_bits():
    assert posit.non_fraction_bits(0) == 5
    assert posit.non_fraction_bits(3) == 5
    assert posit.non_fraction_bits(4) == 6
    assert posit.non_fraction_bits(-1) == 5
    assert posit.non_fraction_bits(-4) == 5
    assert posit.non_fraction_bits(-5) == 6


def test_every_exponent_code_decodes_to_its_power_of_two():
    # A 0 sign bit and the code of e, with no fraction bits, is exactly 2^e:
    # the negative exponents' codes are checked here and nowhere else.
    for e in range(-1000, 1001):
        bits, length = posit._code(e)
        assert posit.decode_uint(bits, 1 + length) == (1, 1, e), e


def test_exponent_range():
    assert posit.exponent_range(8) == range(-25, 25)


@given(st.integers(-(2**64), 2**64).filter(lambda m: m != 0))
def test_round_trip_at_min_length(m):
    bits = posit.encode_integer(m, max_bits=4096)
    assert bits.width == posit.min_length(m)
    assert posit.decode(bits) == DyadicValue.from_mantissa(1 if m > 0 else -1, abs(m), 0)


@given(st.integers(1, 2**24), st.integers(0, 12))
def test_decode_ignores_appended_zeros(pattern_seed, extra):
    width = max(2, pattern_seed.bit_length())
    u = pattern_seed % (1 << width)
    extended = BitString.from_uint(u << extra, width + extra)
    assert posit.decode(extended) == posit.decode(BitString.from_uint(u, width))


@given(st.integers(1, 2**16 - 1))
def test_negation_closure(pattern):
    width = 16
    v = posit.decode(BitString.from_uint(pattern, width))
    if v.is_finite:
        negated = DyadicValue.from_mantissa(-v.sign, v.significand, v.exponent2)
        assert posit.decode(BitString.from_uint(-pattern & ((1 << width) - 1), width)) == negated


def test_min_length_matches_oracle_small():
    table = oracle.min_length_table(PositFormat(), range(1, 257))
    for m in range(1, 257):
        assert table[m] == posit.min_length(m), m
