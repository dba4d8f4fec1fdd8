import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intrep import (
    BitString,
    CapacityError,
    DomainError,
    DyadicValue,
    integer_profile,
    oracle,
    posit,
    takum,
)


def test_constructors_and_kinds():
    zero, nar = DyadicValue.zero(), DyadicValue.nar()
    one = DyadicValue.from_mantissa(1, 1, 0)
    assert zero.is_zero and not zero.is_finite
    assert nar.is_nar and not nar.is_finite
    assert one.is_finite and one.sign == 1 and one.significand == 1 and one.exponent2 == 0


def test_canonical_odd_significand():
    v = DyadicValue.from_mantissa(1, 12, -1)  # 12 * 2^-1 = 3 * 2^1
    assert (v.significand, v.exponent2) == (3, 1)
    assert v == DyadicValue.from_mantissa(1, 6, 0)
    assert DyadicValue.from_mantissa(-1, 8, -3) == DyadicValue.from_mantissa(-1, 1, 0)


def test_from_mantissa_rejects_bad_args():
    with pytest.raises(DomainError):
        DyadicValue.from_mantissa(2, 1, 0)
    with pytest.raises(DomainError):
        DyadicValue.from_mantissa(1, 0, 0)


def test_is_integer_and_as_integer():
    assert DyadicValue.zero().is_integer()
    assert DyadicValue.zero().as_integer() == 0
    assert DyadicValue.from_mantissa(-1, 48, 0).as_integer() == -48
    half = DyadicValue.from_mantissa(1, 1, -1)
    assert not half.is_integer()
    with pytest.raises(DomainError):
        half.as_integer()
    assert not DyadicValue.nar().is_integer()


def test_rendering():
    assert str(DyadicValue.zero()) == "0"
    assert str(DyadicValue.nar()) == "NaR"
    assert str(DyadicValue.from_mantissa(1, 448, 0)) == "448"
    assert str(DyadicValue.from_mantissa(-1, 448, 0)) == "-448"
    assert str(DyadicValue.from_mantissa(1, 7, -2)) == "7*2^-2"
    assert str(DyadicValue.from_mantissa(1, 1, 100)) == str(2**100)
    assert str(DyadicValue.from_mantissa(1, 1, 200)) == "1*2^200"
    assert str(DyadicValue.from_mantissa(-1, 3, 150)) == "-3*2^150"


@given(st.sampled_from([1, -1]), st.integers(1, 2**80))
def test_from_mantissa_round_trips(sign, magnitude):
    assert DyadicValue.from_mantissa(sign, magnitude, 0).as_integer() == sign * magnitude


def test_integer_profile_examples():
    assert integer_profile(1) == (1, 0)
    assert integer_profile(12) == (4, 2)
    assert integer_profile(-16) == (5, 4)
    v, w = integer_profile(12)
    assert v - w - 1 == 1  # fraction bits below the leading 1
    with pytest.raises(DomainError):
        integer_profile(0)


@given(st.integers(1, 2**64), st.integers(0, 40))
def test_integer_profile_structure(odd_seed, w):
    odd = 2 * odd_seed - 1
    prof = integer_profile(odd << w)
    assert prof == (odd.bit_length() + w, w)
    assert prof == integer_profile(-(odd << w))


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("codec", [posit, takum], ids=["posit", "takum"])
def test_encoders_check_their_width_against_min_length(monkeypatch, codec, delta):
    # The check is a raise, not an assert, so it also runs under python -O.
    true_length = codec.min_length
    monkeypatch.setattr(codec, "min_length", lambda m: true_length(m) + delta)
    for m in (0, 5, -12, (1 << 40) + 3):
        with pytest.raises(ArithmeticError):
            codec.encode_integer(m)
    # Zero is the first integer the round trip encodes, through the same check.
    result = oracle.check_round_trip(16)
    assert not result.passed
    family = codec.__name__.rpartition(".")[2]
    assert result.detail == f"{family} encoding of 0 has 1 bits, not {1 + delta}"


def attempt(encode, m: int, max_bits: int):
    """encode(m, max_bits) as (u, width), or the type and text of its refusal."""
    try:
        result = encode(m, max_bits)
    except (CapacityError, DomainError) as exc:
        return type(exc), str(exc)
    return (result.uint, result.width) if isinstance(result, BitString) else result


@pytest.mark.parametrize("codec", [posit, takum], ids=["posit", "takum"])
def test_encode_uint_is_encode_integer_as_plain_ints(codec):
    rng = random.Random(2027)
    seeded = [rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 255)) for _ in range(2000)]
    # The default 256 bits refuse some long m, which 322 bits take in both families.
    cases = [(m, 256) for m in range(-4096, 4097)]
    cases += [(m, max_bits) for m in seeded for max_bits in (256, 322)]
    cases += [(3, 5), (1 << 255, 322), (-(1 << 255), 322), ((1 << 300) + 1, 400)]
    for m, max_bits in cases:
        expected = attempt(codec.encode_integer, m, max_bits)
        assert attempt(codec.encode_uint, m, max_bits) == expected, (m, max_bits)
    assert attempt(codec.encode_uint, 3, 5)[0] is CapacityError
    if codec is takum:
        assert attempt(codec.encode_uint, 1 << 255, 322)[0] is DomainError
