import pytest

from intrep import BitString, FormatError


def test_parse_and_str():
    assert str(BitString("0101")) == "0101"
    assert str(BitString("0b0101")) == "0101"
    assert str(BitString("01 01")) == "0101"
    assert str(BitString("01_01")) == "0101"
    assert BitString("0001").uint == 1
    assert BitString("0001").width == 4


@pytest.mark.parametrize("bad", ["", "0b", "012", "abc", "1.0", "0 b 1", 5, b"01", None])
def test_parse_rejects(bad):
    with pytest.raises(FormatError):
        BitString(bad)


def test_from_uint_bounds():
    assert str(BitString.from_uint(5, 4)) == "0101"
    with pytest.raises(FormatError):
        BitString.from_uint(16, 4)
    with pytest.raises(FormatError):
        BitString.from_uint(-1, 4)
    with pytest.raises(FormatError):
        BitString.from_uint(0, 0)
    for width in (300, 301, 512, 1000):
        assert str(BitString.from_uint((1 << width) - 1, width)) == "1" * width
        with pytest.raises(FormatError, match=f"does not fit in {width} bits$"):
            BitString.from_uint(1 << width, width)


def test_equality_includes_width():
    assert BitString("01") == BitString("01")
    assert BitString("01") != BitString("001")
    assert BitString("01") != BitString("10")
    assert hash(BitString("01")) == hash(BitString.from_uint(1, 2))


def test_a_bit_string_is_not_equal_to_its_text():
    # __eq__ defers to the other operand, so str's own comparison answers.
    assert BitString("01") != "01"
    assert not BitString("01") == "01"


def test_repr_rebuilds_the_bit_string():
    assert repr(BitString("0b00_101")) == "BitString('00101')"
    assert eval(repr(BitString.from_uint(5, 8))) == BitString.from_uint(5, 8)
