import pytest

from intrep import BitString, FormatError


def test_parse_and_str():
    assert str(BitString("0101")) == "0101"
    assert str(BitString("0b0101")) == "0101"
    assert str(BitString("01 01")) == "0101"
    assert str(BitString("01_01")) == "0101"
    assert BitString("0001").uint == 1
    assert BitString("0001").width == 4


@pytest.mark.parametrize("bad", ["", "0b", "012", "abc", "1.0", "0 b 1"])
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


def test_equality_includes_width():
    assert BitString("01") == BitString("01")
    assert BitString("01") != BitString("001")
    assert BitString("01") != BitString("10")
    assert hash(BitString("01")) == hash(BitString.from_uint(1, 2))
