import copy
import pickle

import pytest

from intrep import BitString, FormatError, posit, takum


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


@pytest.mark.parametrize("codec", [posit, takum], ids=["posit", "takum"])
def test_a_bit_string_equals_its_pair(codec):
    assert BitString("0101") == (5, 4)
    assert BitString("0101") != (5, 5)
    for m in (0, 1, -1, 5, -5, 12, 1000, -(2**40) - 3):
        assert codec.encode_integer(m) == codec.encode_uint(m)


def test_replace_is_checked():
    with pytest.raises(FormatError, match="^16 does not fit in 4 bits$"):
        BitString.from_uint(5, 4)._replace(uint=16)
    assert BitString.from_uint(5, 4)._replace(width=8) == BitString("00000101")


@pytest.mark.parametrize(
    "clone",
    [lambda b: pickle.loads(pickle.dumps(b)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_rebuild_an_equal_bit_string(clone):
    for bits in (BitString("0"), BitString("00101"), BitString.from_uint(3, 300)):
        twin = clone(bits)
        assert type(twin) is BitString
        assert twin == bits
        assert str(twin) == str(bits)


@pytest.mark.parametrize("field", ["uint", "width", "extra"])
def test_a_bit_string_refuses_assignment(field):
    bits = BitString("0101")
    with pytest.raises(AttributeError):
        setattr(bits, field, 3)
    assert (bits.uint, bits.width) == (5, 4)
