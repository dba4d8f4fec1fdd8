"""Bit strings and exact binary values.

Shared ground for the codec modules: an immutable MSB-first bit string, an
exact value type built on Python integers, the bit-level profile of a
nonzero integer, the encoders' shortest-pattern frame, check_int, the one
check of every width and budget, and resolve_width, a handle's width.
"""

from __future__ import annotations

from typing import NamedTuple


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class CapacityError(ValueError):
    """The value is representable, but not within the given bit budget."""


class FormatError(ValueError):
    """A bit string cannot be parsed or does not fit the addressed format."""


class BudgetError(ValueError):
    """An oracle question would decode more patterns than its budget allows."""


def decimal_text(m: int) -> str:
    """str(m), or DomainError past the interpreter's limit on int-to-str digits."""
    try:
        return str(m)
    except ValueError as exc:
        raise DomainError(f"exact decimal of a {m.bit_length()}-bit integer: {exc}") from None


def trailing_zero_count(x: int) -> int:
    """Number of trailing zero bits of a positive integer."""
    return (x & -x).bit_length() - 1


class BitString:
    """Immutable bit string, most significant bit first, never empty.

    A value: the bits as an unsigned integer (uint) and their count (width).
    Text form is ASCII '0'/'1'; parsing accepts an optional "0b" prefix and
    ignores spaces and underscores.
    """

    __slots__ = ("_value", "_width")

    def __init__(self, bits: str):
        text = bits.strip().removeprefix("0b")
        text = text.replace(" ", "").replace("_", "")
        if not text or text.strip("01"):
            raise FormatError(f"not a bit string: {bits!r}")
        self._value = int(text, 2)
        self._width = len(text)

    @classmethod
    def from_uint(cls, value: int, width: int) -> "BitString":
        if width < 1 or value < 0 or value >> width:
            raise FormatError(f"{value} does not fit in {width} bits")
        self = object.__new__(cls)
        self._value = value
        self._width = width
        return self

    @property
    def uint(self) -> int:
        """The bits read as an unsigned integer."""
        return self._value

    @property
    def width(self) -> int:
        return self._width

    def __eq__(self, other: object):
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._width == other._width

    def __hash__(self):
        return hash((self._value, self._width))

    def __str__(self) -> str:
        return format(self._value, f"0{self._width}b")

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"


class FrozenSlots:
    """Base of the immutable format handles: a value made of the fields in _fields.

    A subclass names its fields in __slots__ and _fields, in constructor
    order, and passes their values to this __init__.  Instances are equal,
    and hash equal, when their types and fields are; assigning or deleting
    an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, *self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor: pickle's default restores slots by
        # assignment, which __setattr__ refuses.
        return self.__class__, self._values()


class _Triple(NamedTuple):
    sign: int
    significand: int
    exponent2: int


class DyadicValue(_Triple):
    """Exact decoded value: sign*significand*2**exponent2, zero, or NaR (not a real).

    The fields are the decode kernels' triple.  A finite value is canonical:
    sign is +1 or -1 and the significand is an odd positive integer, so
    structurally equal values compare equal.  Zero is (1, 0, 0) and NaR is
    (0, 0, 0), the one value with sign 0.  The constructor refuses any other
    triple with DomainError.
    """

    __slots__ = ()

    def __new__(cls, sign: int, significand: int, exponent2: int):
        finite = sign in (1, -1) and significand > 0 and significand & 1
        if not (finite or significand == exponent2 == 0 and sign in (1, 0)):
            raise DomainError(f"({sign}, {significand}, {exponent2}) is not a canonical value")
        return super().__new__(cls, sign, significand, exponent2)

    @classmethod
    def _make(cls, iterable) -> "DyadicValue":  # so _replace checks too
        return cls(*iterable)

    @classmethod
    def zero(cls) -> "DyadicValue":
        return cls(1, 0, 0)

    @classmethod
    def nar(cls) -> "DyadicValue":
        return _NAR

    @classmethod
    def from_mantissa(cls, sign: int, numerator: int, exponent2: int) -> "DyadicValue":
        """Finite value sign*numerator*2**exponent2, normalized to an odd significand."""
        if sign not in (1, -1) or numerator <= 0:
            raise DomainError("finite values need sign in {1,-1} and numerator > 0")
        shift = trailing_zero_count(numerator)
        return cls(sign, numerator >> shift, exponent2 + shift)

    @classmethod
    def from_triple(cls, triple: tuple[int, int, int] | None) -> "DyadicValue":
        """Value of a decode_uint result: None is NaR, a triple, already canonical, is taken as is.

        Built by tuple.__new__, unchecked: the checking __new__ would cost a
        Python frame per decode.
        """
        return _NAR if triple is None else tuple.__new__(cls, triple)

    @property
    def is_zero(self) -> bool:
        return not self.significand and self.sign == 1

    @property
    def is_nar(self) -> bool:
        return not self.sign

    @property
    def is_finite(self) -> bool:
        return self.significand > 0

    def is_integer(self) -> bool:
        return self.sign != 0 and self.exponent2 >= 0

    def as_integer(self) -> int:
        sign, significand, exponent2 = self
        if sign and exponent2 >= 0:
            return sign * (significand << exponent2)  # zero's (1, 0, 0) gives 0
        raise DomainError(f"{self} is not an integer")

    def __str__(self) -> str:
        if self.is_nar:
            return "NaR"
        # Small enough integers, zero among them, print in decimal; everything
        # else stays in the exact significand*2^exponent form.
        if self.exponent2 >= 0 and self.significand.bit_length() + self.exponent2 <= 128:
            return str(self.as_integer())
        sign = "-" if self.sign < 0 else ""
        return f"{sign}{decimal_text(self.significand)}*2^{self.exponent2}"


_NAR = DyadicValue(0, 0, 0)


def integer_profile(m: int) -> tuple[int, int]:
    """(v, w) of a nonzero integer, sign ignored: v bits up to the leading 1, w trailing zeros."""
    if type(m) is not int:
        check_int(m, None, "m")
    if m == 0:
        raise DomainError("0 has no integer profile")
    a = abs(m)
    return a.bit_length(), (a & -a).bit_length() - 1  # trailing_zero_count(a), one call fewer


def check_int(value, floor: int | None, name: str) -> int:
    """value, if an int (not a bool) of at least floor (None: any int), else FormatError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{name} must be an integer, got {value!r}")
    if floor is not None and value < floor:
        raise FormatError(f"{name} must be at least {floor}, got {value}")
    return value


def resolve_width(fmt, n: int | None = None) -> int:
    """The width a format handle works at: n, which a sized handle must match, or its own."""
    intrinsic = fmt.width
    if n is None:
        if intrinsic is None:
            raise FormatError(f"{fmt.name} needs an explicit width")
        return intrinsic
    if intrinsic is None:
        return type(fmt)(n).n  # a bare posit/takum handle: the width meets its floor
    if check_int(n, 1, "width") != intrinsic:
        raise FormatError(f"width {n} conflicts with {fmt.name}")
    return n


DEFAULT_MAX_BITS = 256


def encode_shortest(m: int, max_bits: int, family: str, min_length, head) -> tuple[int, int]:
    """Shortest posit or takum pattern for the integer m, as (u, width): both encoders' frame.

    (0, 1) for m = 0, CapacityError when the shortest pattern, min_length(m)
    bits, exceeds max_bits, and FormatError when max_bits, or m (which
    min_length refuses), is not an int.  head(v) is the (value, width) of the
    bits before the fraction of a positive integer with bit length v.  The
    fraction, m's odd part less its leading 1, ends in a 1, so only a power
    of two, whose pattern is its head alone, has trailing zeros to drop.  A
    result not min_length(m) wide, zero's one bit included, raises
    ArithmeticError.
    """
    if type(max_bits) is not int:
        check_int(max_bits, 0, "max_bits")
    need = min_length(m)
    if need > max_bits:
        raise CapacityError(f"{m} needs {need} {family} bits, more than max_bits={max_bits}")
    if m == 0:
        u, width = 0, 1
    else:
        a = abs(m)
        v, w = a.bit_length(), (a & -a).bit_length() - 1  # integer_profile(m), inline
        fraction_bits = v - w - 1  # explicit significand bits below the leading 1
        u, width = head(v)
        # Appended zeros never change a value, so the shortest pattern drops them all.
        if fraction_bits:  # the fraction, the leading 1 cleared, ends in a 1: none to drop
            u = (u << fraction_bits) | ((a >> w) ^ (1 << fraction_bits))
            width += fraction_bits
        else:  # a power of two: the head, less its trailing zeros; "01" stays
            drop = (u & -u).bit_length() - 1  # trailing_zero_count(u)
            u >>= drop
            width -= drop
    if m < 0:
        u = -u & ((1 << width) - 1)
    if width != need:
        raise ArithmeticError(f"{family} encoding of {m} has {width} bits, not {need}")
    return u, width
