"""Bit strings and exact binary values.

Shared ground for the codec modules: an immutable MSB-first bit string, an
exact value type built on Python integers, the bit-level profile of a
nonzero integer, and the encoders' shortest-pattern frame.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class CapacityError(ValueError):
    """The value is representable, but not within the given bit budget."""


class FormatError(ValueError):
    """A bit string cannot be parsed or does not fit the addressed format."""


class BudgetError(ValueError):
    """An exhaustive enumeration would exceed the configured budget."""


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


class ValueKind(enum.Enum):
    ZERO = "zero"
    NAR = "nar"
    FINITE = "finite"


# The members as module globals: ValueKind.FINITE is a lookup on the enum
# class, several times slower than a global, and a decode reads a kind two
# or three times.
_ZERO, _NAR, _FINITE = ValueKind.ZERO, ValueKind.NAR, ValueKind.FINITE


class DyadicValue(NamedTuple):
    """Exact decoded value: zero, NaR (not a real), or sign*significand*2**exponent2.

    Finite values are canonical: sign is +1 or -1 and the significand is an
    odd positive integer, so structurally equal values compare equal.
    """

    kind: ValueKind
    sign: int = 1
    significand: int = 0
    exponent2: int = 0

    @classmethod
    def zero(cls) -> "DyadicValue":
        return cls(_ZERO)

    @classmethod
    def nar(cls) -> "DyadicValue":
        return cls(_NAR)

    @classmethod
    def from_mantissa(cls, sign: int, numerator: int, exponent2: int) -> "DyadicValue":
        """Finite value sign*numerator*2**exponent2, normalized to an odd significand."""
        if sign not in (1, -1) or numerator <= 0:
            raise DomainError("finite values need sign in {1,-1} and numerator > 0")
        shift = trailing_zero_count(numerator)
        return cls(_FINITE, sign, numerator >> shift, exponent2 + shift)

    @classmethod
    def from_triple(cls, triple: tuple[int, int, int] | None) -> "DyadicValue":
        """Value of a decode_uint result: None is NaR, a zero significand is zero.

        A finite triple is already canonical (odd significand), so it is
        taken as is, and built by tuple.__new__: the named tuple's own
        __new__ is a Python function, one more frame per decode.
        """
        if triple is None:
            return cls.nar()
        sign, significand, exponent2 = triple
        if not significand:
            return cls.zero()
        return tuple.__new__(cls, (_FINITE, sign, significand, exponent2))

    @property
    def is_zero(self) -> bool:
        return self.kind is _ZERO

    @property
    def is_nar(self) -> bool:
        return self.kind is _NAR

    @property
    def is_finite(self) -> bool:
        return self.kind is _FINITE

    def is_integer(self) -> bool:
        kind = self.kind
        return kind is _ZERO or (kind is _FINITE and self.exponent2 >= 0)

    def as_integer(self) -> int:
        kind, sign, significand, exponent2 = self
        if kind is _FINITE and exponent2 >= 0:
            return sign * (significand << exponent2)
        if kind is _ZERO:
            return 0
        raise DomainError(f"{self} is not an integer")

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_nar:
            return "NaR"
        # Small enough integers print in decimal; everything else stays in
        # the exact significand*2^exponent form.
        if self.exponent2 >= 0 and self.significand.bit_length() + self.exponent2 <= 128:
            return str(self.as_integer())
        sign = "-" if self.sign < 0 else ""
        return f"{sign}{decimal_text(self.significand)}*2^{self.exponent2}"


def integer_profile(m: int) -> tuple[int, int]:
    """(v, w) of a nonzero integer, sign ignored: v bits up to the leading 1, w trailing zeros."""
    if m == 0:
        raise DomainError("0 has no integer profile")
    a = abs(m)
    return a.bit_length(), (a & -a).bit_length() - 1  # trailing_zero_count(a), one call fewer


def check_width(n: int, floor: int, family: str) -> None:
    """DomainError unless n reaches the family's width floor."""
    if n < floor:
        raise DomainError(f"{family} width must be at least {floor}, got {n}")


DEFAULT_MAX_BITS = 256


def encode_shortest(m: int, max_bits: int, family: str, min_length, head) -> tuple[int, int]:
    """Shortest posit or takum pattern for the integer m, as (u, width): both encoders' frame.

    (0, 1) for m = 0, CapacityError when the shortest pattern, min_length(m)
    bits, exceeds max_bits.  head(v) is the (value, width) of the bits before
    the fraction of a positive integer with bit length v.  A result not
    min_length(m) wide, zero's one bit included, raises ArithmeticError.
    """
    need = min_length(m)
    if need > max_bits:
        raise CapacityError(f"{m} needs {need} {family} bits, more than max_bits={max_bits}")
    if m == 0:
        u, width = 0, 1
    else:
        a = abs(m)
        v, w = a.bit_length(), (a & -a).bit_length() - 1  # integer_profile(m), inline
        fraction_bits = v - w - 1  # explicit significand bits below the leading 1
        value, width = head(v)
        u = (value << fraction_bits) | ((a >> w) ^ (1 << fraction_bits))  # the leading 1 cleared
        # Appended zeros never change a value, so the shortest pattern drops them all.
        # A positive pattern starts "01", so at least two bits stay.
        drop = (u & -u).bit_length() - 1  # trailing_zero_count(u)
        u >>= drop
        width += fraction_bits - drop
    if m < 0:
        u = -u & ((1 << width) - 1)
    if width != need:
        raise ArithmeticError(f"{family} encoding of {m} has {width} bits, not {need}")
    return u, width
