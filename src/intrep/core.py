"""Bit strings and exact binary values.

Shared ground for the codec modules: two checked named tuples, BitString,
encode_uint's (uint, width) pair of an MSB-first bit string, and
DyadicValue, the exact value of the decode_uint kernels' triple; a nonzero
integer's bit-level profile, the encoders' shortest-pattern frame,
check_int, the one check of every width and budget, does_not_fit, the one
refusal of a pattern too wide for its width, and a handle's widths:
resolve_width, check_width.
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


def int_text(m) -> str:
    """m as a refusal prints it: str(m), or its bit length past the int-to-str digit limit.

    A refusal that printed the decimal of so long an integer would raise an
    untyped ValueError in place of its own error.
    """
    try:
        return str(m)
    except ValueError:
        return f"a {'negative ' if m < 0 else ''}{m.bit_length()}-bit integer"


def does_not_fit(u, width: int) -> FormatError:
    """The refusal of a pattern u outside [0, 2^width): the one text of every codec's."""
    return FormatError(f"{int_text(u)} does not fit in {int_text(width)} bits")


def decimal_text(m: int) -> str:
    """str(m), or DomainError past the interpreter's limit on int-to-str digits."""
    try:
        return str(m)
    except ValueError as exc:
        raise DomainError(f"exact decimal of a {m.bit_length()}-bit integer: {exc}") from None


def trailing_zero_count(x: int) -> int:
    """Number of trailing zero bits of a positive integer."""
    return (x & -x).bit_length() - 1


class _Bits(NamedTuple):
    uint: int
    width: int


class BitString(_Bits):
    """Immutable bit string, most significant bit first, never empty.

    The pair (uint, width) that encode_uint returns, named: len() is 2, and
    the length in bits is width.  Text form is ASCII '0'/'1'; parsing accepts
    an optional "0b" prefix and ignores spaces and underscores.
    """

    __slots__ = ()

    def __new__(cls, bits: str):
        if not isinstance(bits, str):
            shown = int_text(bits) if isinstance(bits, int) else repr(bits)
            raise FormatError(f"not a bit string: {shown}")
        text = bits.strip().removeprefix("0b").replace(" ", "").replace("_", "")
        if not text or text.strip("01"):
            raise FormatError(f"not a bit string: {bits!r}")
        return _tuple_new(cls, (int(text, 2), len(text)))

    @classmethod
    def from_uint(cls, value: int, width: int) -> "BitString":
        """The width-bit string of the unsigned integer value.

        FormatError when either is not an int, width is below 1, or value is
        negative or has more than width bits: a bit-length test, which builds
        no shifted copy of a wide value.
        """
        if type(value) is not int:
            check_int(value, None, "value")
        if type(width) is not int or width < 1:
            check_int(width, 1, "width")
        if value < 0 or value.bit_length() > width:
            raise does_not_fit(value, width)
        return _tuple_new(cls, (value, width))

    @classmethod
    def _make(cls, iterable) -> "BitString":  # so _replace checks too
        return cls.from_uint(*iterable)

    def __getnewargs__(self):  # pickle and copy rebuild through the parser
        return (str(self),)

    def __str__(self) -> str:
        return format(self.uint, f"0{self.width}b")

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
    triple, a field that is not an int (a bool or a float) among them, with
    DomainError.
    """

    __slots__ = ()

    def __new__(cls, sign: int, significand: int, exponent2: int):
        typed = type(sign) is type(significand) is type(exponent2) is int
        finite = typed and sign in (1, -1) and significand > 0 and significand & 1
        if not (finite or typed and significand == exponent2 == 0 and sign in (1, 0)):
            fields = ", ".join(map(int_text, (sign, significand, exponent2)))
            raise DomainError(f"({fields}) is not a canonical value")
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
        if type(numerator) is not int:
            raise DomainError(f"from_mantissa needs an int numerator, got {numerator!r}")
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
        return _NAR if triple is None else _tuple_new(cls, triple)

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
_tuple_new = tuple.__new__  # the value types' unchecked build: one global read per call


def integer_profile(m: int) -> tuple[int, int]:
    """(v, w) of a nonzero integer, sign ignored: v bits up to the leading 1, w trailing zeros."""
    if type(m) is not int:
        check_int(m, None, "m")
    if m == 0:
        raise DomainError("0 has no integer profile")
    a = abs(m)
    return a.bit_length(), (a & -a).bit_length() - 1  # trailing_zero_count(a), one call fewer


def check_int(value, floor: int | None, name: str) -> int:
    """value, if an int (not a bool) of at least floor (None: any int), else FormatError naming it.

    A hot path calls it only when type(x) is not int or x < floor, the same
    two tests, so the floor it names still takes effect.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{name} must be an integer, got {value!r}")
    if floor is not None and value < floor:
        raise FormatError(f"{name} must be at least {floor}, got {int_text(value)}")
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
    if check_width(fmt, n) != intrinsic:
        raise FormatError(f"width {int_text(n)} conflicts with {fmt.name}")
    return n


def check_width(fmt, w: int) -> int:
    """w, if fmt has patterns of that width: an int of at least 1, at most a sized handle's own."""
    if type(w) is not int or w < 1:
        check_int(w, 1, "width")
    if fmt.width is not None and w > fmt.width:
        raise FormatError(f"width {int_text(w)} conflicts with {fmt.name}")
    return w


DEFAULT_MAX_BITS = 256


def encode_shortest(m: int, max_bits: int, family: str, length, code) -> tuple[int, int]:
    """Shortest posit or takum pattern for the integer m, as (u, width): both encoders' frame.

    m is profiled once, as (v, w): its bit length and trailing zeros, (0, -1)
    for zero.  length(v, w, m) is the family's closed form, the one its
    min_length reads, so the pattern is checked against min_length(m), zero's
    one bit included: a result of another width raises ArithmeticError.
    length refuses m (DomainError) where the family has no pattern for it,
    and m only names the integer in that refusal.  (0, 1) for m = 0,
    CapacityError when the shortest pattern exceeds max_bits, and
    FormatError when max_bits or m is not an int or max_bits is negative.

    code(e) is the (bits, length) between the sign and the fraction of a
    value with coded exponent e; a positive integer with bit length v has
    e = v - 1, and its sign bit 0 adds one to the width and nothing to the
    value.  The fraction, m's odd part a >> w less its leading 1, ends in a
    1, so it is appended as ((code - 1) << f) + (a >> w), and only a power
    of two, whose pattern is its code alone, has trailing zeros to drop.  A
    negative m's pattern is the two's complement 2^width - u.
    """
    if type(max_bits) is not int or max_bits < 0:
        check_int(max_bits, 0, "max_bits")
    if type(m) is not int:
        check_int(m, None, "m")
    a = abs(m)
    v, w = a.bit_length(), (a & -a).bit_length() - 1  # integer_profile(m), inline
    need = length(v, w, m)
    if need > max_bits:
        text = int_text(m)
        raise CapacityError(f"{text} needs {need} {family} bits, more than max_bits={max_bits}")
    fraction_bits = v - w - 1  # explicit significand bits below the leading 1
    if fraction_bits:
        u, width = code(v - 1)
        u = ((u - 1) << fraction_bits) + (a >> w)
        width += 1 + fraction_bits
    elif v:  # a power of two: the code, less its trailing zeros; "01" stays
        u, width = code(v - 1)
        drop = (u & -u).bit_length() - 1  # trailing_zero_count(u)
        u >>= drop
        width += 1 - drop
    else:
        u, width = 0, 1
    if m < 0:
        u = (1 << width) - u
    if width != need:
        raise ArithmeticError(f"{family} encoding of {int_text(m)} has {width} bits, not {need}")
    return u, width
