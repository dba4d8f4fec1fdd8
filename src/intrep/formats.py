"""Uniform handle on the supported number formats.

A FormatSpec is a PositFormat, a TakumFormat, or a MinifloatSpec.  Posit and
takum handles may carry a width or stand for the whole family (width None);
minifloat widths are intrinsic to the spec.  Every handle carries its
family's operations (name, width, codec, decode_patterns, closed_form,
precision_profile), so callers do not branch on the handle's type.
decode_patterns(n, patterns) is the batch decode: the family's decode_uint
of each n-bit pattern, lazily and in order, with the width's masks and
shifts worked out once for the whole batch, and the only operation the
oracle's gap ladder asks of a handle.
"""

from __future__ import annotations

import re
from types import ModuleType
from typing import ClassVar, Union

from . import minifloat, posit, takum
from .core import BitString, DyadicValue, FormatError, FrozenSlots
from .minifloat import PRESETS, MinifloatSpec


class _TaperedFormat(FrozenSlots):
    """A posit or takum handle: width n, or the whole family when n is None.

    The family's codec module is a ClassVar, not a field: a handle compares,
    hashes and pickles by its fields, and a module does not pickle.
    """

    __slots__ = _fields = ("n",)
    n: int | None

    codec: ClassVar[ModuleType]
    # Width whose exponents a bare family handle profiles; None if it needs one.
    profile_width: ClassVar[int | None] = None

    def __init__(self, n: int | None = None):
        super().__init__(n)
        floor = self.codec.MIN_WIDTH
        if n is not None and n < floor:
            raise FormatError(f"{self.family} width must be at least {floor}, got {n}")

    @property
    def family(self) -> str:
        return self.codec.__name__.rpartition(".")[2]

    @property
    def name(self) -> str:
        return f"{self.family}{self.n}" if self.n else self.family

    @property
    def width(self) -> int | None:
        return self.n

    def decode_patterns(self, n: int, patterns):
        """The codec's decode_uint of each n-bit pattern, lazily: its decode_uints."""
        return self.codec.decode_uints(patterns, n)

    def closed_form(self, n: int) -> int:
        """The codec's largest_consecutive at width n."""
        return self.codec.largest_consecutive(n)

    def precision_profile(self) -> list[tuple[int, int]]:
        """(exponent, non-fraction bits) for each coded exponent at the width.

        The rows span the smallest to the largest coded exponent (the codec's
        exponent_range), so some exponents in between have no pattern of the width.
        """
        n = self.n or self.profile_width
        if n is None:
            raise FormatError(f"{self.name} precision profile needs a width, e.g. {self.name}32")
        return [(e, self.codec.non_fraction_bits(e)) for e in self.codec.exponent_range(n)]


class PositFormat(_TaperedFormat):
    __slots__ = ()
    codec = posit


class TakumFormat(_TaperedFormat):
    __slots__ = ()
    codec = takum
    profile_width = 12  # the first width that reaches the whole takum exponent range


FormatSpec = Union[PositFormat, TakumFormat, MinifloatSpec]

_FAMILY_PATTERN = re.compile(r"^(posit|takum)(\d+)?$")


def parse_format(text: str) -> FormatSpec:
    """Parse names like "posit16", "takum", "e4m3", or "bfloat16"."""
    name = text.strip().lower()
    match = _FAMILY_PATTERN.match(name)
    if match:
        family, width = match.group(1), match.group(2)
        n = int(width) if width else None
        return PositFormat(n) if family == "posit" else TakumFormat(n)
    if name in PRESETS:
        return PRESETS[name]
    known = ", ".join(["posit[N]", "takum[N]", *PRESETS])
    raise FormatError(f"unknown format {text!r} (known: {known})")


def resolve_width(fmt: FormatSpec, n: int | None = None) -> int:
    """The concrete bit width to work at, from the handle and/or override."""
    intrinsic = fmt.width
    if n is None:
        if intrinsic is None:
            raise FormatError(f"{fmt.name} needs an explicit width")
        return intrinsic
    if intrinsic is None:
        return type(fmt)(n).n  # a bare posit/takum handle: the width meets its floor
    if intrinsic != n:
        raise FormatError(f"width {n} conflicts with {fmt.name}")
    return n


def decode(fmt: FormatSpec, bits: BitString) -> DyadicValue:
    """Decode bits in the given format.

    Minifloats require their exact width; posit/takum accept any length up
    to the handle's width (appended zeros never change the value).
    """
    if isinstance(fmt, MinifloatSpec):
        return minifloat.decode(fmt, bits)
    if fmt.n is not None and bits.width > fmt.n:
        raise FormatError(f"{bits.width} bits do not fit {fmt.name}")
    return fmt.codec.decode(bits)


def largest_consecutive(fmt: FormatSpec, n: int | None = None) -> int:
    """Closed-form largest consecutive integer for the format at width n."""
    return fmt.closed_form(resolve_width(fmt, n))


def signed_integer_count(width: int) -> int:
    """Positive integers of width-bit two's complement: 2^(width-1) - 1."""
    return (1 << (width - 1)) - 1
