"""Uniform handle on the supported number formats.

A FormatSpec is a PositFormat, a TakumFormat, or a MinifloatSpec.  Posit and
takum handles may carry a width or stand for the whole family (width None);
minifloat widths are intrinsic to the spec.  Every handle carries its
family's operations (name, width, codec, decode, decode_patterns,
closed_form, precision_profile), so callers do not branch on its type.
A handle answers for its own width: closed_form(n=None) works at
resolve_width(handle, n), from core so that a minifloat spec uses it too,
and precision_profile() at resolve_width(handle), which refuses a bare
posit or takum in one text, "NAME needs an explicit width"; every width a
sized handle refuses is refused in one text, "width N conflicts with NAME".
decode_patterns(n, patterns) is the batch decode: the family's decode_uint
of each n-bit pattern, lazily and in order, with the width's masks and
shifts worked out once for the whole batch, and the only operation the
oracle's gap ladder asks of a handle.
"""

from __future__ import annotations

import re
from types import ModuleType
from typing import ClassVar, Union

from . import posit, takum
from .core import (
    BitString,
    DyadicValue,
    FormatError,
    FrozenSlots,
    check_int,
    int_text,
    resolve_width,
)
from .minifloat import PRESETS, MinifloatSpec


class _TaperedFormat(FrozenSlots):
    """A posit or takum handle: width n, or the whole family when n is None.

    A bare handle decodes at any width; one width's questions need it given.

    The family's codec module is a ClassVar, not a field: a handle compares,
    hashes and pickles by its fields, and a module does not pickle.
    """

    __slots__ = _fields = ("n",)
    n: int | None

    codec: ClassVar[ModuleType]

    def __init__(self, n: int | None = None):
        if n is not None:
            check_int(n, self.codec.MIN_WIDTH, f"{self.family} width")
        super().__init__(n)

    @property
    def family(self) -> str:
        return self.codec.__name__.rpartition(".")[2]

    @property
    def name(self) -> str:
        return f"{self.family}{self.n}" if self.n else self.family

    @property
    def width(self) -> int | None:
        return self.n

    def _check_width(self, n: int) -> None:
        """Refuse a non-int width, or one above a sized handle's own; any width up to it decodes."""
        if type(n) is not int:
            check_int(n, None, "width")
        if self.n is not None and n > self.n:
            raise FormatError(f"width {int_text(n)} conflicts with {self.name}")

    def decode(self, bits: BitString) -> DyadicValue:
        """The codec's decode of bits of any width up to a sized handle's own."""
        self._check_width(bits.width)
        return self.codec.decode(bits)

    def decode_patterns(self, n: int, patterns):
        """The codec's decode_uint of each n-bit pattern, lazily: its decode_uints.

        A sized handle refuses widths above its own; the gap ladder climbs those below.
        """
        self._check_width(n)
        return self.codec.decode_uints(patterns, n)

    def closed_form(self, n: int | None = None) -> int:
        """The codec's largest_consecutive at resolve_width(self, n)."""
        return self.codec.largest_consecutive(resolve_width(self, n))

    def precision_profile(self) -> list[tuple[int, int]]:
        """(exponent, non-fraction bits) for each coded exponent at the width.

        The rows span the smallest to the largest coded exponent (the codec's
        exponent_range), so some exponents in between have no pattern of the width.
        """
        exponents = self.codec.exponent_range(resolve_width(self))
        return [(e, self.codec.non_fraction_bits(e)) for e in exponents]


class PositFormat(_TaperedFormat):
    __slots__ = ()
    codec = posit


class TakumFormat(_TaperedFormat):
    __slots__ = ()
    codec = takum


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


def decode(fmt: FormatSpec, bits: BitString) -> DyadicValue:
    """Decode bits in the given format: the handle's own decode.

    Minifloats require their exact width; posit/takum accept any length up
    to the handle's width (appended zeros never change the value).
    """
    return fmt.decode(bits)


def signed_integer_count(width: int) -> int:
    """Positive integers of width-bit two's complement: 2^(width-1) - 1."""
    return (1 << (width - 1)) - 1
