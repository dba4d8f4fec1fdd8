"""IEEE-754-style minifloat codec: sign | exponent | fraction.

Covers classic binary interchange formats (float16/32/64/128), bfloat16, and
the OFP8 8-bit formats E4M3 and E5M2.  The formats differ in how the all-ones
exponent field is spent, captured by SpecialValues:

  IEEE  - all-ones exponent encodes infinities and NaNs (all collapse to NaR)
  E4M3  - no infinities; the single NaN has exponent and fraction all ones,
          every other all-ones-exponent pattern is an ordinary normal number
  NONE  - no special patterns at all; all-ones exponent is an ordinary normal

decode_uint(spec, u) decodes a pattern held as a plain integer, and
decode_uints(spec, patterns) decodes many; both run the one decode body,
_decode, on the layout the spec worked out when it was built, and
decode(spec, BitString), which the spec's decode member calls, checks the
width and wraps decode_uint.
"""

from __future__ import annotations

import enum
from itertools import repeat

from .core import (
    BitString,
    DomainError,
    DyadicValue,
    FormatError,
    FrozenSlots,
    check_int,
    check_width,
    int_text,
    resolve_width,
)


class SpecialValues(enum.Enum):
    IEEE = "ieee"
    E4M3 = "e4m3"
    NONE = "none"


class MinifloatSpec(FrozenSlots):
    """Shape of a minifloat format: exponent bits, fraction bits, bias, specials.

    It is also the format's handle, with the members formats.py relies on.
    """

    _fields = ("exponent_bits", "fraction_bits", "bias", "special")
    # _layout, outside _fields, is the decode body's arguments after the
    # pattern: set once here, it leaves equality, hash and pickling alone.
    __slots__ = (*_fields, "_layout")
    exponent_bits: int
    fraction_bits: int
    bias: int
    special: SpecialValues

    def __init__(
        self,
        exponent_bits: int,
        fraction_bits: int,
        bias: int,
        special: SpecialValues = SpecialValues.IEEE,
    ):
        super().__init__(exponent_bits, fraction_bits, bias, special)
        shape = (exponent_bits, fraction_bits, bias)
        typed = isinstance(special, SpecialValues) and all(type(x) is int for x in shape)
        if not typed or exponent_bits < 1 or fraction_bits < 0:
            raise FormatError(f"impossible minifloat shape: {self}")
        frac_mask = (1 << fraction_bits) - 1
        # Under an all-ones exponent field, the fractions from nar_from up are NaR.
        if special is SpecialValues.IEEE:
            nar_from = 0  # infinities and NaNs
        elif special is SpecialValues.E4M3:
            nar_from = frac_mask  # the single NaN
        else:
            nar_from = frac_mask + 1  # none
        layout = (
            exponent_bits + fraction_bits,
            fraction_bits,
            (1 << exponent_bits) - 1,
            frac_mask,
            nar_from,
            frac_mask + 1,
            bias + fraction_bits,
        )
        object.__setattr__(self, "_layout", layout)

    @property
    def width(self) -> int:
        return 1 + self.exponent_bits + self.fraction_bits

    @property
    def min_normal_exponent(self) -> int:
        return 1 - self.bias

    @property
    def max_normal_exponent(self) -> int:
        """Largest unbiased exponent of a finite normal number."""
        _, _, all_ones, _, nar_from, _, _ = self._layout
        # The all-ones exponent field is lost only if every fraction under it is NaR.
        return all_ones - (nar_from == 0) - self.bias

    @property
    def name(self) -> str:
        for name, spec in PRESETS.items():
            if spec == self:
                return name
        s = self
        return f"minifloat(e={s.exponent_bits},f={s.fraction_bits},bias={s.bias},{s.special.value})"

    @property
    def codec(self):
        """A posit or takum handle's variable-length codec module; a minifloat has none."""
        raise FormatError(f"{self.name} has no variable-length encoding")

    def decode(self, bits: BitString) -> DyadicValue:
        """decode(self, bits): bits must be of its width."""
        return decode(self, bits)

    def ladder_decode(self, w: int, patterns):
        """decode_uints of width-w patterns in sign-magnitude order, w up to its width n.

        Width-w pattern u is the spec's u << (n - w) below 2^(w-1) and
        sign | (2^w - u) << (n - w) above it, so appended zeros keep its value,
        and as a sign-magnitude value grows with its magnitude, values ascend
        within each sign half as a posit's do.  2^(w-1) is the spec's -0; from
        width 2 on it is even, as 0 is, so neither is ever a gap's u.
        """
        check_width(self, w)
        n = self.width
        shift, top, sign = n - w, 1 << w, 1 << (n - 1)
        return decode_uints(
            self, (u << shift if u < top >> 1 else sign | (top - u) << shift for u in patterns)
        )

    def closed_form(self, n: int | None = None) -> int:
        """largest_consecutive(self); n, if given, must be its width."""
        resolve_width(self, n)
        return largest_consecutive(self)

    def precision_profile(self) -> list[tuple[int, int]]:
        """(exponent, non-fraction bits) over the whole exponent domain."""
        lo, hi = exponent_domain(self)
        return [(e, non_fraction_bits(self, e)) for e in range(lo, hi + 1)]


PRESETS: dict[str, MinifloatSpec] = {
    "float16": MinifloatSpec(5, 10, 15),
    "bfloat16": MinifloatSpec(8, 7, 127),
    "float32": MinifloatSpec(8, 23, 127),
    "float64": MinifloatSpec(11, 52, 1023),
    "float128": MinifloatSpec(15, 112, 16383),
    "e4m3": MinifloatSpec(4, 3, 7, SpecialValues.E4M3),
    "e5m2": MinifloatSpec(5, 2, 15),
}


def decode_uint(spec: MinifloatSpec, u: int) -> tuple[int, int, int] | None:
    """Exact value of the pattern u: a DyadicValue's fields, or None for NaR.

    Both zeros decode to zero, and infinities and NaNs alike to NaR.
    """
    return _decode(u, *spec._layout)


def decode_uints(spec: MinifloatSpec, patterns):
    """decode_uint(spec, u) of each pattern, lazily, in order."""
    return map(_decode, patterns, *map(repeat, spec._layout))


def _decode(
    u: int,
    sign_shift: int,
    fraction_bits: int,
    all_ones: int,
    frac_mask: int,
    nar_from: int,
    hidden: int,
    offset: int,
) -> tuple[int, int, int] | None:
    """decode_uint's arithmetic, given the spec's layout (MinifloatSpec._layout).

    The layout is the sign's shift, the fraction bits, the all-ones exponent
    field and fraction mask, the least fraction that is NaR under an
    all-ones exponent field (past the mask when none is), the hidden bit,
    and bias + fraction_bits.  An odd numerator, which every odd pattern with
    a fraction bit has, is canonical as it stands; only an even one moves its
    trailing zeros into the exponent.
    """
    s = u >> sign_shift
    if s >> 1:  # u < 0 or u >= 2^width: the sign "bit" is neither 0 nor 1
        raise FormatError(f"{int_text(u)} does not fit in {sign_shift + 1} bits")
    exp_field = (u >> fraction_bits) & all_ones
    frac = u & frac_mask
    if exp_field == all_ones and frac >= nar_from:
        return None
    if exp_field:
        numer = hidden | frac
        exponent = exp_field - offset
    elif frac:  # subnormal: the exponent of the smallest normals
        numer = frac
        exponent = 1 - offset
    else:
        return (1, 0, 0)
    if numer & 1:  # canonical already: no zeros to move into the exponent
        return (-1 if s else 1), numer, exponent
    shift = (numer & -numer).bit_length() - 1  # trailing_zero_count(numer), one call fewer
    return (-1 if s else 1), numer >> shift, exponent + shift


def decode(spec: MinifloatSpec, bits: BitString) -> DyadicValue:
    """Exact value of a bit string in the given minifloat format."""
    resolve_width(spec, bits.width)
    return DyadicValue.from_triple(decode_uint(spec, bits.uint))


def largest_consecutive(spec: MinifloatSpec) -> int:
    """Largest k such that every integer in [-k, k] is representable.

    Closed form 2^(fraction_bits + 1), valid whenever that value is itself a
    finite normal number and the normal range starts at or below exponent 0
    (then every smaller integer is representable and integers above it fall
    into gaps of width >= 2).  Other shapes raise DomainError; the oracle
    settles them by enumeration.
    """
    target_exponent = spec.fraction_bits + 1
    if spec.min_normal_exponent > 0 or spec.max_normal_exponent < target_exponent:
        raise DomainError(f"no closed form for {spec}: normal exponents miss 0..{target_exponent}")
    return 1 << target_exponent


def non_fraction_bits(spec: MinifloatSpec, exponent: int) -> int:
    """Bits spent on sign and exponent at a given value exponent.

    Constant 1 + exponent_bits over the normal range; below it each step into
    the subnormals costs one leading fraction zero.  FormatError when the
    exponent is not an int or lies outside exponent_domain(spec).
    """
    if type(exponent) is not int:
        check_int(exponent, None, "exponent")
    lo, hi = exponent_domain(spec)
    if not lo <= exponent <= hi:
        raise FormatError(f"exponent {int_text(exponent)} outside [{lo}, {hi}] for {spec}")
    fixed = 1 + spec.exponent_bits
    if exponent >= spec.min_normal_exponent:
        return fixed
    return fixed + (spec.min_normal_exponent - exponent)


def exponent_domain(spec: MinifloatSpec) -> tuple[int, int]:
    """Smallest (subnormal) and largest (normal) value exponents of the format."""
    return spec.min_normal_exponent - spec.fraction_bits, spec.max_normal_exponent
