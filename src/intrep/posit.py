"""Posit codec and integer-representability results.

Bit layout of an n-bit posit (MSB first):

    S | R ... R | ~R | E1 E0 | F ...
        regime   term  2-bit    fraction (n - k - 4 bits, clamped at 0)

The regime is the run of k identical bits after the sign, terminated by the
complementary bit.  With regime value r (-k if the run is of zeros, k-1 if of
ones) and 2-bit exponent field e = 2*E1 + E0, the coded exponent is
(-1)^S * (4r + e + S) and the value is ((1 - 3S) + f) * 2^exponent for
fraction f in [0, 1).  A string whose non-sign bits are all zero is 0 (S=0)
or NaR (S=1).  Short strings decode via zero-extension, so every value keeps
its meaning under appended zeros.

decode_uint(u, n) decodes an n-bit pattern held as a plain integer, and
decode_uints(patterns, n) decodes many patterns of one width; both run the
one decode body, _decode, and decode(BitString) wraps decode_uint.
encode_uint(m) gives the shortest pattern of the integer m as (u, width),
and encode_integer(m) wraps it in a BitString.  _code(e), the regime run,
termination bit and exponent field that code the exponent e, is the one
statement of the layout outside _decode: the encoder builds its patterns
from it, and non_fraction_bits counts its length from its run, _run(e).
"""

from __future__ import annotations

from itertools import repeat

from .core import (
    DEFAULT_MAX_BITS,
    BitString,
    DyadicValue,
    check_int,
    does_not_fit,
    encode_shortest,
)

MIN_WIDTH = 3


def decode_uint(u: int, n: int) -> tuple[int, int, int] | None:
    """Exact value of the n-bit posit pattern u: a DyadicValue's fields, or None for NaR."""
    if type(n) is not int or n < 1:
        check_int(n, 1, "width")
    return _decode(u, n - 1, (1 << (n - 1)) - 1)


def decode_uints(patterns, n: int):
    """decode_uint of each n-bit pattern, lazily and in order: the layout is worked out once."""
    if type(n) is not int or n < 1:
        check_int(n, 1, "width")
    return map(_decode, patterns, repeat(n - 1), repeat((1 << (n - 1)) - 1))


def _decode(u: int, body_bits: int, body_mask: int) -> tuple[int, int, int] | None:
    """decode_uint's arithmetic, given the layout of the width n: n - 1 and 2^(n-1) - 1.

    The regime run is the leading-bit count of the pattern after the sign,
    XOR-ed with its first bit so that either run reads as zeros.  The p
    fraction bits after a run of k are masked by body_mask >> (k + 3), which
    is 2^p - 1: the body less the run, its termination bit and the two
    exponent bits.  An odd numerator, which every odd pattern with a
    fraction bit has, is canonical as it stands; only an even one moves its
    trailing zeros into the exponent.
    """
    s = u >> body_bits
    if s >> 1:  # u < 0 or u >= 2^n: the sign "bit" is neither 0 nor 1
        raise does_not_fit(u, body_bits + 1)
    body = u & body_mask
    if not body:
        return None if s else (1, 0, 0)
    if body >> (body_bits - 1):
        k = body_bits - (body ^ body_mask).bit_length()
        regime = k - 1
    else:
        k = body_bits - body.bit_length()
        regime = -k
    # Bits after the termination bit; -1 when the run fills the pattern.
    rest = body_bits - 1 - k
    if rest >= 2:
        p = rest - 2
        exp_field = (u >> p) & 3
        frac = u & (body_mask >> (k + 3))
    else:
        p = frac = 0
        exp_field = (u << (2 - rest)) & 3  # ghost zeros complete the field
    # value = ((1 - 3s) + frac/2^p) * 2^exponent, kept exact as numer * 2^(exponent-p)
    if s:
        numer = (2 << p) - frac
        exponent = -(4 * regime + exp_field + 1) - p
    else:
        numer = (1 << p) + frac
        exponent = 4 * regime + exp_field - p
    if numer & 1:  # canonical already: no zeros to move into the exponent
        return (-1 if s else 1), numer, exponent
    shift = (numer & -numer).bit_length() - 1  # trailing_zero_count(numer), one call fewer
    return (-1 if s else 1), numer >> shift, exponent + shift


def decode(bits: BitString) -> DyadicValue:
    """Exact value of a posit bit string of any length >= 1."""
    # The slots, not the uint and width properties, each of which is a
    # Python function call per read.
    return DyadicValue.from_triple(decode_uint(bits._value, bits._width))


def min_length(m: int) -> int:
    """Fewest posit bits that represent the integer m exactly: 1 for m = 0, the pattern "0".

    The closed form on m's profile (v, w), the one the encoder checks its
    pattern against.  FormatError when m is not an int.
    """
    if type(m) is not int:
        check_int(m, None, "m")
    a = abs(m)
    return _length(a.bit_length(), (a & -a).bit_length() - 1, m)  # integer_profile(m), inline


def _length(v: int, w: int, m: int) -> int:
    """min_length of an integer with bit length v and w trailing zeros, (0, -1) for zero.

    The shared closed form of min_length and encode_uint; m, the integer
    itself, is unused, as every integer has a posit.
    """
    length = (5 * (v + 3)) // 4 - w
    if w != v - 1:
        return length
    # No fraction bits: the exponent field's trailing zeros go too.
    if not v:
        return 1  # zero, the pattern "0"
    if v % 4 == 1:
        length -= 3  # termination bit and both exponent bits
    elif v % 4 == 3:
        length -= 1  # low exponent bit only
    return length


def encode_uint(m: int, max_bits: int = DEFAULT_MAX_BITS) -> tuple[int, int]:
    """Shortest posit pattern decoding exactly to the integer m, as (u, width).

    Returns (0, 1), the pattern "0", for m = 0.  Raises CapacityError when
    the shortest representation would exceed max_bits.
    """
    return encode_shortest(m, max_bits, "posit", _length, _code)


def encode_integer(m: int, max_bits: int = DEFAULT_MAX_BITS) -> BitString:
    """encode_uint(m, max_bits) as a bit string: "0" for m = 0."""
    return BitString.from_uint(*encode_uint(m, max_bits))


def _run(e: int) -> int:
    """Regime run length for the coded exponent e: e // 4 + 1 ones, or -(e // 4) zeros if e < 0."""
    return e // 4 + 1 if e >= 0 else -(e // 4)


def _code(e: int) -> tuple[int, int]:
    """(bits, length) between the sign and the fraction of a posit with coded exponent e.

    The regime run of _run(e) bits, ones for e >= 0 and zeros below, its
    termination bit and the exponent field e mod 4.
    """
    k = _run(e)
    if e >= 0:
        return (((1 << k) - 1) << 3) | e % 4, k + 3
    return 4 | e % 4, k + 3


def largest_consecutive(n: int) -> int:
    """Largest k such that every integer in [-k, k] fits in an n-bit posit."""
    check_int(n, MIN_WIDTH, "posit width")
    return 1 << (4 * (n - 3) // 5)


def non_fraction_bits(exponent: int) -> int:
    """Bits an n-large posit spends on sign, regime, termination, and exponent.

    The sign and the length of the exponent's code, _code(e), counted from
    its run without building its bits.  FormatError when e is not an int.
    """
    if type(exponent) is not int:
        check_int(exponent, None, "exponent")
    return 4 + _run(exponent)


def exponent_range(n: int) -> range:
    """Smallest to largest coded exponent of n-bit posits: [-(4n-7), 4n-8].

    The ends are 0 1^(n-1) = 2^(4n-8) and 1^n = -2^-(4n-8), whose coded
    exponent is one lower because a negative value is (-2 + f) * 2^exponent.
    Some exponents in between have no n-bit pattern: posit8 has none at 21,
    22, -22 and -23.
    """
    check_int(n, MIN_WIDTH, "posit width")
    top = 4 * n - 8
    return range(-top - 1, top + 1)
