"""Linear takum codec and integer-representability results.

Bit layout of an n-bit takum (MSB first):

    S | D | R2 R1 R0 | C ... C | F ...
       dir   3-bit     r bits    fraction (n - r - 5 bits, clamped at 0)

With direction bit D = 1 the regime field R gives r directly and the
characteristic is c = 2^r - 1 + C; with D = 0 it gives r as the value of the
complemented regime bits and c = -2^(r+1) + 1 + C.  Either way c lies in
[-255, 254], the coded exponent is (-1)^S * (c + S), and the value is
((1 - 3S) + f) * 2^exponent for fraction f in [0, 1).  A string whose
non-sign bits are all zero is 0 (S=0) or NaR (S=1).  Short strings decode
via zero-extension, exactly as posits do.

decode_uint(u, n) decodes an n-bit pattern held as a plain integer, and
decode_uints(patterns, n) decodes many patterns of one width; both run the
one decode body, _decode, and decode(BitString) wraps decode_uint.
encode_uint(m) gives the shortest pattern of the integer m as (u, width),
and encode_integer(m) wraps it in a BitString.  _code(e), the direction,
regime and characteristic bits that code the exponent e, is the one
statement of the layout outside _decode: the encoder builds its patterns
from it, and non_fraction_bits counts it.  lambert_w0, which
consecutive_exponent_analytic reads, is one Newton iteration on the log
form of w * e^w = x for every x.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat

from .core import (
    DEFAULT_MAX_BITS,
    BitString,
    DomainError,
    DyadicValue,
    check_int,
    does_not_fit,
    encode_shortest,
    int_text,
    trailing_zero_count,
)

MIN_EXPONENT = -255
MAX_EXPONENT = 254
MIN_WIDTH = 5
LAMBERT_W0_ITERATIONS = 100  # Newton steps before lambert_w0 gives up


def decode_uint(u: int, n: int) -> tuple[int, int, int] | None:
    """Exact value of the n-bit takum pattern u: a DyadicValue's fields, or None for NaR."""
    if type(n) is not int or n < 1:
        check_int(n, 1, "width")
    if n < 12:
        return _decode(u, n - 1, 12 - n, 0, 0x7FF)
    return _decode(u, n - 1, 0, n - 12, (1 << (n - 1)) - 1)


def decode_uints(patterns, n: int):
    """decode_uint of each n-bit pattern, lazily and in order: the layout is worked out once."""
    if type(n) is not int or n < 1:
        check_int(n, 1, "width")
    if n < 12:
        layout = n - 1, 12 - n, 0, 0x7FF
    else:
        layout = n - 1, 0, n - 12, (1 << (n - 1)) - 1
    return map(_decode, patterns, *map(repeat, layout))


def _decode(
    u: int, sign_shift: int, pad: int, header_shift: int, body_mask: int
) -> tuple[int, int, int] | None:
    """decode_uint's arithmetic, given the layout of the width n.

    A pattern shorter than the 12-bit header (sign, direction, regime and
    up to 7 characteristic bits) is zero-extended to it first, by pad bits.
    The layout is n - 1, pad, then the header's shift and the mask of the
    bits after the sign at the extended width max(n, 12).  The p fraction
    bits after a characteristic of r bits are masked by body_mask >> (4 + r),
    which is 2^p - 1: the body less the direction, regime and characteristic
    bits.  An odd numerator, which every odd pattern of 12 bits or more with
    a fraction bit has, is canonical as it stands; only an even one moves
    its trailing zeros into the exponent.
    """
    s = u >> sign_shift
    if s >> 1:  # u < 0 or u >= 2^n: the sign "bit" is neither 0 nor 1
        raise does_not_fit(u, sign_shift + 1)
    u <<= pad
    if not u & body_mask:
        return None if s else (1, 0, 0)
    header = u >> header_shift
    r = (header >> 7) & 7
    if header & 0x400:  # direction bit D
        characteristic = (1 << r) - 1
    else:
        r = 7 - r
        characteristic = 1 - (2 << r)
    characteristic += (header >> (7 - r)) & ((1 << r) - 1)
    p = header_shift + 7 - r  # the extended width less 5 + r header bits
    frac = u & (body_mask >> (4 + r))
    if s:
        numer = (2 << p) - frac
        exponent = -(characteristic + 1) - p
    else:
        numer = (1 << p) + frac
        exponent = characteristic - p
    if numer & 1:  # canonical already: no zeros to move into the exponent
        return (-1 if s else 1), numer, exponent
    shift = (numer & -numer).bit_length() - 1  # trailing_zero_count(numer), one call fewer
    return (-1 if s else 1), numer >> shift, exponent + shift


def decode(bits: BitString) -> DyadicValue:
    """Exact value of a takum bit string of any length >= 1."""
    # The slots, not the uint and width properties, each of which is a
    # Python function call per read.
    return DyadicValue.from_triple(decode_uint(bits._value, bits._width))


def min_length(m: int) -> int:
    """Fewest takum bits that represent the integer m exactly: 1 for m = 0, the pattern "0".

    The closed form on m's profile (v, w), the one the encoder checks its
    pattern against.  FormatError when m is not an int, DomainError when
    |m| >= 2^255.
    """
    if type(m) is not int:
        check_int(m, None, "m")
    a = abs(m)
    return _length(a.bit_length(), (a & -a).bit_length() - 1, m)  # integer_profile(m), inline


def _length(v: int, w: int, m: int) -> int:
    """min_length of the integer m, with bit length v and w trailing zeros, (0, -1) for zero.

    The shared closed form of min_length and encode_uint; m only names the
    integer when it is out of range.
    """
    # An integer of bit length v has exponent v - 1, and the characteristic
    # reaches MAX_EXPONENT, so |m| < 2^255 is in range with enough fraction bits.
    if v > MAX_EXPONENT + 1:
        raise DomainError(
            f"|m| >= 2^{MAX_EXPONENT + 1} exceeds the takum exponent range: {int_text(m)}"
        )
    r = v.bit_length() - 1  # floor(log2 v)
    length = 4 + v - w + r
    if w != v - 1:
        return length
    # No fraction bits; trailing zeros of the characteristic go too.
    if not v:
        return 1  # zero, the pattern "0"
    characteristic = v - (1 << r)
    if characteristic == 0:
        # All r characteristic bits are zero, and the regime's own
        # trailing zeros (all 3 bits when r = 0) come off as well.
        length -= r
        length -= 3 if r == 0 else trailing_zero_count(r)
    else:
        length -= trailing_zero_count(characteristic)
    return length


def encode_uint(m: int, max_bits: int = DEFAULT_MAX_BITS) -> tuple[int, int]:
    """Shortest takum pattern decoding exactly to the integer m, as (u, width).

    Returns (0, 1), the pattern "0", for m = 0.  Raises DomainError when
    |m| >= 2^255 and CapacityError when the shortest representation would
    exceed max_bits.
    """
    return encode_shortest(m, max_bits, "takum", _length, _code)


def encode_integer(m: int, max_bits: int = DEFAULT_MAX_BITS) -> BitString:
    """encode_uint(m, max_bits) as a bit string: "0" for m = 0."""
    return BitString.from_uint(*encode_uint(m, max_bits))


def _code(e: int) -> tuple[int, int]:
    """(bits, length) between the sign and the fraction of a takum with coded exponent e.

    The direction bit, the 3-bit regime and the r characteristic bits, r the
    floor of log2(e + 1) for e >= 0 and of log2(-e) for e < 0.  The code of
    e = -255 is 11 zeros, so no pattern is 2^-255: behind a 0 sign bit it is 0.
    """
    if e >= 0:
        r = (e + 1).bit_length() - 1
        return ((8 | r) << r) | (e + 1 - (1 << r)), 4 + r
    r = (-e).bit_length() - 1
    return ((7 - r) << r) | (e + (2 << r) - 1), 4 + r


def consecutive_exponent(n: int) -> int:
    """Largest v with v * 2^v < 2^(n-3), by exact big-integer search.

    The paper's formula.  From n = 266 on, v reaches 255, past the takum
    exponent range, so largest_consecutive is no longer 2^v there.  The
    search starts at v = n - 3 - L, L the bit length of n - 3, or at 1: there
    log2 v < L, so v * 2^v < 2^(n-3) already, and a few steps remain.
    """
    check_int(n, MIN_WIDTH, "takum width")
    bound = 1 << (n - 3)
    v = max(1, n - 3 - (n - 3).bit_length())
    while (v + 1) << (v + 1) < bound:
        v += 1
    assert (v << v) < bound <= ((v + 1) << (v + 1))
    return v


def largest_consecutive(n: int) -> int:
    """Largest k such that every integer in [-k, k] fits in an n-bit takum.

    2^consecutive_exponent(n), capped at 2^255 - 1: every integer below 2^255
    in magnitude fits in 266 bits, and 2^255 fits in none.
    """
    return min(1 << consecutive_exponent(n), (1 << (MAX_EXPONENT + 1)) - 1)


def lambert_w0(x: float) -> float:
    """Principal branch W0 for finite x >= 0: the w with w * e^w = x.

    Newton steps on f = w + log(w) - log(x), the log of w * e^w / x, which
    never overflows, return w once |f| <= 1e-12, else raise ArithmeticError.
    Seeded with log(x) - log(log(x)) for x > e and with x itself below that.
    """
    try:
        finite = 0 <= x < math.inf
    except TypeError:  # a str or None, which no number compares with
        finite = False
    if not finite:
        raise DomainError(f"lambert_w0 needs finite x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    log_x = math.log(x)
    w = log_x - math.log(log_x) if x > math.e else x
    for _ in range(LAMBERT_W0_ITERATIONS):
        f = w + math.log(w) - log_x
        if abs(f) <= 1e-12:
            return w
        w -= f * w / (w + 1.0)  # Newton's method for f
    raise ArithmeticError(f"lambert_w0 did not converge for x={x}")


def consecutive_exponent_analytic(n: int) -> int:
    """The exponent of largest_consecutive as ceil(W0(2^(n-3) ln2)/ln2 - 1).

    Double-precision cross-check of consecutive_exponent: the argument of the
    ceiling is an exact integer whenever 2^(n-3) equals some v * 2^v (n = 6,
    9, 14, 23, 40, ...), so results within 1e-9 above an integer snap down to
    it; W0 is evaluated far more accurately than that.  DomainError from
    n = 1027 on, where 2^(n-3) is past double range.
    """
    check_int(n, MIN_WIDTH, "takum width")
    if n - 3 >= sys.float_info.max_exp:
        raise DomainError(f"2^(n-3) overflows double precision for n={n}")
    x = math.log(2.0) * math.pow(2.0, n - 3)
    t = lambert_w0(x) / math.log(2.0) - 1.0
    return math.ceil(t - 1e-9)


def non_fraction_bits(exponent: int) -> int:
    """Bits a takum spends on sign, direction, regime, and characteristic.

    The sign and the exponent's code, _code(e).  FormatError when e is not
    an int, DomainError when it lies outside [-255, 254].
    """
    if type(exponent) is not int:
        check_int(exponent, None, "exponent")
    if not MIN_EXPONENT <= exponent <= MAX_EXPONENT:
        raise DomainError(f"takum exponent out of range: {int_text(exponent)}")
    return 1 + _code(exponent)[1]


def exponent_range(n: int) -> range:
    """Smallest to largest coded exponent of n-bit takums: [-(c+1), c].

    c = 254 from n = 12 on.  Below 12 bits, some exponents in between have no
    n-bit pattern: takum8 reaches 156 of the 480 in [-240, 239].
    """
    check_int(n, MIN_WIDTH, "takum width")
    # c is the characteristic of the largest pattern 0 1^(n-1), zero-extended to 12 bits.
    c = MAX_EXPONENT + 1 - (1 << max(12 - n, 0))
    return range(-(c + 1), c + 1)
