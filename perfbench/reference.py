"""Reference posit and takum decoders the benchmark checks answers against.

They share no code with `intrep`.  Negative patterns are decoded the way the
Posit Standard (2022) and the takum definition state it, as the negation of
the two's complement, whereas `intrep` decodes the raw bits with the
(1 - 3S) + f form, so the two routes meet only in the result.  Bits past the
end of a pattern read as zero.

A value is ("zero",), ("nar",) or (sign, odd significand, exponent of 2).
"""

from __future__ import annotations

ZERO = ("zero",)
NAR = ("nar",)


def _finite(sign: int, numerator: int, exponent: int) -> tuple[int, int, int]:
    shift = (numerator & -numerator).bit_length() - 1
    return (sign, numerator >> shift, exponent + shift)


def _split_sign(u: int, n: int):
    """(sign, bits after the sign of |pattern|), or a special value."""
    body_mask = (1 << (n - 1)) - 1
    if u & body_mask == 0:
        return NAR if u >> (n - 1) else ZERO
    sign = u >> (n - 1)
    if sign:
        u = -u & ((1 << n) - 1)
    return (-1 if sign else 1), u & body_mask


def _take(bits: int, width: int, count: int) -> tuple[int, int, int]:
    """Top `count` bits of a `width`-bit field (ghost zeros past its end), and the rest."""
    if count <= width:
        rest = width - count
        return bits >> rest, bits & ((1 << rest) - 1), rest
    return bits << (count - width), 0, 0


def posit(u: int, n: int):
    """Value of the n-bit posit pattern u (exponent size 2)."""
    split = _split_sign(u, n)
    if split in (ZERO, NAR):
        return split
    sign, bits = split
    width = n - 1
    first = bits >> (width - 1)
    # The regime is the run of bits equal to `first`, then one terminating bit.
    run_of = bits if first else ~bits & ((1 << width) - 1)
    run = width - ((run_of ^ ((1 << width) - 1)).bit_length())
    k = run - 1 if first else -run
    rest_width = max(0, width - run - 1)
    rest = bits & ((1 << rest_width) - 1)
    e, frac, frac_width = _take(rest, rest_width, 2)
    return _finite(sign, (1 << frac_width) | frac, 4 * k + e - frac_width)


def takum(u: int, n: int):
    """Value of the n-bit linear takum pattern u."""
    split = _split_sign(u, n)
    if split in (ZERO, NAR):
        return split
    sign, bits = split
    width = n - 1
    d, bits, width = _take(bits, width, 1)
    regime, bits, width = _take(bits, width, 3)
    r = regime if d else 7 - regime
    characteristic, frac, frac_width = _take(bits, width, r)
    if d:
        c = (1 << r) - 1 + characteristic
    else:
        c = -(1 << (r + 1)) + 1 + characteristic
    return _finite(sign, (1 << frac_width) | frac, c - frac_width)


DECODERS = {"posit": posit, "takum": takum}


def as_integer(value) -> int | None:
    """The integer a reference value stands for, or None if it is not one."""
    if value == ZERO:
        return 0
    if value == NAR or value[2] < 0:
        return None
    return value[0] * (value[1] << value[2])


def render(value) -> str:
    """The text `intrep decode` prints for a value."""
    if value == ZERO:
        return "0"
    if value == NAR:
        return "NaR"
    sign, significand, exponent = value
    if exponent >= 0 and significand.bit_length() + exponent <= 128:
        return str(sign * (significand << exponent))
    return f"{'-' if sign < 0 else ''}{significand}*2^{exponent}"
