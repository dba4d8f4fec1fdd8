"""Exhaustive brute-force verification of the closed-form results.

Everything here works by decoding pattern spaces — no shortcuts shared with
the formulas under test — so agreement between the two routes is meaningful
evidence.  Patterns are plain integers, decoded a width at a time by the
handle's ladder_decode, at most MAX_DECODES per question.  Its values do
not change under appended zeros and ascend with the pattern within each
sign half, 1..2^(n-1) - 1 and 2^(n-1) + 1..2^n - 1, so every question
climbs one gap ladder: it makes no gap without an integer strictly between
its neighbours' values one width down, and decodes a gap's odd pattern
only if the question's own rule keeps it; only the walk's rule counts
patterns, to end a run early where the count proves it.  The negation
closure and the round trip call the codec kernels directly; the first
checks zero and NaR by name.  Every sweep runs in the calling process.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf
from typing import NamedTuple

from . import minifloat, takum
from .core import (
    DEFAULT_MAX_BITS,
    BudgetError,
    DomainError,
    DyadicValue,
    check_int,
    resolve_width,
)
from .formats import FormatSpec, PositFormat, TakumFormat

MAX_DECODES = 1 << 24  # patterns one question may decode: a full 24-bit enumeration
MAX_ANALYTIC_N = 265  # widest takum whose consecutive integer is 2^consecutive_exponent(n)
E4M3_PUBLISHED = 32  # the widely quoted e4m3 largest consecutive integer
# The presets whose walk fits the budget: float32's would decode about 2^25 patterns.
MINIFLOAT_CHECKED = ("float16", "bfloat16", "e4m3", "e5m2")


class ConsecutiveReport(NamedTuple):
    """Largest k with every integer in [-k, k] representable at width n; -1 if not even 0 is."""

    format: FormatSpec
    n: int
    value: int
    exponent: int | None  # log2(value) when value is a power of two
    source: str  # always "oracle"; kept, as callers build the report positionally
    agreement: bool | None  # oracle vs closed form; None when no closed form applies


def _integers(values):
    """The integer of each decoded triple that is one, in order."""
    for value in values:
        if value is not None and value[2] >= 0:
            yield value[0] * (value[1] << value[2])


def _integers_at_width(fmt: FormatSpec, n: int, window: int) -> set[int]:
    """The integers in [-window, window] of the n-bit patterns, found as representable_set says."""
    holds = lambda gaps, _: [g for g in gaps if -window < g[2] and g[1] < window]
    ladder = _gap_ladder(fmt, n, holds)
    return {m for _, integers in ladder for m in integers if -window <= m <= window}


def _gap_ladder(fmt: FormatSpec, n: int, holds):
    """(width, integers of the patterns fmt.ladder_decode decoded at width) for width = 1..n.

    A gap (u, lo, hi) holds the odd pattern u and the integers lo < m < hi, lo
    the floor of u - 1's value, hi the ceiling of u + 1's (NaR: ±inf), and
    room = 2^(n - width + 1) - 1 n-bit patterns lie between the
    zero-extensions of u - 1 and u + 1.  holds(gaps, room) keeps a width's
    gaps with a wanted m inside, and their u are decoded; past width 1 each u
    is odd, so neither zero nor NaR.  A finite value x inside cuts the gap at
    floor x and ceil x, dropping a child with no integer inside, so no gap
    lies between 0 and ±1; after NaR, zero or a value outside, both children
    keep (lo, hi): none widens its parent, so values out of order could only
    hide integers.  Width 1's gap is (0, -1, 1).  The climb ends early once
    no gap is live, and raises BudgetError before decoding past MAX_DECODES
    patterns in all.
    """
    live = list(holds([(0, -1, 1)], 1))
    spent = len(live)
    yield 1, _integers(fmt.ladder_decode(1, (g[0] for g in live)))
    gaps = [(1, 0, inf), (3, -inf, 0)]  # 01 and 11: between zero, NaR and zero again
    for width in range(2, n + 1):
        room = (2 << (n - width)) - 1
        live = list(holds(gaps, room))  # read twice below; holds may be a generator
        if not live:
            return
        spent += len(live)
        if spent > MAX_DECODES:
            raise BudgetError(f"{spent} decodes to width {width}, over the budget of {MAX_DECODES}")
        values = fmt.ladder_decode(width, (g[0] for g in live))
        if width == n:  # no width is left to cut gaps for
            yield width, _integers(values)
            return
        gaps, integers = [], []
        for (u, lo, hi), value in zip(live, values):
            if value is not None:
                x, e = value[0] * value[1], value[2]
                if e >= 0:
                    below = above = x << e
                    integers.append(below)
                else:
                    below, above = x >> -e, -(-x >> -e)
                if lo < above and below < hi:
                    if above - lo > 1:
                        gaps.append((2 * u - 1, lo, above))
                    if hi - below > 1:
                        gaps.append((2 * u + 1, below, hi))
                    continue
            gaps += (2 * u - 1, lo, hi), (2 * u + 1, lo, hi)
        yield width, integers


def representable_set(fmt: FormatSpec, n: int | None = None, *, window: int) -> tuple[int, ...]:
    """The representable integers in [-window, window] at width n, ascending.

    The gap ladder climbs to width n (a minifloat's: its own width) and
    decodes only the odd patterns with an integer of the window between
    their neighbours.
    """
    width = resolve_width(fmt, n)
    check_int(window, 1, "window")
    return tuple(sorted(_integers_at_width(fmt, width, window)))


def largest_consecutive(
    fmt: FormatSpec, n: int | None = None, workers: int | None = None
) -> ConsecutiveReport:
    """Largest consecutive integer from the width-n patterns, checked against the closed form.

    The value is the largest k with [-k, k] representable, the last k of
    _consecutive_walk to width n.
    workers is ignored.
    """
    width = resolve_width(fmt, n)
    *_, (_, k) = _consecutive_walk(fmt, width)
    try:
        closed = fmt.closed_form(width)
    except DomainError:  # the format's shape has no closed form
        closed = None
    exponent = k.bit_length() - 1 if k > 0 and k & (k - 1) == 0 else None
    agreement = None if closed is None else (closed == k)
    return ConsecutiveReport(fmt, width, k, exponent, "oracle", agreement)


def min_length_table(fmt: FormatSpec, targets) -> dict[int, int | None]:
    """Minimal representation lengths for many integers in one sweep.

    Climbs the gap ladder, keeping a width's gaps with a target inside; a
    found one is a pattern's value, which bounds gaps and lies inside none,
    so once every target is found the widths left decode nothing.  A target
    0 is 1 if the 1-bit pattern 0, which every pattern 0 extends, is zero.
    Entries left None have no pattern within a sized handle's width, past
    which it has no patterns, or within DEFAULT_MAX_BITS for a bare one.
    """
    fmt.codec  # refuses a minifloat, which has no variable-length encoding
    targets = [check_int(m, None, "target") for m in targets]
    lengths: dict[int, int | None] = dict.fromkeys(targets)
    wanted = [*sorted(lengths), inf]  # the sentinel: every lo has a least wanted above it
    holds = lambda gaps, _: [g for g in gaps if wanted[bisect_right(wanted, g[1])] < g[2]]
    for width, integers in _gap_ladder(fmt, fmt.width or DEFAULT_MAX_BITS, holds):
        for m in integers:
            if m in lengths and lengths[m] is None:
                lengths[m] = width
    return lengths


def min_length(fmt: FormatSpec, m: int) -> int | None:
    """Minimal bits representing m exactly, or None as min_length_table leaves it."""
    return min_length_table(fmt, [m])[m]


class CheckResult(NamedTuple):
    """Outcome of one formula-vs-oracle suite."""

    name: str
    passed: bool
    detail: str
    note: bool = False  # informational line, never counted as a failure


def _consecutive_walk(fmt: FormatSpec, max_n: int):
    """(n, largest consecutive integer at width n) for n = 2..max_n, in one pass.

    The integers of width n are those of width n - 1 and of its odd patterns,
    so k never decreases.  The ladder wants |m| <= window, first 2^max_n, as
    k < 2^(n-1).  A gap with more integers than room proves one missing
    (the order premise's second use), so the run ends below
    max(hi - 1, -lo - 1): the window shrinks to it, which bounds every k of
    the walk.
    """
    window = 1 << max_n

    def holds(gaps, room):
        nonlocal window
        for g in gaps:  # (u, lo, hi), yielded as is: a copy would double a width's gaps
            if g[2] - g[1] - 1 > room:
                window = min(window, max(g[2] - 1, -g[1] - 1))
            if -window < g[2] and g[1] < window:
                yield g

    found, k = set(), -1
    for n, integers in _gap_ladder(fmt, max_n, holds):
        found.update(integers)
        while k + 1 in found and -(k + 1) in found:
            k += 1
        if n > 1:
            yield n, k


def _check_consecutive(name: str, answers) -> CheckResult:
    """Fails at the first (label, oracle k, closed form) of answers that disagree."""
    for label, k, closed in answers:
        if k != closed:
            return CheckResult(name, False, f"{label}: closed form {closed}, oracle {k}")
    return CheckResult(name, True, "exact agreement")


def _check_tapered_consecutive(handle: type[PositFormat | TakumFormat], max_n: int) -> CheckResult:
    check_int(max_n, takum.MIN_WIDTH, "max_n")
    fmt = handle()
    name = f"{fmt.family} largest-consecutive formula vs oracle, n={takum.MIN_WIDTH}..{max_n}"
    walk = _consecutive_walk(fmt, max_n)
    answers = ((f"n={n}", k, fmt.closed_form(n)) for n, k in walk if n >= takum.MIN_WIDTH)
    return _check_consecutive(name, answers)


def check_posit_consecutive(max_n: int = 16) -> CheckResult:
    return _check_tapered_consecutive(PositFormat, max_n)


def check_takum_consecutive(max_n: int = 16) -> CheckResult:
    return _check_tapered_consecutive(TakumFormat, max_n)


def check_minifloat_consecutive() -> CheckResult:
    """Every preset of MINIFLOAT_CHECKED, whatever max_n."""
    name = f"minifloat largest-consecutive vs oracle ({', '.join(MINIFLOAT_CHECKED)})"
    specs = ((p, minifloat.PRESETS[p]) for p in MINIFLOAT_CHECKED)
    answers = ((p, largest_consecutive(s).value, s.closed_form()) for p, s in specs)
    return _check_consecutive(name, answers)


def check_min_length(fmt: FormatSpec, max_m: int = 4096) -> CheckResult:
    """The formula against the oracle's table for m = 1..max_m; the table takes no bound from it."""
    name = f"{fmt.name} min-length formula vs oracle, m=1..{max_m}"
    check_int(max_m, 1, "max_m")
    formula = {m: fmt.codec.min_length(m) for m in range(1, max_m + 1)}
    table = min_length_table(fmt, formula)
    for m, expected in formula.items():
        if table[m] != expected:
            return CheckResult(name, False, f"m={m}: formula {expected}, oracle {table[m]}")
    return CheckResult(name, True, "exact agreement")


def _negated(value: tuple[int, int, int] | None) -> tuple[int, int, int] | None:
    """The decode_uint triple of -value; zero and NaR (None) are their own negatives."""
    return value if value is None or not value[1] else (-value[0], value[1], value[2])


def _least_unnegated(codec, n: int, step: int) -> int | None:
    """The least wrong n-bit p, or None: 0 not zero, 2^n - p not -p, or 2^(n-1) not NaR."""
    half = 1 << (n - 1)
    if codec.decode_uint(0, n) != (1, 0, 0):
        return 0
    ps, negatives = range(1, half, step), range(2 * half - 1, half, -step)
    for p, value, negative in zip(ps, codec.decode_uints(ps, n), codec.decode_uints(negatives, n)):
        if negative != _negated(value):
            return p
    return None if codec.decode_uint(half, n) is None else half


def check_negation_closure(max_n: int = 14) -> CheckResult:
    """Every pattern's two's complement decodes to its negative.

    0 and 2^(n-1), their own two's complements, must be zero and NaR; every
    other p in [1, 2^(n-1)) pairs with 2^n - p, the p in one lazy batch and
    their negatives in another.  Past the first width, p runs over the odd
    patterns only: an even pair 2q, 2^n - 2q is the (n-1)-bit pair q,
    2^(n-1) - q zero-extended, checked one width before.  A failure names
    the least wrong p; 2^max_n > MAX_DECODES is refused before any decode.
    """
    check_int(max_n, takum.MIN_WIDTH, "max_n")
    if 1 << max_n > MAX_DECODES:
        detail = f"decodes 2^{max_n} patterns, past the budget of {MAX_DECODES}"
        raise BudgetError(f"negation closure to n={max_n} {detail}")
    name = f"two's-complement negation closure, n={takum.MIN_WIDTH}..{max_n}"
    for fmt in (PositFormat(), TakumFormat()):
        for n in range(takum.MIN_WIDTH, max_n + 1):
            p = _least_unnegated(fmt.codec, n, 1 if n == takum.MIN_WIDTH else 2)
            if p is not None:
                return CheckResult(name, False, f"{fmt.family} pattern {p:0{n}b} at n={n}")
    return CheckResult(name, True, "negation holds for every finite pattern")


def check_round_trip(max_m: int = 4096) -> CheckResult:
    """Each |m| <= max_m encodes, at min_length(m) bits, to a pattern decoding to m.

    Patterns stay plain (u, width) integers, through the codec's encode_uint
    and decode_uint; a value is built only to name a failing decode.
    """
    name = f"encode/decode round trip with minimal width, |m|<={max_m}"
    check_int(max_m, 1, "max_m")
    for fmt in (PositFormat(), TakumFormat()):
        encode, decode = fmt.codec.encode_uint, fmt.codec.decode_uint
        for a in range(max_m + 1):
            for m in (a, -a) if a else (0,):
                try:
                    u, width = encode(m)
                except ArithmeticError as exc:  # the pattern is not min_length(m) wide
                    return CheckResult(name, False, str(exc))
                value = decode(u, width)
                # _integers' rule, inline: a generator per m costs about a third of this loop.
                if value is None or value[2] < 0 or value[0] * (value[1] << value[2]) != m:
                    detail = f"{fmt.name} m={m} decoded to {DyadicValue.from_triple(value)}"
                    return CheckResult(name, False, detail)
    return CheckResult(name, True, "round trips at the predicted minimal width")


def check_analytic_consecutive() -> CheckResult:
    """lambert_w0 converges only within its residual bound, so agreement covers that too."""
    widths = range(takum.MIN_WIDTH, MAX_ANALYTIC_N + 1)
    name = f"takum consecutive exponent, exact search vs Lambert-W, n={widths[0]}..{widths[-1]}"
    for n in widths:
        exact = takum.consecutive_exponent(n)
        try:
            analytic = takum.consecutive_exponent_analytic(n)
        except ArithmeticError as exc:  # lambert_w0 did not converge
            return CheckResult(name, False, f"n={n}: {exc}")
        if exact != analytic:
            return CheckResult(name, False, f"n={n}: exact {exact}, analytic {analytic}")
    return CheckResult(name, True, "exact agreement, residuals within tolerance")


def known_discrepancies() -> list[CheckResult]:
    """Notes about published values the oracle contradicts."""
    report = largest_consecutive(minifloat.PRESETS["e4m3"])
    detail = (f"the brute-force oracle over the {report.n}-bit patterns gives {report.value}; the "
              f"widely quoted {E4M3_PUBLISHED} would need 4 fraction bits, but E4M3 has 3 "
              f"(known discrepancy, not a failure)")
    name = "e4m3 largest-consecutive vs commonly published value"
    return [CheckResult(name, True, detail, note=True)]


def verify_all(max_n: int = 16, max_m: int = 4096) -> list[CheckResult]:
    """Every formula-vs-oracle suite at the given budgets."""
    check_int(max_n, takum.MIN_WIDTH, "max_n")
    check_int(max_m, 1, "max_m")
    return [
        check_posit_consecutive(max_n),
        check_takum_consecutive(max_n),
        check_minifloat_consecutive(),
        check_min_length(PositFormat(), max_m),
        check_min_length(TakumFormat(), max_m),
        check_negation_closure(min(max_n, 14)),
        check_round_trip(max_m),
        check_analytic_consecutive(),
        *known_discrepancies(),
    ]
