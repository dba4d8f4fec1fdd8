"""The fault matrix: which faults `verify` catches, one row per fault.

Each row patches one fault in alone, decodes through the decode_fault
fixture, a decode kernel or a codec formula through monkeypatch, runs
verify_all() at its default budgets and matches the name and detail of the
first failing CheckResult against the row's regular expressions.  A row `verify` misses
today is a strict xfail whose reason names the ROADMAP item that closes it;
the fix flips the row, which must then lose its marker, not its assert.
"""

import inspect
import re
import textwrap

import pytest

from intrep import PRESETS, minifloat, oracle, posit, takum


def formula_fault(module, name, change):
    """Patch module.name(x) to return change(x, its true result)."""

    def install(monkeypatch, decode_fault):
        true = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x: change(x, true(x)))

    return install


def swap_fault(module, n, first, second, true_decode):
    """Give the n-bit patterns first and second each other's values."""

    def install(monkeypatch, decode_fault):
        a, b = true_decode(first), true_decode(second)
        # Keyed on the true value too: bfloat16 shares float16's width.
        swapped = {(first, a): b, (second, b): a}
        decode_fault(lambda u, w, value: swapped.get((u, value), value) if w == n else value, module)

    return install


def pattern_fault(module, pattern, value):
    """Decode pattern(n), the n-bit pattern at every width n, to value."""

    def install(monkeypatch, decode_fault):
        decode_fault(lambda u, n, true: value if u == pattern(n) else true, module)

    return install


def kernel_fault(module, mutate):
    """Patch module._decode to mutate(it): decode_uint and decode_uints look it up per call."""

    def install(monkeypatch, decode_fault):
        monkeypatch.setattr(module, "_decode", mutate(module._decode))

    return install


def rewritten(old, new):
    """A mutate for kernel_fault: the kernel recompiled with its one text old replaced by new."""

    def mutate(kernel):
        source = textwrap.dedent(inspect.getsource(kernel))
        assert source.count(old) == 1, old
        namespace = {}
        exec(source.replace(old, new), kernel.__globals__, namespace)
        return namespace[kernel.__name__]

    return mutate


def relaid(layout, index, value):
    """A mutate for kernel_fault: layout[index] is value wherever the kernel is given layout."""
    changed = (*layout[:index], value, *layout[index + 1 :])

    def mutate(kernel):
        return lambda u, *given: kernel(u, *(changed if given == layout else given))

    return mutate


def item(number, what):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {number}: {what}")


POSIT_100 = posit.largest_consecutive(100)
TAKUM_64 = takum.largest_consecutive(64)
FLOAT32 = minifloat.largest_consecutive(PRESETS["float32"])
EXACT_100 = takum.consecutive_exponent(100)
FLOAT16 = PRESETS["float16"]._layout  # keyed on the layout: bfloat16 shares float16's width
# The normalising return: posit8 01000000, which is 1, decodes to (2, 1, 0).
POSIT_SIGN_2 = kernel_fault(posit, rewritten("else 1), numer >> shift", "else 2), numer >> shift"))
# bias + fraction bits 25 -> 5: every value is 2^20 times too large.
FLOAT16_OFFSET_5 = kernel_fault(minifloat, relaid(FLOAT16, 6, 5))
# nar_from 0 -> 1: the all-ones exponent with fraction 0 decodes to 2^16.
FLOAT16_INFINITY = kernel_fault(minifloat, relaid(FLOAT16, 4, 1))

FAULTS = [
    pytest.param(
        formula_fault(posit, "largest_consecutive", lambda n, k: k + (n == 12)),
        re.escape("posit largest-consecutive formula vs oracle, n=5..16"),
        re.escape("n=12: closed form 129, oracle 128"),
        id="posit-largest-consecutive+1-n12",
    ),
    pytest.param(
        formula_fault(posit, "min_length", lambda m, bits: bits + (abs(m).bit_length() == 9)),
        re.escape("posit min-length formula vs oracle, m=1..4096"),
        re.escape("m=256: formula 5, oracle 4"),
        id="posit-min-length+1-v9",
    ),
    pytest.param(
        formula_fault(takum, "consecutive_exponent_analytic", lambda n, v: v + (n == 100)),
        re.escape("takum consecutive exponent, exact search vs Lambert-W, n=5..265"),
        re.escape(f"n=100: exact {EXACT_100}, analytic {EXACT_100 + 1}"),
        id="takum-analytic-exponent+1-n100",
    ),
    pytest.param(
        formula_fault(posit, "largest_consecutive", lambda n, k: k + (n == 100)),
        r"posit largest-consecutive formula vs oracle, .*",
        re.escape(f"n=100: closed form {POSIT_100 + 1}, oracle {POSIT_100}"),
        id="posit-largest-consecutive+1-n100",
        marks=item(3, "verify checks the closed form only up to its max_n"),
    ),
    pytest.param(
        formula_fault(takum, "largest_consecutive", lambda n, k: k * (1 + (n == 64))),
        r"takum largest-consecutive formula vs oracle, .*",
        re.escape(f"n=64: closed form {2 * TAKUM_64}, oracle {TAKUM_64}"),
        id="takum-largest-consecutive*2-n64",
        marks=item(3, "verify checks the closed form only up to its max_n"),
    ),
    pytest.param(
        formula_fault(
            minifloat, "largest_consecutive", lambda s, k: k * (1 + (s == PRESETS["float32"]))
        ),
        r"minifloat largest-consecutive vs oracle \(.*float32.*\)",
        re.escape(f"float32: closed form {2 * FLOAT32}, oracle {FLOAT32}"),
        id="float32-largest-consecutive*2",
        marks=item(3, "float32's walk is past the decode budget"),
    ),
    pytest.param(
        formula_fault(takum, "min_length", lambda m, bits: bits + (abs(m).bit_length() > 40)),
        r"takum min-length formula vs oracle, .*",
        r"m=-?\d{13,}: formula \d+, oracle \d+",  # |m| >= 2^40 has at least 13 digits
        id="takum-min-length+1-v>40",
        marks=item(13, "verify checks min_length only for m <= max_m"),
    ),
    pytest.param(
        swap_fault(posit, 16, 0x4A01, 0x4A03, lambda u: posit.decode_uint(u, 16)),
        r".*\border\b.*",
        r".*(01001010000000[01]1|0x4[aA]0[13]).*",
        id="posit16-0x4A01-0x4A03-swapped",
        marks=item(12, "no verify suite checks that values ascend with the pattern"),
    ),
    pytest.param(
        formula_fault(posit, "non_fraction_bits", lambda e, bits: bits + (e == 7)),
        r"posit .*(precision|non-fraction).*",
        r"e=7: .*",
        id="posit-non-fraction-bits+1-e7",
        marks=item(10, "no verify suite decodes the precision profile"),
    ),
    pytest.param(
        formula_fault(posit, "_code", lambda e, code: (code[0] ^ (e == 7), code[1])),
        re.escape("encode/decode round trip with minimal width, |m|<=4096"),
        re.escape("posit encoding of 128 has 5 bits, not 6"),
        id="posit-code-low-bit-flipped-e7",
    ),
    pytest.param(
        formula_fault(takum, "_code", lambda e, code: (code[0] ^ (e == 7), code[1])),
        re.escape("encode/decode round trip with minimal width, |m|<=4096"),
        re.escape("takum encoding of 128 has 8 bits, not 5"),
        id="takum-code-low-bit-flipped-e7",
    ),
    pytest.param(
        pattern_fault(posit, lambda n: 0, (0, 0, 0)),
        re.escape("two's-complement negation closure, n=5..14"),
        re.escape("posit pattern 00000 at n=5"),
        id="posit-zero-decoded-as-nar",
    ),
    pytest.param(
        pattern_fault(posit, lambda n: 1 << (n - 1), (1, 0, 0)),
        re.escape("two's-complement negation closure, n=5..14"),
        re.escape("posit pattern 10000 at n=5"),
        id="posit-nar-decoded-as-zero",
    ),
    pytest.param(
        pattern_fault(takum, lambda n: 0, (0, 0, 0)),
        re.escape("two's-complement negation closure, n=5..14"),
        re.escape("takum pattern 00000 at n=5"),
        id="takum-zero-decoded-as-nar",
    ),
    pytest.param(
        swap_fault(
            minifloat, 16, 0x63D0, 0x63D2, lambda u: minifloat.decode_uint(PRESETS["float16"], u)
        ),
        r".*\border\b.*",
        r".*float16.*",
        id="float16-1000-1001-swapped",
        marks=item(12, "verify blames the closed form: float16: closed form 2048, oracle 999"),
    ),
    pytest.param(
        POSIT_SIGN_2,
        r".*anchor.*",
        r".*posit.*",
        id="posit-sign-2-on-even-numerators",
        marks=item(27, "no verify suite decodes a standards anchor"),
    ),
    pytest.param(
        FLOAT16_OFFSET_5,
        r".*anchor.*",
        r".*float16.*",
        id="float16-exponent-offset-5",
        marks=item(27, "no verify suite decodes a standards anchor"),
    ),
    pytest.param(
        FLOAT16_INFINITY,
        r".*anchor.*",
        r".*float16.*",
        id="float16-infinity-as-65536",
        marks=item(27, "no verify suite decodes a standards anchor"),
    ),
]


@pytest.mark.parametrize("install,name,detail", FAULTS)
def test_verify_names_the_fault(monkeypatch, decode_fault, install, name, detail):
    install(monkeypatch, decode_fault)
    failures = [result for result in oracle.verify_all() if not result.passed]
    assert failures, "verify passed"
    first = failures[0]
    assert re.fullmatch(name, first.name), first
    assert re.fullmatch(detail, first.detail), first


@pytest.mark.parametrize(
    "install,decode,expected",
    [
        (POSIT_SIGN_2, lambda: posit.decode_uint(0b01000000, 8), (2, 1, 0)),
        (FLOAT16_OFFSET_5, lambda: minifloat.decode_uint(PRESETS["float16"], 0x3C00), (1, 1, 20)),
        (FLOAT16_INFINITY, lambda: minifloat.decode_uint(PRESETS["float16"], 0x7C00), (1, 1, 16)),
    ],
    ids=["posit-sign-2", "float16-offset-5", "float16-infinity"],
)
def test_a_kernel_fault_reaches_every_decode(monkeypatch, decode_fault, install, decode, expected):
    # A strict xfail row passes on any error, one in its own patch too: this
    # shows each kernel fault takes effect, and that bfloat16 keeps its 1.0.
    install(monkeypatch, decode_fault)
    assert decode() == expected
    assert minifloat.decode_uint(PRESETS["bfloat16"], 0x3F80) == (1, 1, 0)
