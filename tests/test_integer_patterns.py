"""The gap ladder's order premise, and the full enumeration it skips.

Posit and takum values do not change under appended zeros and ascend with
the pattern within each sign half, 1..2^(n-1) - 1 and 2^(n-1) + 1..2^n - 1,
so the oracle's posit and takum sweeps, at one width or over many, decode
only odd patterns, and of those only the ones whose neighbours leave room
for a wanted integer (the gap ladder); the width walk also skips the gaps
past a bound that, by a count of patterns, its run cannot reach.  A
minifloat's patterns are put in the same order by its ladder_decode, a
sign-magnitude view, which the ladder climbs through.  The reference
loops below skip nothing: every pattern for representable sets, every odd
pattern for minimal lengths.  The oracle must give their results exactly,
also when a decode fault hides or misplaces one pattern.
"""

import random
from itertools import pairwise, repeat

import pytest

from intrep import PositFormat, TakumFormat, minifloat, oracle, posit, takum
from intrep.minifloat import MinifloatSpec, SpecialValues

FAMILIES = [PositFormat(), TakumFormat()]
IDS = ["posit", "takum"]


def reference_integers(fmt, n: int, window: int) -> set[int]:
    """Every integer in [-window, window] that some n-bit pattern decodes to."""
    decode = fmt.codec.decode_uint
    found = set()
    for value in map(decode, range(1 << n), repeat(n)):
        if value is not None and value[2] >= 0:
            m = value[0] * (value[1] << value[2])
            if -window <= m <= window:
                found.add(m)
    return found


def reference_min_length_table(fmt, targets, max_len: int) -> dict[int, int | None]:
    """Minimal lengths from every odd pattern of each width, smallest width first."""
    decode = fmt.codec.decode_uint
    remaining = set(targets)
    lengths = {m: None for m in remaining}
    for width in range(2, max_len + 1):
        if not remaining:
            break
        for odd in range(1, 1 << width, 2):
            value = decode(odd, width)
            if value is not None and value[2] >= 0:
                m = value[0] * (value[1] << value[2])
                if m in remaining:
                    lengths[m] = width
                    remaining.discard(m)
                    if not remaining:
                        break
    return lengths


def ascending(a, b) -> bool:
    """Whether the finite nonzero decode_uint triple a is below b, exactly."""
    low = min(a[2], b[2])
    return a[0] * (a[1] << (a[2] - low)) < b[0] * (b[1] << (b[2] - low))


def consecutive_run(found: set[int]) -> int:
    """The largest k with every integer in [-k, k] in found; -1 if 0 is not."""
    k = -1
    while k + 1 in found and -(k + 1) in found:
        k += 1
    return k


def sign_halves(n: int) -> tuple[range, range]:
    """Every n-bit pattern but zero and 2^(n-1), the positive ones first."""
    half = 1 << (n - 1)
    return range(1, half), range(half + 1, half << 1)


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
def test_even_patterns_repeat_the_value_one_width_down(fmt):
    # The width walk, the negation check and min_length_table skip even patterns on this.
    decode = fmt.codec.decode_uint
    for n in range(3, 17):
        for u in range(0, 1 << n, 2):
            assert decode(u, n) == decode(u >> 1, n - 1), (u, n)
    rng = random.Random(2025)
    for _ in range(20000):
        n = rng.randint(17, 600)
        u = rng.getrandbits(n) & ~1
        assert decode(u, n) == decode(u >> 1, n - 1), (u, n)


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
def test_values_ascend_with_the_pattern_within_each_half(fmt):
    # The gap ladder prunes on this: with it, an odd pattern lies strictly
    # between its two neighbours.  The width walk uses it a second time to
    # narrow its window: only the patterns of its last width between the
    # zero-extensions of a gap's neighbours can hold the gap's integers.
    decode = fmt.codec.decode_uint
    for n in range(2, 17):
        for half in sign_halves(n):
            values = [decode(u, n) for u in half]
            assert all(value is not None and value[1] for value in values), n
            assert all(ascending(a, b) for a, b in pairwise(values)), n
    rng = random.Random(2026)
    for _ in range(20000):
        n = rng.randint(17, 600)
        half = sign_halves(n)[rng.getrandbits(1)]
        # Runs of equal bits near either end of a half, and near its middle,
        # the pattern of 1 or of -1, make long regimes common.
        middle = (half.start + half.stop) // 2
        inside = rng.randrange(half.start, half.stop - 1)
        u = rng.choice([half.start, half.stop - 2, middle, inside])
        u ^= rng.getrandbits(rng.randint(0, n)) & ((1 << (n - 2)) - 1)
        if u in half and u + 1 in half:
            assert ascending(decode(u, n), decode(u + 1, n)), (u, n)


MINIFLOAT_SHAPES = [
    MinifloatSpec(e, f, bias, special)
    for e in range(1, 6)
    for f in range(7)
    for bias in range(-3, (1 << e) + 3)
    for special in SpecialValues
]


def test_minifloat_values_ascend_with_the_pattern_within_each_half():
    # The gap ladder climbs a minifloat in its sign-magnitude view on this:
    # finite values ascend with the pattern from +0 up and descend from -0
    # up.  NaR may sit anywhere, as the ladder keeps a gap's bounds across it.
    assert len(MINIFLOAT_SHAPES) == 1932
    presets = [spec for spec in minifloat.PRESETS.values() if spec.width <= 16]
    for spec in [*MINIFLOAT_SHAPES, *presets]:
        half = 1 << (spec.width - 1)
        values = list(minifloat.decode_uints(spec, range(half << 1)))
        positive = [value for value in values[:half] if value is not None]
        negative = [value for value in values[half:] if value is not None]
        assert all(ascending(a, b) for a, b in pairwise(positive)), spec
        assert all(ascending(b, a) for a, b in pairwise(negative)), spec


def test_the_minifloat_ladder_decode_orders_its_halves_and_keeps_appended_zeros(monkeypatch):
    # With every spec pattern decoding to itself, ladder_decode shows the
    # spec pattern each width-w pattern stands for.  Its width-n sign halves
    # hold every pattern of the spec but the two zeros: the positive one
    # ascending, the negative one from the largest magnitude down, so with
    # the order above its values ascend within each half as a posit's do.
    # Pattern u of width w is pattern 2u one width up.
    monkeypatch.setattr(minifloat, "decode_uints", lambda spec, patterns: list(patterns))
    for n in range(2, 17):
        spec, sign = MinifloatSpec(1, n - 2, 0), 1 << (n - 1)
        assert spec.ladder_decode(n, range(1, sign)) == list(range(1, sign))
        negative = spec.ladder_decode(n, range(sign + 1, sign << 1))
        assert negative == [sign | m for m in range(sign - 1, 0, -1)]
        for w in range(1, n):
            below = [u for u in range(1 << w) if u != 1 << (w - 1)]
            doubled = [2 * u for u in below]
            assert spec.ladder_decode(w, below) == spec.ladder_decode(w + 1, doubled), (n, w)


def test_minifloat_sets_and_runs_match_the_full_enumeration():
    # Seven windows for each of the 1932 shapes: 13524 representable sets,
    # and a largest consecutive integer each, from every pattern decoded.
    for spec in MINIFLOAT_SHAPES:
        n = spec.width
        values = [minifloat.decode_uint(spec, u) for u in range(1 << n)]
        everything = {v[0] * (v[1] << v[2]) for v in values if v is not None and v[2] >= 0}
        for window in (1, 2, 3, 5, 8, 100, 1 << n):
            expected = tuple(sorted(m for m in everything if -window <= m <= window))
            assert oracle.representable_set(spec, n, window=window) == expected, (spec, window)
        assert oracle.largest_consecutive(spec).value == consecutive_run(everything), spec


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
def test_representable_sets_match_the_full_enumeration(fmt):
    for n in range(5, 19):
        windows = (1, 2, 3, 100, 1 << (n - 1), 1 << n)
        everything = reference_integers(fmt, n, max(windows))
        for window in windows:
            expected = tuple(sorted(m for m in everything if -window <= m <= window))
            assert oracle.representable_set(fmt, n, window=window) == expected, (n, window)


@pytest.fixture(scope="module")
def reference_lengths():
    """Reference minimal lengths of every 0 < |m| <= 4096, per family."""
    targets = [m for a in range(1, 4097) for m in (a, -a)]
    return {fmt.family: reference_min_length_table(fmt, targets, 24) for fmt in FAMILIES}


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
@pytest.mark.parametrize(
    "targets",
    [
        range(1, 4097),
        range(-4096, 0),
        [*range(-300, 0), *range(1, 301), 4096, -4095],
    ],
    ids=["positive", "negative", "mixed"],
)
def test_min_length_tables_match_the_full_enumeration(fmt, targets, reference_lengths):
    expected = {m: reference_lengths[fmt.family][m] for m in targets}
    assert oracle.min_length_table(fmt, targets) == expected


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
def test_random_min_length_tables_match_the_full_enumeration(fmt):
    # A sized handle's width bounds its table: it has no wider patterns.
    rng = random.Random(8)
    candidates = [m for m in range(-600, 601) if m]
    for _ in range(40):
        bound = rng.randint(fmt.codec.MIN_WIDTH, 12)
        targets = rng.sample(candidates, rng.randint(1, 30))
        targets += targets[: rng.randint(0, 2)]  # repeats are one entry
        expected = reference_min_length_table(fmt, targets, bound)
        assert oracle.min_length_table(type(fmt)(bound), targets) == expected, (targets, bound)


def test_a_sized_handle_has_no_min_length_past_its_width():
    # 17 needs 10 posit bits, so no posit8 pattern is 17.
    assert oracle.min_length(PositFormat(), 17) == 10
    assert oracle.min_length(PositFormat(8), 17) is None
    assert oracle.min_length(PositFormat(8), 3) == 6
    targets = [m for m in range(-300, 301) if m]  # the reference decodes odd patterns only
    expected = reference_min_length_table(TakumFormat(), targets, 8)
    assert oracle.min_length_table(TakumFormat(8), targets) == expected


@pytest.mark.parametrize(
    "module,fmt,calls",
    [(posit, PositFormat(), 4096), (takum, TakumFormat(), 4098)],
    ids=IDS,
)
def test_min_length_table_kernel_calls(decode_fault, module, fmt, calls):
    # Every odd pattern up to the last target would be 192510 and 357374
    # calls, and the odd patterns up to it from that of 1 to the sign bit and
    # from past NaR to that of -1 (the integer-bearing halves) 61440 and 95232.
    count = 0

    def counting(u, n, value):
        nonlocal count
        count += 1
        return value

    decode_fault(counting, module)
    oracle.min_length_table(fmt, range(1, 4097))
    assert count == calls


@pytest.mark.parametrize(
    "module,fmt,calls",
    [(posit, PositFormat(), 16413), (takum, TakumFormat(), 16419)],
    ids=IDS,
)
def test_largest_consecutive_kernel_calls(decode_fault, module, fmt, calls):
    # Pattern 0 and the integer-bearing halves of width 20 would be 524289
    # calls, and the gap ladder with the window kept at 2^20 57345 and 53257.
    count = 0

    def counting(u, n, value):
        nonlocal count
        count += 1
        return value

    decode_fault(counting, module)
    assert oracle.largest_consecutive(fmt, 20).value == 8192
    assert count == calls


@pytest.mark.parametrize("module,fmt", [(posit, PositFormat()), (takum, TakumFormat())], ids=IDS)
def test_the_ladder_decodes_no_pattern_between_zero_and_one(decode_fault, module, fmt):
    # A gap is made only with an integer strictly inside it, so past width 1
    # every decoded pattern lies from that of 1 (01 0...0) up to the sign bit
    # or from past NaR (10 0...0) up to that of -1 (11 0...0): the patterns
    # strictly between -1 and 1 need no filter to stay undecoded.
    decoded = []

    def recording(u, n, value):
        decoded.append((u, n))
        return value

    decode_fault(recording, module)
    oracle.min_length_table(type(fmt)(18), range(-3000, 3001))
    oracle.largest_consecutive(fmt, 18)
    for n in range(fmt.codec.MIN_WIDTH, 19):
        assert oracle.representable_set(fmt, n, window=1 << n)
    assert decoded
    for u, n in decoded:
        if n > 1:
            quarter = 1 << (n - 2)
            assert quarter <= u < 2 * quarter or 2 * quarter < u <= 3 * quarter, (u, n)


@pytest.mark.parametrize("cls", [PositFormat, TakumFormat], ids=IDS)
def test_the_width_walk_matches_the_full_enumeration(cls):
    walk = dict(oracle._consecutive_walk(cls(), 18))
    assert list(walk) == list(range(2, 19))
    for n in range(cls.codec.MIN_WIDTH, 19):
        expected = consecutive_run(reference_integers(cls(), n, 1 << n))
        assert walk[n] == oracle.largest_consecutive(cls(n)).value == expected, n


@pytest.mark.parametrize("cls", [PositFormat, TakumFormat], ids=IDS)
def test_the_narrowed_run_matches_the_whole_window(cls):
    # representable_set keeps the window 2^n that largest_consecutive's walk
    # narrows wherever a gap holds more integers than patterns of width n.
    for n in range(cls.codec.MIN_WIDTH, 21):
        expected = consecutive_run(set(oracle.representable_set(cls(), n, window=1 << n)))
        assert oracle.largest_consecutive(cls(), n).value == expected, n


@pytest.mark.parametrize(
    "cls,m",
    [(PositFormat, 4), (PositFormat, -4), (TakumFormat, 8), (TakumFormat, -8)],
    ids=["posit-4", "posit--4", "takum-8", "takum--8"],
)
@pytest.mark.parametrize(
    "replacement",
    [None, (1, 0, 0), (1, 1, 300), (-1, 1, 300)],
    ids=["nar", "zero", "far-above", "far-below"],
)
def test_the_gap_ladder_narrows_a_gap_only_on_a_value_inside_it(decode_fault, cls, m, replacement):
    # m's only odd pattern, and every zero-extension of it, decodes to
    # replacement.  Its neighbours one width down are finite, so 2^300 lies
    # outside its gap, and integers lie on both sides of m within the gap.
    # The ladder must still climb below the pattern, as the exhaustive
    # references under the same fault do: a child gap bounded by the
    # replacement would lose the integers on one side.
    fmt = cls()
    hidden = fmt.codec.encode_integer(m)
    u, width = hidden.uint, hidden.width

    def fault(v, n, value):
        return replacement if n >= width and v == u << (n - width) else value

    decode_fault(fault, fmt.codec)
    targets = [a for a in range(-64, 65) if a]
    expected = reference_min_length_table(fmt, targets, 12)
    assert expected[m] is None
    assert oracle.min_length_table(cls(12), targets) == expected
    walk = dict(oracle._consecutive_walk(fmt, 12))
    assert walk == {n: consecutive_run(reference_integers(fmt, n, 1 << 12)) for n in range(2, 13)}


@pytest.mark.parametrize(
    "cls,check,m",
    [
        (PositFormat, oracle.check_posit_consecutive, 4),  # hidden at width 4, needed from 6
        (PositFormat, oracle.check_posit_consecutive, -3),
        (PositFormat, oracle.check_posit_consecutive, 1),  # 01 at width 2, the first gap
        (PositFormat, oracle.check_posit_consecutive, -1),  # 11 at width 2
        (TakumFormat, oracle.check_takum_consecutive, 8),
        (TakumFormat, oracle.check_takum_consecutive, -5),
        (TakumFormat, oracle.check_takum_consecutive, 1),
        (TakumFormat, oracle.check_takum_consecutive, -1),
    ],
    ids=[
        "posit-4", "posit--3", "posit-1", "posit--1", "takum-8", "takum--5", "takum-1", "takum--1"
    ],
)
def test_a_hidden_odd_pattern_fails_the_first_width_that_needs_it(decode_fault, cls, check, m):
    # The walk never decodes the even patterns that repeat the hidden one at
    # wider widths, so m stays missing from its shortest width on.
    codec = cls.codec
    hidden = codec.encode_integer(m)
    needs = next(n for n in range(takum.MIN_WIDTH, 17) if codec.largest_consecutive(n) >= abs(m))
    spot = (hidden.uint, hidden.width)
    decode_fault(lambda u, n, value: None if (u, n) == spot else value, codec)
    result = check(16)
    assert not result.passed
    closed = codec.largest_consecutive(needs)
    assert result.detail == f"n={needs}: closed form {closed}, oracle {abs(m) - 1}"


# Kernel calls of each suite in verify_all() at the default budgets.  A full
# enumeration of every width would be 65544, 65544, 131584 and 65512 calls
# for the first three suites and the negation closure.  The odd patterns of
# the integer-bearing halves, without the gap ladder, are 32769 per width
# walk and 61440 + 95232 for the min-length tables.  The width walks'
# ladders with the window kept at 2^16, not narrowed by counting patterns,
# are 6145 and 4363.  The minifloats climb the ladder too, in their sign-magnitude view:
# 4127 + 551 + 47 + 33 (MINIFLOAT_LADDER_CALLS); pattern 0 and the halves
# ending at the window were 34816 + 4352 + 144 + 72 and the four zero
# patterns, 39388, and 68124 without the cut.
VERIFY_KERNEL_CALLS = {
    "check_posit_consecutive": 2071,
    "check_takum_consecutive": 1047,
    "check_minifloat_consecutive": 4758,  # 39388 enumerating the halves
    "check_min_length": 4096 + 4098,
    "check_negation_closure": 32804,
    "check_round_trip": 16386,
    "check_analytic_consecutive": 0,
    # e4m3 on its own, not taken from the minifloat suite's reports (0 so,
    # 145 when that suite enumerated e4m3)
    "known_discrepancies": 47,
}
MINIFLOAT_LADDER_CALLS = {"float16": 4127, "bfloat16": 551, "e4m3": 47, "e5m2": 33}


def test_verify_all_kernel_calls(monkeypatch, decode_fault):
    total = 0

    def counting(u, n, value):
        nonlocal total
        total += 1
        return value

    decode_fault(counting, posit, takum, minifloat)
    calls = dict.fromkeys(VERIFY_KERNEL_CALLS, 0)

    def measured(name, check):
        def run(*args):
            before = total
            result = check(*args)
            calls[name] += total - before
            return result

        return run

    for name in VERIFY_KERNEL_CALLS:
        monkeypatch.setattr(oracle, name, measured(name, getattr(oracle, name)))
    oracle.verify_all()
    assert calls == VERIFY_KERNEL_CALLS
    # 136201 without the minifloat window cut, 107465 without the narrowed walks,
    # 100075 with known_discrepancies enumerating e4m3 again, 99930 with the
    # minifloat halves enumerated and e4m3's report shared, 65347 with the
    # negation closure decoding patterns 0 and 2^(n-1) once for each side
    assert total == 65307


@pytest.mark.parametrize("preset,calls", MINIFLOAT_LADDER_CALLS.items())
def test_minifloat_largest_consecutive_kernel_calls(decode_fault, preset, calls):
    # Pattern 0 and the halves, which ended at the window 2^width, were
    # 34817, 4353, 145 and 73 calls: float16's ran to 2^16, past its run's 2048.
    count = 0

    def counting(u, n, value):
        nonlocal count
        count += 1
        return value

    decode_fault(counting, minifloat)
    spec = minifloat.PRESETS[preset]
    assert oracle.largest_consecutive(spec).value == spec.closed_form(spec.width)
    assert count == calls
