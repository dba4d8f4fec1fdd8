"""The oracle's integer-bearing pattern range, and the full enumeration it skips.

Posit and takum patterns are ordered like two's-complement integers, so a
nonzero integer can only come from the patterns between that of 1 (01 0...0)
and that of -1 (11 0...0); the handle's integer_patterns(n) names that range
and the oracle scans nothing else.  The reference loops below skip nothing:
every pattern for representable sets, every odd pattern for minimal
lengths.  The oracle must give their results exactly.
"""

import random

import pytest

from intrep import PositFormat, TakumFormat, cli, oracle, posit, takum

FAMILIES = [PositFormat(), TakumFormat()]
IDS = ["posit", "takum"]


def nonzero_integer(value) -> int | None:
    """The integer a decode_uint triple stands for, or None if it is not a nonzero integer."""
    if value is None or not value[1] or value[2] < 0:
        return None
    return value[0] * (value[1] << value[2])


def reference_integers(fmt, n: int, window: int) -> set[int]:
    """Every integer in [-window, window] that some n-bit pattern decodes to."""
    decode = fmt.pattern_kernel(n)
    found = set()
    for value in map(decode, range(1 << n)):
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


def check_pattern(fmt, u: int, n: int) -> None:
    """A nonzero integer lies in integer_patterns(n), on the side of the sign bit its sign says."""
    m = nonzero_integer(fmt.codec.decode_uint(u, n))
    if m is not None:
        assert u in fmt.integer_patterns(n), (u, n, m)
        assert (m > 0) == (u < 1 << (n - 1)), (u, n, m)


def check_ends(fmt, n: int) -> None:
    patterns = fmt.integer_patterns(n)
    assert fmt.codec.decode_uint(patterns.start, n) == (1, 1, 0)
    assert fmt.codec.decode_uint(patterns[-1], n) == (-1, 1, 0)


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
def test_every_integer_pattern_up_to_16_bits_is_in_the_range(fmt):
    for n in range(2, 17):
        check_ends(fmt, n)
        for u in range(1 << n):
            check_pattern(fmt, u, n)


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
def test_random_long_integer_patterns_are_in_the_range(fmt):
    rng = random.Random(2024)
    for _ in range(20000):
        n = rng.randint(17, 600)
        # Clearing a random number of low bits makes integers common: a
        # uniform pattern this long almost never decodes to one.
        zeros = rng.randint(0, n)
        u = rng.getrandbits(n) >> zeros << zeros
        check_pattern(fmt, u, n)
        check_ends(fmt, n)
        patterns = fmt.integer_patterns(n)
        for edge in (patterns.start - 1, patterns.stop):
            check_pattern(fmt, edge, n)


@pytest.mark.parametrize("fmt", FAMILIES, ids=IDS)
def test_representable_sets_match_the_full_enumeration(fmt):
    for n in range(5, 17):
        windows = (1, 100, 1 << n)
        everything = reference_integers(fmt, n, max(windows))
        for window in windows:
            expected = tuple(sorted(m for m in everything if -window <= m <= window))
            assert oracle.representable_set(fmt, n, window).integers == expected, (n, window)


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
    rng = random.Random(8)
    candidates = [m for m in range(-600, 601) if m]
    for _ in range(40):
        max_len = rng.randint(2, 12)
        targets = rng.sample(candidates, rng.randint(1, 30))
        targets += targets[: rng.randint(0, 2)]  # repeats are one entry
        expected = reference_min_length_table(fmt, targets, max_len)
        assert oracle.min_length_table(fmt, targets, max_len) == expected, (targets, max_len)


@pytest.mark.parametrize("cls", [PositFormat, TakumFormat], ids=IDS)
@pytest.mark.parametrize("end", ["1", "-1"])
def test_verify_fails_when_the_range_drops_an_end(capsys, monkeypatch, cls, end):
    true_range = cls.integer_patterns

    def truncated(self, n):
        # Width 2 keeps its range: there 01 is the only odd pattern of 1, and
        # without it the min-length sweep for m = 1 runs on through 24 bits.
        r = true_range(self, n)
        if n == 2:
            return r
        return range(r.start + 1, r.stop) if end == "1" else range(r.start, r.stop - 1)

    monkeypatch.setattr(cls, "integer_patterns", truncated)
    code = cli.main(["verify", "--max-n", "8", "--max-m", "16"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_VERIFICATION
    family = cls().family
    assert f"FAIL  {family} largest-consecutive formula vs oracle, n=5..8: n=5:" in out


@pytest.mark.parametrize(
    "module,fmt,calls",
    [(posit, PositFormat(), 61440), (takum, TakumFormat(), 95232)],
    ids=IDS,
)
def test_min_length_table_kernel_calls(monkeypatch, module, fmt, calls):
    # Every odd pattern up to the last target would be 192510 and 357374 calls.
    count = 0
    true_decode = module.decode_uint

    def counting(u, n):
        nonlocal count
        count += 1
        return true_decode(u, n)

    monkeypatch.setattr(module, "decode_uint", counting)
    oracle.min_length_table(fmt, range(1, 4097))
    assert count == calls
