"""The benchmark's four workloads.

Each workload makes its inputs from the seed, runs one operation at a time
through intrep's public API (a closed loop with one client) and checks each
answer against values the benchmark holds itself: literals, or the
independent decoders in `reference`.  Public names are looked up on their
module at each call, so the traced run's wrappers see every call.  An
operation ends as "ok", "refused" (intrep raised one of its typed errors) or
"wrong" (any other answer).  `sampling` names where the speed meter samples
while the workload runs (see speed.py); a workload that samples by ticking
times its operations with `clock`, which leaves the meter's handler out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time

import reference

OK, REFUSED, WRONG = "ok", "refused", "wrong"

# Expected answers.  The two sweeps at n = 20: 4*(20-3)//5 = 13 for posits,
# and for takums the largest v with v*2^v < 2^17, also 13.
SWEEP_WIDTH = 20
SWEEP_EXPECTED = 1 << 13
CODEC_MAX_BITS = 322  # posit encodings of |m| < 2^255 need at most 322 bits
CODEC_MAX_V = 255
CODEC_BLOCK = 2 * CODEC_MAX_V  # one integer per family and bit length
CODEC_GROUP = CODEC_MAX_V  # blocks per group
# Seconds one group takes at the reference speed, checks included; sets how
# many groups a run of --seconds holds.
CODEC_GROUP_SECONDS = 6.0
TABLE_EXPECTED = {
    "e4m3 (computed)": "2^4 = 16",
    "e5m2": "2^3 = 8",
    "posit8": "2^4 = 16",
    "takum8": "2^3 = 8",
    "float16": "2^11 = 2048",
    "posit16": "2^10 = 1024",
    "takum16": "2^9 = 512",
    "posit32": "2^23 (~ 8.4e+06)",
    "takum32": "2^24 (~ 1.7e+07)",
    "posit64": "2^48 (~ 2.8e+14)",
    "takum64": "2^55 (~ 3.6e+16)",
    "posit128": "2^100 (~ 1.3e+30)",
    "takum128": "2^118 (~ 3.3e+35)",
}
MIN_BITS_EXPECTED = [
    ("posit", 1, 2), ("takum", 1, 2), ("posit", 5, 7), ("takum", 5, 8),
    ("posit", 10, 7), ("takum", 10, 9), ("posit", -7, 7), ("takum", -7, 8),
    ("posit", 100, 10), ("takum", 100, 11), ("posit", 4096, 5), ("takum", 4096, 8),
]
MAX_CONSECUTIVE_EXPECTED = [
    ("posit8", "2^4 = 16"), ("posit16", "2^10 = 1024"), ("posit32", "2^23 (~ 8.4e+06)"),
    ("takum16", "2^9 = 512"), ("takum64", "2^55 (~ 3.6e+16)"), ("e4m3", "2^4 = 16"),
    ("e5m2", "2^3 = 8"), ("bfloat16", "2^8 = 256"), ("float32", "2^24 (~ 1.7e+07)"),
]


def child_env(intrep) -> dict[str, str]:
    """Environment under which a child interpreter imports this same intrep."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(intrep.__file__)))
    return {**os.environ, "PYTHONPATH": src}


def digest(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def refusals(intrep) -> tuple[type, ...]:
    core = intrep.core
    return (core.DomainError, core.CapacityError, core.FormatError, core.BudgetError)


class Verify:
    """`intrep verify` at its default budgets, in-process."""

    name = "verify"
    tail = 100  # a run holds a handful of operations, so the tail is the slowest
    unit_ops = 1
    workers = 1
    concurrency = 0
    sampling = "ticking"
    clock = staticmethod(time.perf_counter)

    def __init__(self, intrep, seed: int, workers: int):
        self.cli = intrep.cli
        self.inputs_digest = digest(["verify"])

    def op(self, k: int) -> tuple[float, str]:
        # cli.main turns intrep's typed errors into exit codes, so a refusal
        # shows as a nonzero exit and counts as wrong.
        out = io.StringIO()
        start = self.clock()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["verify"])
        seconds = self.clock() - start
        return seconds, OK if code == 0 and verify_passed(out.getvalue()) else WRONG


def verify_passed(text: str) -> bool:
    """Every check line says PASS (or NOTE) and the summary counts them all."""
    lines = text.splitlines()
    passes = sum(line.startswith("PASS  ") for line in lines)
    others = [line for line in lines[:-1] if not line.startswith(("PASS  ", "NOTE  "))]
    return bool(lines) and passes > 0 and not others and lines[-1] == f"all {passes} checks passed"


class SweepWide:
    """Oracle enumeration of all n = 20 patterns in a process pool.

    One operation sweeps posit and then takum.  (Alternating single sweeps
    would put the median between the two families' times, on whichever side
    the count of operations in a run happens to fall.)
    """

    name = "sweep-wide"
    tail = 100
    unit_ops = 1
    sampling = "children"
    patterns_per_op = 2 << SWEEP_WIDTH

    def __init__(self, intrep, seed: int, workers: int):
        self.oracle = intrep.oracle
        self.formats = (intrep.PositFormat(), intrep.TakumFormat())
        self.workers = self.concurrency = workers
        self.refused = refusals(intrep)
        self.inputs_digest = digest(["sweep-wide", SWEEP_WIDTH])

    def op(self, k: int) -> tuple[float, str]:
        start = time.perf_counter()
        try:
            reports = [
                self.oracle.largest_consecutive(fmt, SWEEP_WIDTH, workers=self.workers)
                for fmt in self.formats
            ]
        except self.refused:
            return time.perf_counter() - start, REFUSED
        seconds = time.perf_counter() - start
        good = all(
            report.n == SWEEP_WIDTH and report.value == SWEEP_EXPECTED and report.agreement is True
            for report in reports
        )
        return seconds, OK if good else WRONG


def codec_block(seed: int, block: int) -> list[tuple[str, int, str, int, int]]:
    """(family, m, pattern family, pattern width, pattern bits) per operation.

    A block holds one integer m for each family and each bit length v in
    1..CODEC_MAX_V, in a seeded order, with a random sign and a pattern of a
    random family and width 8..256 beside it.  The trailing-zero count of m
    is stratified: in each group of CODEC_GROUP blocks it steps once through
    the integers mod v from a seeded offset, so it is uniform on 0..v-1 and
    each group holds every count of the top bit length exactly once.  The
    top of that range is on purpose: it is where takum.min_length refuses
    representable integers, and every group holds the same number of them.
    """
    group, index = divmod(block, CODEC_GROUP)
    offsets = random.Random(f"codec-mix/{seed}/{group}")
    rng = random.Random(f"codec-mix/{seed}/{group}/{index}")
    cases = []
    for family in ("posit", "takum"):
        for v in range(1, CODEC_MAX_V + 1):
            w = (offsets.randrange(v) + index) % v
            odd_bits = v - w
            odd = 1 if odd_bits == 1 else (1 << (odd_bits - 1)) | rng.getrandbits(odd_bits - 1) | 1
            m = (odd << w) * rng.choice((1, -1))
            width = rng.randint(8, 256)
            cases.append(
                (family, m, rng.choice(("posit", "takum")), width, rng.getrandbits(width))
            )
    rng.shuffle(cases)
    return cases


def as_reference(value):
    """An intrep DyadicValue in the reference decoders' form."""
    if value.is_zero:
        return reference.ZERO
    if value.is_nar:
        return reference.NAR
    return (value.sign, value.significand, value.exponent2)


def takum_above_2_254(case) -> bool:
    family, m = case[:2]
    return family == "takum" and 1 << 254 < abs(m) < 1 << 255


class CodecMix:
    """Shortest-encoding round trips of large integers, plus long-pattern decodes.

    A run is a fixed number of whole groups of blocks, not a time, so that
    it attempts the same operations, and meets the same refusals, every time.
    """

    name = "codec-mix"
    tail = 99
    unit_ops = CODEC_GROUP * CODEC_BLOCK  # the traced run's unit: one group
    workers = 1
    concurrency = 0
    sampling = "ticking"
    clock = staticmethod(time.perf_counter)

    def __init__(self, intrep, seed: int, workers: int):
        self.seed = seed
        self.block_index, self.block = -1, []
        self.digest = hashlib.sha256()
        self.digested = -1
        self.above_2_254 = 0
        self.bit_string = intrep.BitString
        self.families = {f: getattr(intrep, f) for f in ("posit", "takum")}
        self.refused = refusals(intrep)

    @property
    def inputs_digest(self) -> str:
        return self.digest.hexdigest()[:16]

    def fixed_ops(self, seconds: float) -> int:
        return max(1, round(seconds / CODEC_GROUP_SECONDS)) * CODEC_GROUP * CODEC_BLOCK

    def case(self, k: int):
        index = k // CODEC_BLOCK
        if index != self.block_index:
            self.block_index, self.block = index, codec_block(self.seed, index)
            if index > self.digested:
                self.digested = index
                self.digest.update(repr(self.block).encode())
        return self.block[k % CODEC_BLOCK]

    def op(self, k: int) -> tuple[float, str]:
        case = self.case(k)
        family, m, pattern_family, width, u = case
        self.above_2_254 += takum_above_2_254(case)
        codec, pattern_codec = self.families[family], self.families[pattern_family]
        status = OK
        clock = self.clock
        start = clock()
        try:
            bits = codec.encode_integer(m, max_bits=CODEC_MAX_BITS)
            length = codec.min_length(m)
            value = codec.decode(bits)
        except self.refused:
            status = REFUSED
        pattern_value = pattern_codec.decode(self.bit_string.from_uint(u, width))
        seconds = clock() - start
        if as_reference(pattern_value) != reference.DECODERS[pattern_family](u, width):
            return seconds, WRONG
        if status == REFUSED:
            return seconds, REFUSED
        good = (
            value.is_integer()
            and value.as_integer() == m
            and bits.width == length
            and reference.as_integer(reference.DECODERS[family](bits.uint, bits.width)) == m
        )
        return seconds, OK if good else WRONG


def cli_cases(seed: int) -> list[tuple[list[str], object]]:
    """(argv, expected) for one pass of cli-cold: four invocations per command.

    `expected` is the exact stdout, or for encode-int the integer the printed
    pattern must decode to.
    """
    rng = random.Random(f"cli-cold/{seed}")
    cases = []
    for _ in range(4):
        family = rng.choice(("posit", "takum"))
        n = rng.choice((8, 16, 32, 64))
        u = rng.getrandbits(n)
        value = reference.DECODERS[family](u, n)
        cases.append(
            (["decode", "--format", f"{family}{n}", "--bits", format(u, f"0{n}b")],
             reference.render(value) + "\n")
        )
        family = rng.choice(("posit", "takum"))
        m = rng.getrandbits(rng.randint(1, 64)) or 1
        cases.append((["encode-int", "--format", family, "--value", str(m)], (family, m)))
        family, m, length = rng.choice(MIN_BITS_EXPECTED)
        cases.append((["min-bits", "--format", family, "--value", str(m)], f"{length}\n"))
        fmt, text = rng.choice(MAX_CONSECUTIVE_EXPECTED)
        cases.append((["max-consecutive", "--format", fmt], text + "\n"))
        cases.append((["table"], TABLE_EXPECTED))
    rng.shuffle(cases)
    return cases


def cli_answer_ok(expected, code: int, stdout: str) -> bool:
    if code != 0:
        return False
    if isinstance(expected, str):
        return stdout == expected
    if isinstance(expected, tuple):
        family, m = expected
        bits = stdout.strip()
        if not bits or bits.strip("01"):
            return False
        return reference.as_integer(reference.DECODERS[family](int(bits, 2), len(bits))) == m
    rows = {}
    for line in stdout.splitlines():
        # Rows are "name[ *]  value  ratio" with columns two spaces apart.
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) >= 2:
            rows[cells[0].removesuffix(" *")] = cells[1]
    return all(rows.get(name) == value for name, value in expected.items())


class CliCold:
    """Fresh `python -m intrep` processes, one at a time."""

    name = "cli-cold"
    tail = 90
    workers = 1
    concurrency = 1  # one CLI process alive at a time
    sampling = "between"

    def __init__(self, intrep, seed: int, workers: int):
        self.cases = cli_cases(seed)
        self.unit_ops = len(self.cases)
        self.inputs_digest = digest(self.cases)
        self.env = child_env(intrep)
        self.cli = intrep.cli

    def op(self, k: int) -> tuple[float, str]:
        argv, expected = self.cases[k % len(self.cases)]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "intrep", *argv],
                env=self.env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, WRONG
        seconds = time.perf_counter() - start
        return seconds, OK if cli_answer_ok(expected, done.returncode, done.stdout) else WRONG

    def in_process(self, k: int) -> tuple[float, str]:
        """The same invocation through cli.main in this process (traced runs)."""
        argv, expected = self.cases[k % len(self.cases)]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        seconds = time.perf_counter() - start
        return seconds, OK if cli_answer_ok(expected, code, out.getvalue()) else WRONG


WORKLOADS = {w.name: w for w in (Verify, SweepWide, CodecMix, CliCold)}
