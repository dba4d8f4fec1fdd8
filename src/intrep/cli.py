"""Command line interface.

Exit codes: 0 success, 1 usage/parse error, 2 verification failure,
3 budget or range error.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple

from . import core, formats, minifloat, oracle, posit, takum
from .core import DEFAULT_MAX_BITS, BitString, BudgetError, CapacityError, DomainError, FormatError
from .formats import PositFormat, TakumFormat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3


class TableRow(NamedTuple):
    """One line of the summary table."""

    name: str
    value: int
    ratio: float
    source: str  # "closed_form", "oracle", or "reference"
    footnote: bool = False


def build_table() -> list[TableRow]:
    """Largest consecutive integers for the standard 8..128-bit formats.

    Every row is computed from the closed forms except the OFP8 rows, which
    come from full enumeration, and the e4m3 reference row, which repeats the
    widely published (and contradicted) value so the conflict stays visible.
    """
    e4m3 = oracle.largest_consecutive(minifloat.PRESETS["e4m3"]).value
    e5m2 = oracle.largest_consecutive(minifloat.PRESETS["e5m2"]).value
    published, count = oracle.E4M3_PUBLISHED, formats.signed_integer_count(8)
    rows = [
        TableRow("e4m3", published, published / count, "reference", True),
        TableRow("e4m3 (computed)", e4m3, e4m3 / count, "oracle", True),
        TableRow("e5m2", e5m2, e5m2 / count, "oracle"),
    ]

    def closed_form(fmt: formats.FormatSpec) -> TableRow:
        value = formats.largest_consecutive(fmt)
        ratio = value / formats.signed_integer_count(fmt.width)
        return TableRow(fmt.name, value, ratio, "closed_form")

    for n in (8, 16, 32, 64, 128):
        if n == 16:
            rows.append(closed_form(minifloat.PRESETS["float16"]))
            rows.append(closed_form(minifloat.PRESETS["bfloat16"]))
        elif n >= 32:
            rows.append(closed_form(minifloat.PRESETS[f"float{n}"]))
        rows.append(closed_form(PositFormat(n)))
        rows.append(closed_form(TakumFormat(n)))
    return rows


def render_magnitude(value: int, exact: bool = False) -> str:
    """Render counts like 2^11 = 2048 or 2^24 (~ 1.7e+07); DomainError past the digit limit."""
    power = f"2^{value.bit_length() - 1}" if value > 0 and value & (value - 1) == 0 else None
    if exact or value < 10**5:
        text = core.decimal_text(value)
        return f"{power} = {text}" if power else text
    # Imported here, not with the module: only this approximation needs it.
    from decimal import Context, Decimal
    # The top 100 bits scaled in 30 digits round correctly at any size.
    shift = max(value.bit_length() - 100, 0)
    ctx = Context(prec=30)
    scaled = ctx.multiply(Decimal(value >> shift), ctx.power(2, shift))
    mantissa, _, exponent = format(scaled, ".1e").partition("e")
    approx = f"{mantissa}e{int(exponent):+03d}"  # float style: e+07, e+308
    return f"{power} (~ {approx})" if power else f"~ {approx}"


def _render_table(rows: list[TableRow], exact: bool) -> str:
    header = ("type", "largest consecutive", "of signed integers")
    body = []
    for row in rows:
        marker = " *" if row.footnote else ""
        body.append(
            (
                row.name + marker,
                render_magnitude(row.value, exact),
                f"{row.ratio * 100:.2g}%",
            )
        )
    widths = [max(len(header[i]), *(len(line[i]) for line in body)) for i in range(3)]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(3)).rstrip()]
    lines.append("  ".join("-" * widths[i] for i in range(3)))
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(3)).rstrip())
    lines.append("")
    computed = next(row.value for row in rows if row.name == "e4m3 (computed)")
    lines.append(
        f"* published tables commonly list {render_magnitude(oracle.E4M3_PUBLISHED)} for e4m3, "
        "which presumes 4 fraction bits; E4M3 has 3.  The brute-force oracle over its "
        f"{minifloat.PRESETS['e4m3'].width}-bit patterns gives {computed}."
    )
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | None) -> int:
    """Write text to stdout or to the file out; a file that cannot be written is a usage error."""
    if out in (None, "-"):
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_decode(args) -> int:
    print(formats.decode(formats.parse_format(args.format), BitString(args.bits)))
    return EXIT_OK


def cmd_encode_int(args) -> int:
    fmt = formats.parse_format(args.format)
    codec = fmt.codec  # a minifloat is refused before its width is compared
    if fmt.width is not None:
        max_bits = formats.resolve_width(fmt, args.max_n)
    else:
        max_bits = args.max_n if args.max_n is not None else DEFAULT_MAX_BITS
    print(codec.encode_integer(args.value, max_bits))
    return EXIT_OK


def cmd_min_bits(args) -> int:
    print(formats.parse_format(args.format).codec.min_length(args.value))
    return EXIT_OK


def cmd_max_consecutive(args) -> int:
    value = formats.largest_consecutive(formats.parse_format(args.format), args.n)
    print(render_magnitude(value, args.exact))
    return EXIT_OK


def cmd_table(args) -> int:
    return _write(_render_table(build_table(), args.exact), args.out)


def _exponent(k: int) -> int | str:
    """log2(k) for a power of two; "e-" for 2^e - 1, the takum cap from n = 266."""
    return k.bit_length() - 1 if k & (k - 1) == 0 else f"{k.bit_length()}-"


def figure_rows(n_min: int, n_max: int) -> list[tuple[int, int | str, int | str]]:
    """(n, posit exponent, takum exponent) of the largest consecutive integer."""
    if not takum.MIN_WIDTH <= n_min <= n_max <= 1024:
        raise FormatError(f"need {takum.MIN_WIDTH} <= n_min <= n_max <= 1024, got {n_min}..{n_max}")
    return [
        (n, _exponent(posit.largest_consecutive(n)), _exponent(takum.largest_consecutive(n)))
        for n in range(n_min, n_max + 1)
    ]


def cmd_figure(args) -> int:
    lines = ["n,posit_exponent,takum_exponent"]
    lines += [f"{n},{p},{t}" for n, p, t in figure_rows(args.n_min, args.n_max)]
    return _write("\n".join(lines) + "\n", args.out)


def cmd_precision_profile(args) -> int:
    fmt = formats.parse_format(args.format)
    lines = ["exponent,non_fraction_bits"]
    lines += [f"{e},{b}" for e, b in fmt.precision_profile()]
    return _write("\n".join(lines) + "\n", args.out)


def cmd_verify(args) -> int:
    results = oracle.verify_all(args.max_n, args.max_m)
    failures = 0
    for result in results:
        status = "NOTE" if result.note else ("PASS" if result.passed else "FAIL")
        failures += not result.passed
        print(f"{status}  {result.name}: {result.detail}")
    checks = sum(1 for r in results if not r.note)
    if failures:
        print(f"{failures} of {checks} checks failed")
        return EXIT_VERIFICATION
    print(f"all {checks} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intrep",
        description="Exact integer representability in posit, takum, and minifloat formats.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("decode", cmd_decode, "decode a bit string to its exact value")
    p.add_argument("--format", required=True, help="posit[N], takum[N], or a minifloat preset")
    p.add_argument("--bits", required=True, help="bit string, MSB first, optional 0b prefix")

    p = add("encode-int", cmd_encode_int, "shortest bit string for an integer")
    p.add_argument("--format", required=True, help="posit[N] or takum[N]")
    p.add_argument("--value", required=True, type=int, help="integer to encode")
    p.add_argument("--max-n", type=int, default=None, help="bit budget (default: width or 256)")

    p = add("min-bits", cmd_min_bits, "minimal representation length of an integer")
    p.add_argument("--format", required=True, help="posit or takum")
    p.add_argument("--value", required=True, type=int, help="integer")

    p = add("max-consecutive", cmd_max_consecutive, "largest consecutive representable integer")
    p.add_argument("--format", required=True, help="posit[N], takum[N], or a minifloat preset")
    p.add_argument("--n", type=int, default=None, help="width for bare posit/takum")
    p.add_argument("--exact", action="store_true", help="print the exact decimal value")

    p = add("table", cmd_table, "summary table across the standard formats")
    p.add_argument("--exact", action="store_true", help="print exact decimal values")
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = add("figure", cmd_figure, "CSV of consecutive-integer exponents vs width")
    p.add_argument(
        "--n-min", type=int, default=takum.MIN_WIDTH, help="first width (>= %(default)s)"
    )
    p.add_argument("--n-max", type=int, default=128, help="last width (<= 1024)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = add("precision-profile", cmd_precision_profile, "CSV of non-fraction bits per exponent")
    p.add_argument("--format", required=True, help="positN, takum[N], or a minifloat preset")
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = add("verify", cmd_verify, "run every formula-vs-oracle suite")
    widest, cap = oracle.MAX_ENUM_BITS, oracle.MAX_LENGTH_M
    swept = f"largest posit/takum width swept (<= {widest})"
    p.add_argument("--max-n", type=int, default=16, help=swept)
    p.add_argument("--max-m", type=int, default=4096, help=f"largest m in length checks (<= {cap})")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, CapacityError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
