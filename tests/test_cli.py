import errno
import json
import os
import random
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from intrep import FormatError, cli, formats, oracle, posit, takum


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- decode

@pytest.mark.parametrize(
    "fmt,bits,expected",
    [
        ("posit8", "011", "16"),
        ("posit", "0110000001", "17"),
        ("takum", "0b0101", "8"),
        ("takum12", "100000000000", "NaR"),
        ("posit8", "00000000", "0"),
        ("e4m3", "01111110", "448"),
        ("posit8", "00111000", "1*2^-1"),
    ],
)
def test_decode(capsys, fmt, bits, expected):
    code, out, _ = run(capsys, ["decode", "--format", fmt, "--bits", bits])
    assert code == 0
    assert out == expected + "\n"


def test_decode_rejects_oversized_pattern(capsys):
    code, _, err = run(capsys, ["decode", "--format", "posit8", "--bits", "010000000"])
    assert code == 1
    assert "error:" in err


# ------------------------------------------------------------ encode-int

@pytest.mark.parametrize(
    "fmt,value,expected",
    [
        ("posit", "17", "0110000001"),
        ("posit", "-16", "101"),
        ("takum", "5", "01001101"),
        ("takum", "-1", "11"),
    ],
)
def test_encode_int(capsys, fmt, value, expected):
    code, out, _ = run(capsys, ["encode-int", "--format", fmt, "--value", value])
    assert code == 0
    assert out == expected + "\n"


def test_encode_int_respects_width_budget(capsys):
    code, _, err = run(capsys, ["encode-int", "--format", "posit", "--value", "3", "--max-n", "5"])
    assert code == 3
    assert "error:" in err
    code, out, _ = run(capsys, ["encode-int", "--format", "posit", "--value", "3", "--max-n", "6"])
    assert code == 0
    assert out == "010011\n"


@pytest.mark.parametrize("fmt", ["posit", "takum"])
def test_encode_int_of_zero_respects_the_budget(capsys, fmt):
    argv = ["encode-int", "--format", fmt, "--value", "0", "--max-n"]
    assert run(capsys, [*argv, "0"]) == (3, "", f"error: 0 needs 1 {fmt} bits, more than max_bits=0\n")
    assert run(capsys, [*argv, "1"]) == (0, "0\n", "")


def test_encode_int_uses_format_width_as_budget(capsys):
    code, _, err = run(capsys, ["encode-int", "--format", "posit8", "--value", "100000"])
    assert code == 3
    assert "error:" in err


def test_encode_int_refuses_a_budget_that_conflicts_with_the_width(capsys):
    argv = ["encode-int", "--format", "posit8", "--value", "1000000", "--max-n", "300"]
    assert run(capsys, argv) == (1, "", "error: width 300 conflicts with posit8\n")
    argv = ["encode-int", "--format", "posit8", "--value", "3", "--max-n", "8"]
    assert run(capsys, argv) == (0, "010011\n", "")


def test_encode_int_budget_for_a_bare_family(capsys):
    # Without a width in the name, --max-n is the budget, even below the width floor.
    argv = ["encode-int", "--format", "posit", "--max-n", "2", "--value", "1"]
    assert run(capsys, argv) == (0, "01\n", "")


def test_encode_int_rejects_minifloat(capsys):
    code, _, err = run(capsys, ["encode-int", "--format", "e4m3", "--value", "3"])
    assert code == 1
    assert "error:" in err


# -------------------------------------------------------------- min-bits

@pytest.mark.parametrize(
    "fmt,value,expected",
    [
        ("posit", "0", "1"),  # zero is the 1-bit pattern "0"
        ("takum", "0", "1"),
        ("posit", "1", "2"),
        ("posit", "-16", "3"),
        ("takum", "9", "10"),
        ("takum", "10", "9"),
        ("takum", str(1 << 254), "12"),
        ("takum", str(-(1 << 254)), "12"),
        ("takum", str((1 << 254) + 1), "266"),
        ("takum", str(-(1 << 254) - 1), "266"),
        ("takum", str((1 << 255) - 1), "266"),
        ("takum", str(1 - (1 << 255)), "266"),
    ],
)
def test_min_bits(capsys, fmt, value, expected):
    code, out, _ = run(capsys, ["min-bits", "--format", fmt, "--value", value])
    assert code == 0
    assert out == expected + "\n"


@pytest.mark.parametrize("value", [str(1 << 255), str(-(1 << 255))])
def test_min_bits_takum_out_of_range(capsys, value):
    code, out, err = run(capsys, ["min-bits", "--format", "takum", "--value", value])
    assert code == 3
    assert out == ""
    assert "takum exponent range" in err


@pytest.mark.parametrize("value", ["3", "0"])
@pytest.mark.parametrize("command", ["encode-int", "min-bits"])
def test_variable_length_commands_reject_minifloat_text(capsys, command, value):
    code, out, err = run(capsys, [command, "--format", "E4M3", "--value", value])
    assert code == 1
    assert out == ""
    assert err == "error: e4m3 has no variable-length encoding\n"


@pytest.mark.parametrize("preset", ["e4m3", "E4M3", "bfloat16", "float32"])
def test_minifloat_variable_length_refusal_is_one_text(capsys, preset):
    spec = formats.parse_format(preset)
    text = f"{spec.name} has no variable-length encoding"
    for command in ("encode-int", "min-bits"):
        assert run(capsys, [command, "--format", preset, "--value", "3"]) == (1, "", f"error: {text}\n")
    for refused in (
        lambda: spec.codec,
        lambda: oracle.min_length_table(spec, [3]),
        lambda: oracle.min_length(spec, 3),
        lambda: oracle.min_length(spec, 0),
    ):
        with pytest.raises(FormatError) as info:
            refused()
        assert str(info.value) == text


# ------------------------------------------------------- max-consecutive

def test_max_consecutive_small_value_is_exact(capsys):
    code, out, _ = run(capsys, ["max-consecutive", "--format", "takum", "--n", "12"])
    assert code == 0
    assert out == "2^6 = 64\n"


def test_max_consecutive_large_value_is_approximated(capsys):
    code, out, _ = run(capsys, ["max-consecutive", "--format", "posit32"])
    assert code == 0
    assert out == "2^23 (~ 8.4e+06)\n"


def test_max_consecutive_exact_flag(capsys):
    code, out, _ = run(capsys, ["max-consecutive", "--format", "posit32", "--exact"])
    assert code == 0
    assert out == "2^23 = 8388608\n"


def test_max_consecutive_takum_cap(capsys):
    # 2^255 - 1 is not a power of two, so it prints without one.
    code, out, _ = run(capsys, ["max-consecutive", "--format", "takum", "--n", "266"])
    assert (code, out) == (0, "~ 5.8e+76\n")


def test_max_consecutive_minifloat(capsys):
    code, out, _ = run(capsys, ["max-consecutive", "--format", "e4m3"])
    assert code == 0
    assert out == "2^4 = 16\n"


def test_max_consecutive_beyond_the_digit_limit(capsys):
    code, out, err = run(capsys, ["max-consecutive", "--format", "posit", "--n", "20000"])
    assert (code, out, err) == (0, "2^15997 (~ 3.8e+4815)\n", "")


def test_approximations_are_correctly_rounded():
    assert cli.render_magnitude(2**1024) == "2^1024 (~ 1.8e+308)"
    for k in range(17, 5001):  # 2^17 is the first power of two rendered as ~
        # Below e+10 a float pads the exponent to two digits and Decimal does not.
        expected = format(2.0**k if k < 34 else Decimal(2) ** k, ".1e")
        assert cli.render_magnitude(2**k) == f"2^{k} (~ {expected})", k


@pytest.fixture
def digit_limit():
    """The interpreter's default 4300-digit limit on int-to-str conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length to str")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


def test_exact_decimals_past_the_digit_limit_are_refused(capsys, digit_limit):
    code, out, err = run(
        capsys, ["max-consecutive", "--format", "posit", "--n", "20000", "--exact"]
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: exact decimal of a 15998-bit integer: ")
    rng = random.Random(16001)
    bits = "0" + "".join(rng.choice("01") for _ in range(15999)) + "1"
    code, out, err = run(capsys, ["decode", "--format", "posit", "--bits", bits])
    assert (code, out) == (3, "")
    assert err.startswith("error: exact decimal of a ") and err.count("\n") == 1


def test_max_consecutive_needs_width(capsys):
    code, _, err = run(capsys, ["max-consecutive", "--format", "posit"])
    assert code == 1
    assert "error:" in err


# ----------------------------------------------------------------- table

EXPECTED_ROW_ORDER = [
    "e4m3 *",
    "e4m3 (computed) *",
    "e5m2",
    "posit8",
    "takum8",
    "float16",
    "bfloat16",
    "posit16",
    "takum16",
    "float32",
    "posit32",
    "takum32",
    "float64",
    "posit64",
    "takum64",
    "float128",
    "posit128",
    "takum128",
]


def test_table_layout_and_values(capsys):
    code, out, _ = run(capsys, ["table"])
    assert code == 0
    lines = out.splitlines()
    body = lines[2:20]
    assert [line.split("  ")[0] for line in body] == EXPECTED_ROW_ORDER
    rows = {line.split("2^")[0].strip(): line for line in body}
    assert "2^5 = 32" in rows["e4m3 *"]
    assert "2^4 = 16" in rows["e4m3 (computed) *"]
    assert "2^3 = 8" in rows["e5m2"]
    assert "2^4 = 16" in rows["posit8"]
    assert "2^3 = 8" in rows["takum8"]
    assert "2^11 = 2048" in rows["float16"]
    assert "2^8 = 256" in rows["bfloat16"]
    assert "2^10 = 1024" in rows["posit16"]
    assert "2^9 = 512" in rows["takum16"]
    assert "2^24 (~ 1.7e+07)" in rows["float32"]
    assert "2^23 (~ 8.4e+06)" in rows["posit32"]
    assert "2^24 (~ 1.7e+07)" in rows["takum32"]
    assert "2^53" in rows["float64"]
    assert "2^48" in rows["posit64"]
    assert "2^55" in rows["takum64"]
    assert "2^113" in rows["float128"]
    assert "2^100" in rows["posit128"]
    assert "2^118" in rows["takum128"]
    assert "13%" in rows["posit8"]
    assert "6.3%" in rows["e5m2"]
    footnote = lines[-1]
    assert footnote.startswith("* ")
    assert "32" in footnote and "16" in footnote


def test_table_ratios():
    rows = {row.name: row for row in cli.build_table()}
    assert rows["posit8"].ratio == 16 / 127
    assert rows["e4m3 (computed)"].ratio == 16 / 127
    assert rows["takum16"].ratio == 512 / 32767
    assert rows["float64"].ratio == 2**53 / (2**63 - 1)


def test_table_footnote_reads_the_computed_row():
    rows = [
        row._replace(value=17) if row.name == "e4m3 (computed)" else row
        for row in cli.build_table()
    ]
    footnote = cli._render_table(rows, exact=False).splitlines()[-1]
    assert footnote.endswith("The brute-force oracle over its 8-bit patterns gives 17.")


def test_table_exact(capsys):
    code, out, _ = run(capsys, ["table", "--exact"])
    assert code == 0
    assert "2^53 = 9007199254740992" in out
    assert "2^24 = 16777216" in out
    assert "2^113 = " + str(2**113) in out
    assert "~" not in out.split("\n*")[0]  # no approximations in the table body


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out, _ = run(capsys, ["table", "--out", str(target)])
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "e4m3 (computed)" in text


# ---------------------------------------------------------------- figure

def test_figure_csv(capsys):
    code, out, _ = run(capsys, ["figure", "--n-min", "5", "--n-max", "128"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,posit_exponent,takum_exponent"
    assert len(lines) == 1 + 124
    assert lines[1] == "5,1,1"
    assert "8,4,3" in lines
    assert "16,10,9" in lines
    assert "32,23,24" in lines
    assert "64,48,55" in lines
    assert "128,100,118" in lines


def test_figure_range_validation(capsys):
    # A width range outside 5..1024, or an empty one, is a usage error.
    code, _, err = run(capsys, ["figure", "--n-min", "4", "--n-max", "10"])
    assert code == 1
    assert err == "error: need 5 <= n_min <= n_max <= 1024, got 4..10\n"
    code, _, err = run(capsys, ["figure", "--n-min", "10", "--n-max", "5"])
    assert code == 1
    assert err == "error: need 5 <= n_min <= n_max <= 1024, got 10..5\n"


def test_figure_marks_the_takum_cap(capsys):
    # From n = 266 the takum run stops at 2^255 - 1, printed as "255-".
    code, out, _ = run(capsys, ["figure", "--n-min", "264", "--n-max", "267"])
    assert code == 0
    assert out.splitlines()[1:] == ["264,208,253", "265,209,254", "266,210,255-", "267,211,255-"]


def test_figure_out_file(capsys, tmp_path):
    target = tmp_path / "figure.csv"
    code, out, _ = run(capsys, ["figure", "--n-min", "5", "--n-max", "8", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,posit_exponent,takum_exponent\n5,1,1\n6,2,1\n7,3,2\n8,4,3\n"


@pytest.mark.parametrize(
    "command,where,reason",
    [
        (["table"], "missing/table.txt", errno.ENOENT),
        (["figure", "--n-max", "8"], ".", errno.EISDIR),
        (["precision-profile", "--format", "e4m3"], "missing/profile.csv", errno.ENOENT),
    ],
    ids=["table-missing-directory", "figure-directory", "precision-profile-missing-directory"],
)
def test_out_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, command, where, reason):
    target = tmp_path / where
    code, out, err = run(capsys, [*command, "--out", str(target)])
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {target}: {os.strerror(reason)}\n"


# ----------------------------------------------------- precision-profile

def test_precision_profile_takum(capsys):
    code, out, _ = run(capsys, ["precision-profile", "--format", "takum12"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "exponent,non_fraction_bits"
    assert len(lines) == 1 + 510
    assert lines[1] == "-255,12"
    assert "0,5" in lines
    assert lines[-1] == "254,12"


def test_precision_profile_posit32(capsys):
    code, out, _ = run(capsys, ["precision-profile", "--format", "posit32"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 242
    assert lines[1] == "-121,35"
    assert "0,5" in lines
    assert lines[-1] == "120,35"


def test_precision_profile_float32(capsys):
    code, out, _ = run(capsys, ["precision-profile", "--format", "float32"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 277
    assert lines[1] == "-149,32"
    assert "0,9" in lines
    assert lines[-1] == "127,9"


def test_precision_profile_needs_posit_width(capsys):
    code, _, err = run(capsys, ["precision-profile", "--format", "posit"])
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------- verify

def test_verify_small_budget(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "6", "--max-m", "32"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all 8 checks passed"
    assert sum(line.startswith("PASS") for line in lines) == 8
    assert sum(line.startswith("NOTE") for line in lines) == 1
    assert not any(line.startswith("FAIL") for line in lines)
    # The minifloat presets do not follow --max-n, so none drops out below 16.
    minifloat_line = "PASS  minifloat largest-consecutive vs oracle (float16, bfloat16, e4m3, e5m2)"
    assert minifloat_line + ": exact agreement" in lines


def test_verify_reports_a_lambert_w0_that_does_not_converge(capsys, monkeypatch):
    monkeypatch.setattr(takum, "LAMBERT_W0_ITERATIONS", 0)
    code, out, err = run(capsys, ["verify", "--max-n", "5", "--max-m", "4"])
    assert (code, err) == (2, "")
    assert out.splitlines()[-1] == "1 of 8 checks failed"
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failures) == 1
    assert "Lambert-W, n=5..64: n=5: lambert_w0 did not converge" in failures[0]


def test_verify_refuses_max_m_before_any_check(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "largest_consecutive", lambda *args, **kw: calls.append(args))
    code, out, err = run(capsys, ["verify", "--max-n", "24", "--max-m", "70000"])
    assert (code, out, calls) == (3, "", [])
    assert err == "error: min-length verification capped at m <= 65535, got 70000\n"
    assert "(<= 65535)" in run(capsys, ["verify", "--help"])[1]


def test_verify_budget_cap(capsys):
    code, _, err = run(capsys, ["verify", "--max-n", "25"])
    assert code == 3
    assert "error:" in err


def test_verify_reports_mutated_formula(capsys, monkeypatch):
    true_formula = takum.largest_consecutive
    monkeypatch.setattr(takum, "largest_consecutive", lambda n: 2 * true_formula(n))
    code, out, _ = run(capsys, ["verify", "--max-n", "5", "--max-m", "16"])
    assert code == 2
    assert "FAIL" in out
    assert "n=5" in out
    assert "1 of 8 checks failed" in out


def test_verify_reports_wrong_min_length(capsys, monkeypatch):
    # The encoder refuses a pattern that is not min_length(m) wide; verify
    # reports that as a round-trip failure instead of crashing.
    true_length = posit.min_length
    monkeypatch.setattr(posit, "min_length", lambda m: true_length(m) + (abs(m) == 5))
    code, out, _ = run(capsys, ["verify", "--max-n", "5", "--max-m", "16"])
    assert code == 2
    assert "2 of 8 checks failed" in out
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert any(
        "round trip" in line and "posit encoding of 5 has 7 bits, not 8" in line
        for line in failures
    ), failures


def test_figure_reports_mutated_posit_formula(capsys, monkeypatch):
    true_formula = posit.largest_consecutive
    monkeypatch.setattr(posit, "largest_consecutive", lambda n: 2 * true_formula(n))
    code, out, _ = run(capsys, ["figure", "--n-min", "5", "--n-max", "8"])
    assert code == 0
    assert out.splitlines()[1:] == ["5,2,1", "6,3,1", "7,4,2", "8,5,3"]


# ----------------------------------------------------------- usage errors

@pytest.mark.parametrize("family,n,floor", [("posit", 2, 3), ("takum", 4, 5)])
def test_width_below_floor_is_a_usage_error_either_way(capsys, family, n, floor):
    named = run(capsys, ["max-consecutive", "--format", f"{family}{n}"])
    given = run(capsys, ["max-consecutive", "--format", family, "--n", str(n)])
    assert given == named
    assert named[0] == 1
    assert named[2] == f"error: {family} width must be at least {floor}, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--format", "posit2", "--bits", "01"],
        ["decode", "--format", "nope", "--bits", "01"],
        ["decode", "--format", "posit8", "--bits", "012"],
        ["decode", "--format", "posit8"],
        ["encode-int", "--format", "posit", "--value", "abc"],
        ["bogus"],
        [],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "decode" in out


# ---------------------------------------------------------------- README

def readme_examples() -> list[tuple[str, str]]:
    """(command, output) of each `$ intrep ...` example in README.md's code blocks."""
    examples, fenced, output = [], False, None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced, output = not fenced, None
        elif fenced and line.startswith("$ intrep "):
            output = []
            examples.append((line.removeprefix("$ intrep "), output))
        elif output is not None:
            output.append(line + "\n")
    return [(command, "".join(output)) for command, output in examples]


# The README abbreviates verify's output with "...".
README_EXAMPLES = [example for example in readme_examples() if example[0] != "verify"]


def test_readme_examples_cover_every_command():
    commands = [command.split()[0] for command, _ in README_EXAMPLES]
    assert commands == ["decode", "encode-int", "min-bits", "max-consecutive", "table", "figure"]


@pytest.mark.parametrize("command,output", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_is_the_real_output(capsys, command, output):
    assert run(capsys, shlex.split(command)) == (0, output, "")


def test_readme_verify_example_lines_are_real_output_lines_in_order(capsys):
    [output] = [output for command, output in readme_examples() if command == "verify"]
    code, out, err = run(capsys, ["verify"])
    assert (code, err) == (0, "")
    real = iter(out.splitlines())
    for line in output.splitlines():
        if line != "...":
            assert line in real, line  # consumes real up to the match, so order counts


# ------------------------------------------------------------ cold start

# Prints the modules that `import intrep` adds, then those that one decode adds
# on top, each as a set difference taken inside one fresh interpreter, so
# modules the interpreter loaded at start-up do not count.
IMPORTED_MODULES = """
import json, sys
before = set(sys.modules)
import intrep
imported = set(sys.modules) - before
intrep.cli.main(["decode", "--format", "posit8", "--bits", "011"])
print(json.dumps([sorted(imported), sorted(set(sys.modules) - before)]))
"""


def test_a_query_loads_neither_the_process_pool_nor_dataclasses():
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", IMPORTED_MODULES],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    decoded, report = child.stdout.splitlines()
    assert decoded == "16"
    imported, ran = map(set, json.loads(report))
    assert "intrep.cli" in imported
    heavy = {"dataclasses", "decimal", "multiprocessing", "concurrent.futures.process"}
    assert heavy & imported == set()
    assert heavy & ran == set()
