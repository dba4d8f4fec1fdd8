"""The integer decode kernels against text-reading reference decoders.

The reference decoders below read a pattern's text (format(u, f"0{n}b"))
field by field, following the layouts in the posit, takum and minifloat
module docstrings; a field that runs past the end is completed with ghost
zeros by ljust.  Both the kernels (decode_uint) and the BitString wrappers
(decode) must agree with them on every pattern tested.
"""

import random

import pytest

from intrep import PRESETS, BitString, DyadicValue, FormatError, minifloat, posit, takum
from intrep.minifloat import SpecialValues


def field(text: str, start: int, count: int) -> int:
    """Unsigned value of text[start:start+count], ghost zeros past the end."""
    return int(text[start : start + count].ljust(count, "0") or "0", 2)


def reference_posit(u: int, n: int) -> DyadicValue:
    text = format(u, f"0{n}b")
    s, body = int(text[0]), text[1:]
    if "1" not in body:
        return DyadicValue.zero() if s == 0 else DyadicValue.nar()
    lead = body[0]
    k = len(body) - len(body.lstrip(lead))
    regime = k - 1 if lead == "1" else -k
    exp_field = field(text, 2 + k, 2)
    frac_text = text[4 + k :]
    p = len(frac_text)
    frac = field(frac_text, 0, p)

    magnitude = 4 * regime + exp_field + s
    exponent = -magnitude if s else magnitude
    numer = ((1 << p) + frac) if s == 0 else ((2 << p) - frac)
    return DyadicValue.from_mantissa(-1 if s else 1, numer, exponent - p)


def reference_takum(u: int, n: int) -> DyadicValue:
    text = format(u, f"0{n}b")
    s = int(text[0])
    if "1" not in text[1:]:
        return DyadicValue.zero() if s == 0 else DyadicValue.nar()
    d = int(text[1])
    regime = field(text, 2, 3)
    if d == 1:
        r = regime
        c = (1 << r) - 1 + field(text, 5, r)
    else:
        r = 7 - regime
        c = -(1 << (r + 1)) + 1 + field(text, 5, r)
    frac_text = text[5 + r :]
    p = len(frac_text)
    frac = field(frac_text, 0, p)

    exponent = -(c + 1) if s else c
    numer = ((1 << p) + frac) if s == 0 else ((2 << p) - frac)
    return DyadicValue.from_mantissa(-1 if s else 1, numer, exponent - p)


def reference_minifloat(spec, u: int) -> DyadicValue:
    text = format(u, f"0{spec.width}b")
    s = int(text[0])
    exp_field = field(text, 1, spec.exponent_bits)
    frac = field(text, 1 + spec.exponent_bits, spec.fraction_bits)
    all_ones = (1 << spec.exponent_bits) - 1

    if exp_field == all_ones:
        if spec.special is SpecialValues.IEEE:
            return DyadicValue.nar()
        if spec.special is SpecialValues.E4M3 and frac == (1 << spec.fraction_bits) - 1:
            return DyadicValue.nar()

    if exp_field == 0:
        if frac == 0:
            return DyadicValue.zero()
        numer = frac
        exponent = spec.min_normal_exponent
    else:
        numer = (1 << spec.fraction_bits) + frac
        exponent = exp_field - spec.bias
    return DyadicValue.from_mantissa(-1 if s else 1, numer, exponent - spec.fraction_bits)


def triple(value: DyadicValue):
    """The decode_uint result a kernel must give for this value: the value, None for NaR."""
    return None if value.is_nar else value


FAMILIES = [
    pytest.param(posit, reference_posit, id="posit"),
    pytest.param(takum, reference_takum, id="takum"),
]


def assert_family_agrees(module, reference, u, n):
    bits = BitString.from_uint(u, n)
    expected, kernel, value = reference(u, n), module.decode_uint(u, n), module.decode(bits)
    assert kernel == triple(expected), str(bits)
    assert value == expected, str(bits)
    # The decoded value is the kernel's triple, and NaR exactly where the kernel says None.
    assert triple(value) == kernel, str(bits)


@pytest.mark.parametrize("module,reference", FAMILIES)
def test_every_pattern_up_to_16_bits(module, reference):
    for n in range(1, 17):
        for u in range(1 << n):
            assert_family_agrees(module, reference, u, n)


@pytest.mark.parametrize("module,reference", FAMILIES)
def test_random_long_patterns(module, reference):
    rng = random.Random(20241229)
    for _ in range(20000):
        n = rng.randint(17, 600)
        assert_family_agrees(module, reference, rng.getrandbits(n), n)


@pytest.mark.parametrize("module,reference", FAMILIES)
@pytest.mark.parametrize("run", ["1" * 20000, "0" * 20000])
@pytest.mark.parametrize("sign", ["0", "1"])
@pytest.mark.parametrize("tail", ["", "0", "1", "01", "0110", "1011001"])
def test_long_regime_runs(module, reference, run, sign, tail):
    bits = BitString(sign + run + tail)
    assert_family_agrees(module, reference, bits.uint, bits.width)


@pytest.mark.parametrize("name", [p for p, s in PRESETS.items() if s.width <= 16])
def test_every_minifloat_pattern(name):
    spec = PRESETS[name]
    batch = minifloat.decode_uints(spec, range(1 << spec.width))
    for u, decoded in zip(range(1 << spec.width), batch, strict=True):
        bits = BitString.from_uint(u, spec.width)
        expected, value = reference_minifloat(spec, u), minifloat.decode(spec, bits)
        assert minifloat.decode_uint(spec, u) == triple(expected), str(bits)
        assert decoded == triple(expected), str(bits)
        assert value == expected, str(bits)
        assert triple(value) == decoded, str(bits)


@pytest.mark.parametrize("name", [p for p, s in PRESETS.items() if s.width > 16])
def test_random_wide_minifloat_patterns(name):
    spec = PRESETS[name]
    rng = random.Random(name)
    for _ in range(2000):
        u = rng.getrandbits(spec.width)
        expected = reference_minifloat(spec, u)
        assert minifloat.decode_uint(spec, u) == triple(expected)


@pytest.mark.parametrize("module", [posit, takum])
@pytest.mark.parametrize("u,n", [(0, 0), (-1, 4), (16, 4)])
def test_kernels_reject_patterns_that_do_not_fit(module, u, n):
    with pytest.raises(FormatError):
        module.decode_uint(u, n)


@pytest.mark.parametrize("u", [-1, 16])
def test_minifloat_kernel_rejects_patterns_that_do_not_fit(u):
    with pytest.raises(FormatError):
        minifloat.decode_uint(minifloat.MinifloatSpec(2, 1, 1), u)
