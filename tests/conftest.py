from itertools import repeat

import pytest
from hypothesis import HealthCheck, settings

from intrep import minifloat

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def decode_fault(monkeypatch):
    """install(fault, *modules): every pattern the codec modules decode goes through fault.

    Patches decode_uint and the batch entry decode_uints of each module
    (posit, takum or minifloat): each pattern u of width n is decoded by the
    true decode_uint, and fault(u, n, value) is returned in place of its
    value.  The patched batch entry is lazy, as the true one is, so a scan
    that stops early decodes nothing past its stop, and a count that fault
    keeps is the number of patterns decoded.
    """

    def install(fault, *modules):
        for module in modules:
            true_decode = module.decode_uint
            if module is minifloat:

                def single(spec, u, true_decode=true_decode):
                    return fault(u, spec.width, true_decode(spec, u))

                def batch(spec, patterns, single=single):
                    return map(single, repeat(spec), patterns)

            else:

                def single(u, n, true_decode=true_decode):
                    return fault(u, n, true_decode(u, n))

                def batch(patterns, n, single=single):
                    return map(single, patterns, repeat(n))

            monkeypatch.setattr(module, "decode_uint", single)
            monkeypatch.setattr(module, "decode_uints", batch)

    return install
