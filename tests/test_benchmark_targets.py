"""The benchmark harness's hooks: every name perfbench/spans.py wraps still exists.

The tracer wraps intrep's layers by attribute, one private name among them,
and only reports a name that has gone as absent; this test fails on it.
spans.py is compiled from its text, so no bytecode is written beside it.
"""

import inspect
import types
from pathlib import Path

import intrep

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_every_benchmark_target_resolves():
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    missing = []
    for owner, attr, span_name, _ in spans.targets(intrep):
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(span_name)
    assert missing == []
