"""Exact integer representability in posit, takum, and minifloat arithmetics.

Decoders and integer encoders for three families of machine number formats,
closed-form answers to "how many bits does this integer need" and "up to
where are all integers representable", and a brute-force oracle that checks
the closed forms against decoded patterns at small widths.

The submodules cli and oracle load on first use, so a decode never pays
for argparse or the oracle.
"""

from importlib import import_module

from . import formats, minifloat, posit, takum
from .core import (
    BitString,
    BudgetError,
    CapacityError,
    DomainError,
    DyadicValue,
    FormatError,
    integer_profile,
)
from .formats import FormatSpec, PositFormat, TakumFormat, parse_format
from .minifloat import PRESETS, MinifloatSpec, SpecialValues

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "BudgetError",
    "CapacityError",
    "DomainError",
    "DyadicValue",
    "FormatError",
    "FormatSpec",
    "MinifloatSpec",
    "PRESETS",
    "PositFormat",
    "SpecialValues",
    "TakumFormat",
    "__version__",
    "cli",
    "formats",
    "integer_profile",
    "minifloat",
    "oracle",
    "parse_format",
    "posit",
    "takum",
]

_LAZY = ("cli", "oracle")


def __getattr__(name: str):
    # Importing a submodule binds it on the package, so this runs once per name.
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
