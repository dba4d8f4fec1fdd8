"""Exact integer representability in posit, takum, and minifloat arithmetics.

Decoders and integer encoders for three families of machine number formats,
closed-form answers to "how many bits does this integer need" and "up to
where are all integers representable", and a brute-force oracle that verifies
the closed forms by exhaustive enumeration at small widths.
"""

from . import cli, formats, minifloat, oracle, posit, takum
from .core import (
    BitString,
    BudgetError,
    CapacityError,
    DomainError,
    DyadicValue,
    FormatError,
    ValueKind,
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
    "ValueKind",
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
