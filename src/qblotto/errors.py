"""Exception hierarchy shared by all qblotto modules.

Two failure families matter to callers: bad input (scenario files,
shapes, parameter domains) and numerical-integrity breaches detected at
runtime (non-unitary operators, complex measurement residue). The CLI
maps them to exit codes 2 and 3 respectively.
"""

from __future__ import annotations


class BlottoError(Exception):
    """Base class for all package errors."""


class ValidationError(BlottoError):
    """Input, configuration or domain violation."""


class DimensionError(ValidationError):
    """Shape or factor-structure mismatch between expected and actual dims."""


def dimension_error(expected, actual, context: str = "") -> DimensionError:
    """A DimensionError saying ``{context}: expected dims {expected}, got {actual}``."""
    prefix = f"{context}: " if context else ""
    return DimensionError(f"{prefix}expected dims {expected}, got {actual}")


class NumericalIntegrityError(BlottoError):
    """A quantity that must be real, normalized or unitary failed its check."""
