"""Shared exception types, and the seed check every seeded entry point makes."""

import operator


class ContractViolation(ValueError):
    """An operation was called with inputs breaking its stated precondition."""


def _integer(seed) -> int:
    """seed as a Python int, or ContractViolation naming it: a float is
    refused, not truncated, and products of the int are not fixed-width."""
    try:
        return operator.index(seed)
    except TypeError:
        raise ContractViolation(f"seed must be an integer, got {seed!r}") from None


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GenerationError(RuntimeError):
    """A randomized generator exhausted its retry budget."""


class SizeCapExceeded(ValueError):
    """Input exceeds the enumeration / solver size cap for this operation."""


class NoVertexCut(ValueError):
    """The graph admits no vertex cut (it is complete)."""


class StandardnessError(ValueError):
    """A curve collection violates standardness (overlap or triple point)."""
