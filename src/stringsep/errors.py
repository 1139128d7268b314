"""Shared exception types, and the integer check of seeds and counts."""

import operator


class ContractViolation(ValueError):
    """An operation was called with inputs breaking its stated precondition."""


def _integer(value, name: str = "seed") -> int:
    """value as a Python int, or ContractViolation naming it `name`: a float
    is refused, not truncated, and products of the int are not fixed-width."""
    try:
        return operator.index(value)
    except TypeError:
        raise ContractViolation(f"{name} must be an integer, got {value!r}") from None


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
