"""Exception types shared across the package."""

from __future__ import annotations


class GchsError(Exception):
    """Base class for errors raised by this package."""


class ExpressionError(GchsError):
    """Syntax or semantic error in an expression string.

    Carries the offset into the source text and exposes it as
    1-based line / column, which the CLI reports verbatim.
    """

    def __init__(self, message: str, text: str = "", pos: int = 0):
        self.message = message
        self.text = text
        self.pos = pos
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {self.line}, column {self.column}: {message}")


class DomainError(GchsError):
    """Evaluation left the domain of an operation (division by zero, log of
    zero), or a quantity a guard checks came out NaN or infinite."""


class RealnessError(GchsError):
    """A quantity that must be real came out complex, or a field that must be
    in real form (no i, z_j or conj nodes) was supplied where one is required."""


class ScenarioError(GchsError):
    """Scenario file is malformed: bad JSON, unknown field, missing field,
    or an embedded expression failed to parse."""


class ConsistencyError(GchsError):
    """Two independent internal evaluation routes disagreed.

    This is never a user error: it signals a derivative bug and is
    deliberately left outside the CLI's handled exit codes.
    """


class IntegrationError(GchsError):
    """Base for runtime integration failures; carries the failure time."""

    def __init__(self, message: str, t: float):
        self.t = t
        super().__init__(f"{message} at t={t:.6g}")


class BlowUpError(IntegrationError):
    def __init__(self, norm: float, t: float):
        self.norm = norm
        super().__init__(f"state norm {norm:.3e} exceeded the blow-up threshold", t)


class StepUnderflowError(IntegrationError):
    def __init__(self, step: float, t: float):
        self.step = step
        super().__init__(f"adaptive step size underflowed ({step:.3e})", t)
