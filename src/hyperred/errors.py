"""Exception types shared across the engine.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to distinct exit codes.
"""


class HyperredError(Exception):
    """Base class for all engine errors."""


class PoleAtEpsZero(HyperredError):
    """A Pochhammer factor vanishes at eps=0, so its inverse has an eps-pole.

    Signals an exceptional or divergent parameter configuration (for
    instance a non-positive integer lower parameter).
    """


class UncancelledPole(HyperredError):
    """A 1/z (or 1/xi) kernel met a series with nonzero constant term."""


class SingularStep(HyperredError):
    """A contiguous-shift operator is not invertible at these parameters.

    Raised when a step divisor is identically zero or the representing
    matrix has identically vanishing determinant (reducible monodromy).
    """


class NotIntegerShift(HyperredError):
    """Target and basis parameters do not differ by integer vectors."""


class DegeneratePoles(HyperredError):
    """Two Mellin-Barnes pole families collide (double poles unsupported)."""


class CriterionViolation(HyperredError):
    """Terms of one diagram disagree on the nontrivial-basis count."""

    def __init__(self, counts):
        self.counts = list(counts)
        super().__init__(f"terms disagree on basis count: {self.counts}")


class NoFactorization(HyperredError):
    """No factorization case (R1=R2, R1=0, R2=0) matches the parameters."""


class NotTriangular(HyperredError):
    """The first-order system does not become triangular for this beta."""

    def __init__(self, bracket):
        self.bracket = bracket
        super().__init__(f"non-vanishing coupling bracket: {bracket}")


class UnsupportedClass(HyperredError):
    """Parameters fall outside the classes the expander can integrate."""


class ParseError(HyperredError):
    """Input text off the grammar (at its line and column), or a malformed option value."""

    def __init__(self, message, line=None, column=None, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        super().__init__(message + (f" at line {line}, column {column}" if line is not None else "")
                         + (f" (expected {', '.join(self.expected)})" if self.expected else ""))


class UnboundSymbols(HyperredError):
    """A linear form still holds propagator-power symbols that were never bound."""

    def __init__(self, names):
        self.names = tuple(names)
        super().__init__(f"no value bound for {', '.join(self.names)}")


class VerificationFailure(HyperredError):
    """A stored or recomputed result failed its oracle comparison."""
