"""Exception taxonomy shared across the package."""


class CfqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CfqError, ValueError):
    """An argument violates a documented precondition."""


class InvalidModulusError(DomainError):
    """Polynomial modulus is zero or constant."""


class NonInvertibleError(CfqError, ArithmeticError):
    """Element is not invertible in the residue ring."""


class SearchFailureError(CfqError):
    """A bounded search was exhausted without finding the required object."""


class RoundingFailureError(CfqError):
    """Rounding to an integer polynomial missed the tolerance."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"rounding residual {residual} exceeds tolerance {tol}")


class ConvergenceError(CfqError):
    """A numerical method failed to converge or to meet its error bound."""


class NotGenusZeroError(DomainError):
    """Requested (level, group) has no principal modulus in the catalog."""


class QSeriesFormatError(CfqError, ValueError):
    """A q-series coefficient file failed to parse.

    `reason` is one of "header", "coefficient", "q_min", "too_few".
    """

    def __init__(self, reason, message):
        self.reason = reason
        super().__init__(message)


class DataFileMissingError(CfqError, FileNotFoundError):
    """A catalog entry resolves to a q-series file that is not present."""


class InsufficientDataError(CfqError):
    """A q-series file stops before the index its envelope's tail bound needs.

    `needed` is that index plus one, found before any term is summed.
    """

    def __init__(self, abs_q, have, needed):
        self.abs_q = abs_q
        self.have = have
        self.needed = needed
        super().__init__(
            f"q-series too short: |q| = {abs_q}, {have} coefficients available, "
            f"{needed} needed by the envelope's tail bound"
        )


class EscalationFailureError(CfqError):
    """Precision escalation hit its ceiling without a stable result."""

    def __init__(self, message, history=()):
        self.history = tuple(history)
        super().__init__(message)
