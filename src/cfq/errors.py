"""Exception taxonomy shared across the package."""


class CfqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CfqError, ValueError):
    """An argument violates a documented precondition."""


class InvalidModulusError(DomainError):
    """Polynomial modulus is zero or constant."""


class NonInvertibleError(CfqError, ArithmeticError):
    """Element is not invertible in the residue ring."""


class RoundingFailureError(CfqError):
    """Rounding to an integer polynomial missed the tolerance."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"rounding residual {float(residual):.10g} exceeds tolerance "
                         f"{float(tol):.10g}")


class ConvergenceError(CfqError):
    """A numerical method failed to converge or to meet its error bound."""


class NotGenusZeroError(DomainError):
    """Requested (level, group) has no principal modulus in the catalog."""


class NoConstructionError(DomainError):
    """A listed genus-zero (level, group) whose principal modulus the catalog cannot build."""

