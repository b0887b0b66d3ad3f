"""Exception types shared by the solver modules."""


class LdError(Exception):
    """Base class for all ldvortex errors."""


class InvalidParameters(LdError, ValueError):
    """Model parameters violate a hard constraint (non-positive dimensions etc.)."""


class DegenerateField(LdError):
    """The applied field satisfies sin(H p L) = 0, so the reduced phase
    problem is degenerate at leading order and the 2^N enumeration breaks down."""


class ShapeMismatch(LdError, ValueError):
    """Array shapes of a state/observable do not match the grid or each other."""


class NonFinite(LdError, FloatingPointError):
    """A NaN or infinity appeared in an energy, gradient or iterate."""


class SingularHessian(LdError):
    """The Newton system is singular (r = 0 kernel, or a degenerate field)."""


class NoConvergence(LdError):
    """An iterative solve exhausted its iteration budget."""


class FactorizationFailure(LdError):
    """A matrix factorization (banded LU / eig) failed."""


class NoCompleteCycle(LdError):
    """No complete Josephson-current cycle fits inside the sample."""


class DomainError(LdError, ValueError):
    """An analytic bound or a solver was asked for outside its domain."""
