"""Exception types shared across the package."""


class EggmixError(Exception):
    """Base class for package-specific errors."""


class InputError(EggmixError, ValueError):
    """Invalid user-supplied data (geometry, knots, dimensions)."""


class DomainError(InputError):
    """Evaluation point outside the parametric domain."""


class CornerMismatchError(InputError):
    """Adjacent boundary curves disagree at a shared corner."""

    def __init__(self, corner, gap):
        self.corner = corner
        self.gap = gap
        super().__init__(
            f"boundary curves disagree at corner {corner!r} (gap {gap:.3e})")


class KnotMismatchError(InputError):
    """Glued patch faces carry incompatible knot vectors."""


class ModeError(InputError):
    """Single-direction mode requested on a basis without the required continuity."""


class FactorizationError(EggmixError):
    """Cholesky factorization failed; the matrix is not SPD."""


class NonbijectiveMapError(EggmixError):
    """An operation that requires det J > 0 everywhere met a folded map."""


class StagnationError(EggmixError):
    """The line search hit its floor without finding a descent step."""
