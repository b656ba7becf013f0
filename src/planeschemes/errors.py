"""Exception types shared across the package."""


class PlaneSchemesError(Exception):
    """Base class for all library errors."""


class ZeroInverse(PlaneSchemesError):
    """Attempt to invert 0 in a prime field."""


class SingularMatrix(PlaneSchemesError):
    """2x2 matrix with zero determinant where an invertible one is required."""


class UnsupportedPrime(PlaneSchemesError):
    """The modulus is not an odd prime within the supported range."""


class ClosureBudgetExceeded(PlaneSchemesError):
    """Group closure grew past the configured element cap."""


class NotStarClosed(PlaneSchemesError):
    """Some color's transpose is not a single color."""


class InconsistentIntersection(PlaneSchemesError):
    """An intersection number depends on the choice of pair in its color."""

    def __init__(self, r, s, t, pair1, pair2):
        super().__init__(
            "c(%d,%d)^%d differs between pairs %s and %s" % (r, s, t, pair1, pair2)
        )
        self.triple = (r, s, t)
        self.pairs = (pair1, pair2)


class NotAlgebraic(PlaneSchemesError):
    """A color permutation fails the intersection-number identity."""


class BudgetExceeded(PlaneSchemesError):
    """Automorphism search exceeded its node budget."""


class InvariantViolated(PlaneSchemesError):
    """An internal invariant failed: a bug, never a property of the input."""


class UnclassifiableSchurian(PlaneSchemesError):
    """A schurian fusion matched no case of the classification.

    Signals either a bug or a genuine counterexample; never swallowed.
    """


class NonCanonicalPartition(PlaneSchemesError):
    """A partition string is not in canonical restricted-growth form."""
