"""Exception hierarchy.

Every failure mode gets its own class so callers can react precisely, and
each class carries the report status it becomes in the verification
driver (`registry.verify_one`): "skipped" for a degenerate or
inadmissible specialization, where `auto` tries a numeric sample, and
"error" for a defect, whatever the draw (a wrong or missing declaration,
an exact build short of its order), which never falls back. A class
inherits "error" from `QIdentError` unless it says otherwise.
"""

class QIdentError(Exception):
    """Base class for all package-specific errors."""

    status = "error"


class ZeroLeadingCoefficient(QIdentError):
    """Tried to invert a series whose leading coefficient vanishes.

    Typically signals a degenerate parameter specialization (e.g. x = 1
    making the factor 1 - x collapse to zero).
    """

    status = "skipped"


class OrderInsufficient(QIdentError):
    """A comparison was requested beyond the guaranteed truncation order;
    `short`, when known, is how many units of order are missing."""

    def __init__(self, message: str, short: int | None = None):
        super().__init__(message)
        self.short = short


class NonTruncatable(QIdentError):
    """An infinite product cannot be truncated to a finite q-window.

    Raised when the product argument has negative valuation or the base has
    non-positive valuation; only finitely supported tails can be cut off.
    """

    status = "skipped"


class ValuationStall(QIdentError):
    """Summand valuations stopped growing; the exact sum cannot terminate."""

    status = "skipped"


class BoundViolation(QIdentError):
    """A term fell below the valuation bound its summand declared. The
    declaration is wrong, not the input inadmissible: a sum stopped on it
    could drop terms, so it is never reported as a skip."""


class UndeclaredFloor(QIdentError):
    """An opaque factor of a summand declares no valuation floor, so no
    exact sum over it can be certified to stop. Like BoundViolation it is
    a defect of the declaration, whatever the draw, so it is never
    reported as a skip."""


class UndeclaredBound(QIdentError):
    """The numeric counterpart of UndeclaredFloor: an opaque factor of a
    summand that declares no support declares no magnitude bound either,
    so no numeric sum over it can be certified to stop."""


class TailNotDecreasing(QIdentError):
    """The numeric tail never met the stopping rule within the term budget."""

    status = "skipped"


class DegenerateVWP(QIdentError):
    """The very-well-poised factor (1 - k q^{2n})/(1 - k) has k = 1."""

    status = "skipped"


class DegenerateDenominator(QIdentError):
    """A denominator factor vanishes identically at this specialization."""

    status = "skipped"


class SizeMismatch(QIdentError):
    """Two multisets that must have matching sizes do not."""


class DegenerateFamily(QIdentError):
    """A parametric solution family collapsed to two equal multisets."""

    status = "skipped"


class BridgeConstraintError(QIdentError):
    """The polynomial compatibility condition linking two multisets to a
    telescoping term sequence does not hold."""


class SamplerExhausted(QIdentError):
    """Rejection sampling failed to find an admissible assignment."""
