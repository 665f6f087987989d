"""Shared exception types."""


class ApMeyerError(Exception):
    """Base class for library errors."""


class ParseError(ApMeyerError):
    """Malformed exact literal or input file; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class RankDeficient(ApMeyerError):
    """Integer matrix has smaller row rank than required."""


class NotInLattice(ApMeyerError):
    """Physical vector has no integer-coordinate preimage in the lattice."""


class UnboundedRegion(ApMeyerError):
    """Enumeration region is not a bounded box or ball."""


class BudgetExceeded(ApMeyerError):
    """A search or enumeration exceeded its configured budget."""


class NoMonoGrid(ApMeyerError):
    """No monochromatic grid of the requested depth exists in the colored cube."""


class VerificationFailed(ApMeyerError):
    """A constructed object failed its exact re-verification."""


def verify(ok: bool, message: str) -> None:
    """Exact re-verification guard; unlike `assert`, it survives `python -O`."""
    if not ok:
        raise VerificationFailed(message)


class RankGapError(ApMeyerError):
    """Euclideanization refused: some translate is independent of the lattice span."""

    def __init__(self, translate):
        super().__init__(f"ap-rank is smaller than rank: independent translate {translate!r}")
        self.translate = translate
