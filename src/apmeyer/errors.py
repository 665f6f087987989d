"""Shared exception types, the exact re-verification guard and the budget meter."""

from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET = 10 ** 6

# [units charged, budget] of the active run; None outside a run
_METER = ContextVar("apmeyer_meter", default=None)


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


@contextmanager
def metered(budget=DEFAULT_BUDGET):
    """Run the body as one run of at most `budget` work units.  Inside an
    active meter it charges that meter and `budget` is ignored; every public
    search opens a bare `metered()`, so alone it runs at `DEFAULT_BUDGET`."""
    if _METER.get() is not None:
        yield
        return
    token = _METER.set([0, budget])
    try:
        yield
    finally:
        _METER.reset(token)


def charged():
    """Units charged so far to the active run."""
    return _METER.get()[0]


def charge(n=1):
    """Charge `n` units to the active run (outside one, alone against the
    default); raises `BudgetExceeded` once the total passes the budget."""
    meter = _METER.get() or [0, DEFAULT_BUDGET]
    meter[0] += n
    if meter[0] > meter[1]:
        raise BudgetExceeded(f"work of {meter[0]} units exceeds the budget of {meter[1]}")


class RankGapError(ApMeyerError):
    """Euclideanization refused: some translate is independent of the lattice span."""

    def __init__(self, translate):
        super().__init__(f"ap-rank is smaller than rank: independent translate {translate!r}")
        self.translate = translate
