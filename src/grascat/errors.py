"""Exception hierarchy shared by all grascat modules, and the integer and JSON input checks."""

from operator import index
from typing import Callable


class GrascatError(Exception):
    """Base class for all computation errors raised by grascat."""


class DimensionMismatch(GrascatError):
    """Operands do not share the required (k, n) or matrix dimensions."""


class NotSemistandard(GrascatError):
    """A constructed tableau violates row-weak or column-strict order."""


class NotAFactor(GrascatError):
    """Row-wise multiset division was requested for a non-factor."""


class FieldOverflow(GrascatError):
    """A packed tableau count could reach the guard bit of its field."""


class OutOfRange(GrascatError):
    """An (i, s) / (i, m, v) parameter lies outside its admissible range."""


class NoDecomposition(GrascatError):
    """No nonnegative integral fundamental decomposition exists."""


class FrozenVertex(GrascatError):
    """Mutation was requested at a frozen vertex."""


class BadParameters(GrascatError):
    """Constructor parameters are outside the supported range."""


class IncomparableExchange(GrascatError):
    """The two exchange-monomial unions are not dominance comparable."""


class NoIntegerSolution(GrascatError):
    """An exact linear system has no integral solution."""


class NonUniqueSolution(GrascatError):
    """An exact linear system is underdetermined."""


class NotTwoIntervals(GrascatError):
    """The k-subset does not decompose into exactly two cyclic intervals."""


class NotFiniteDimensional(GrascatError):
    """The path-algebra quotient did not terminate below the degree cap."""


class AlgebraMismatch(GrascatError):
    """Two-term complexes over different algebras were combined."""


class NotGeneric(GrascatError):
    """A vector tuple violates consecutive genericity."""


class MalformedInput(GrascatError):
    """A JSON payload is not an object whose fields have the expected kinds."""


def integer(name: str, value) -> int:
    """value by ``operator.index``, else BadParameters naming it."""
    try:
        return index(value)
    except TypeError:
        raise BadParameters(f"{name} must be an integer, got {value!r}") from None


def is_int(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def list_of(kind: Callable[[object], bool] | None = None) -> Callable[[object], bool]:
    """The kind of a JSON array whose items all have ``kind`` (any, if None)."""
    return lambda x: isinstance(x, list) and (kind is None or all(map(kind, x)))


def json_fields(data, what: str, **kinds: Callable[[object], bool]) -> tuple:
    """The named fields of a JSON object, in order, each checked by its kind.

    A kind is a predicate on the field's value; None accepts any value.

    Raises MalformedInput when ``data`` is not an object, or a field is
    missing or has the wrong kind.
    """
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(data).__name__}")
    for name, kind in kinds.items():
        if name not in data:
            raise MalformedInput(f"{what} has no field {name!r}")
        if kind is not None and not kind(data[name]):
            raise MalformedInput(f"{what} field {name!r} has the wrong kind")
    return tuple(data[name] for name in kinds)
