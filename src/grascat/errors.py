"""Exception hierarchy shared by all grascat modules."""


class GrascatError(Exception):
    """Base class for all computation errors raised by grascat."""


class DimensionMismatch(GrascatError):
    """Operands do not share the required (k, n) or matrix dimensions."""


class NotSemistandard(GrascatError):
    """A constructed tableau violates row-weak or column-strict order."""


class NotAFactor(GrascatError):
    """Row-wise multiset division was requested for a non-factor."""


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


class DegenerateDenominator(GrascatError):
    """A window denominator determinant vanished."""


class NotGeneric(GrascatError):
    """A vector tuple violates consecutive genericity."""
