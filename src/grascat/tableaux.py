"""Rectangular semistandard Young tableaux and the dominant-monomial dictionary.

Tableaux form a monoid under row-wise multiset union; trivial columns (each
entry one less than the one below) act as units up to the equivalence
``S ~ T  iff  S_red = T_red``.  Dominant monomials in the variables Y_{i,s}
decompose into fundamental one-column tableaux, giving a dictionary between
monomials and equivalence classes of tableaux.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import lru_cache

from .cmcat import KSubset
from .errors import (
    BadParameters,
    DimensionMismatch,
    FieldOverflow,
    NoDecomposition,
    NoIntegerSolution,
    NotAFactor,
    NotSemistandard,
    OutOfRange,
    integer,
    is_int,
    json_fields,
    list_of,
)
from .linalg import ExactSolver

__all__ = [
    "Tableau",
    "DominantMonomial",
    "Dominance",
    "union",
    "union_all",
    "quotient",
    "trivial_column",
    "reduce",
    "equivalent",
    "dominance_compare",
    "Packing",
    "fundamental_subset",
    "monomial_to_tableau",
    "tableau_to_monomial",
    "bender_knuth",
    "promote",
]


@dataclass(frozen=True)
class Tableau:
    """A rectangular SSYT with k rows and entries in [n]; rows stored sorted."""

    k: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, n = integer("k", self.k), integer("n", self.n)
        if not 1 <= k <= n:
            raise BadParameters(f"a tableau needs 1 <= k <= n, got k={k}, n={n}")
        if len(self.rows) != k:
            raise NotSemistandard(f"expected {k} rows, got {len(self.rows)}")
        try:
            rows = tuple(tuple(sorted(map(operator.index, r))) for r in self.rows)
        except TypeError:
            raise NotSemistandard("every row must be a list of integers") from None
        if k is not self.k or n is not self.n:  # a numpy or other index-able integer
            object.__setattr__(self, "k", k)
            object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        self.validate()

    def validate(self) -> None:
        width = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != width:
                raise NotSemistandard("rows have unequal lengths")
            if r and not (1 <= r[0] and r[-1] <= self.n):
                raise NotSemistandard(f"entries of {r} outside [1, {self.n}]")
        for c in range(width):
            for r in range(self.k - 1):
                if self.rows[r][c] >= self.rows[r + 1][c]:
                    raise NotSemistandard(
                        f"column {c + 1} not strictly increasing: "
                        f"{self.rows[r][c]} >= {self.rows[r + 1][c]}"
                    )

    @classmethod
    def make(cls, k: int, n: int, rows) -> "Tableau":
        return cls(k, n, tuple(tuple(r) for r in rows))

    @classmethod
    def empty(cls, k: int, n: int) -> "Tableau":
        return cls(k, n, tuple(() for _ in range(k)))

    @classmethod
    def from_column(cls, entries, n: int) -> "Tableau":
        """One-column tableau from a strictly increasing set of entries."""
        col = tuple(sorted(entries))
        return cls(len(col), n, tuple((e,) for e in col))

    @classmethod
    def from_subset(cls, subset: KSubset) -> "Tableau":
        return cls.from_column(subset.elems, subset.n)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_empty(self) -> bool:
        return self.width == 0

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(self.rows[r][c] for r in range(self.k))

    def to_subset(self) -> KSubset:
        if self.width != 1:
            raise DimensionMismatch("only one-column tableaux map to k-subsets")
        return KSubset(self.n, self.column(0))

    def content(self) -> tuple[int, ...]:
        """The k n per-row value counts, row-major, as Python ints.

        Entry r n + v - 1 counts the boxes of value v in row r: the fields
        of `Packing`'s C grid, lowest first.
        """
        n = self.n
        counts = [0] * (self.k * n)
        for r, row in enumerate(self.rows):
            for v in row:
                counts[r * n + v - 1] += 1
        return tuple(counts)

    def to_json(self) -> dict:
        return {"k": self.k, "n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Tableau":
        k, n, rows = json_fields(data, "tableau", k=is_int, n=is_int, rows=list_of())
        if not all(map(list_of(is_int), rows)):
            raise NotSemistandard("every row must be a list of integers")
        return cls.make(k, n, rows)

    def __str__(self) -> str:
        if self.is_empty():
            return f"(empty {self.k}x0 tableau)"
        w = len(str(self.n))
        return "\n".join(" ".join(str(v).rjust(w) for v in r) for r in self.rows)


def _check_shapes(s: Tableau, t: Tableau) -> None:
    if (s.k, s.n) != (t.k, t.n):
        raise DimensionMismatch(f"({s.k},{s.n}) vs ({t.k},{t.n})")


def union(s: Tableau, t: Tableau) -> Tableau:
    """Row-wise multiset union; the result is again semistandard."""
    _check_shapes(s, t)
    return Tableau(s.k, s.n, tuple(a + b for a, b in zip(s.rows, t.rows)))


def union_all(tableaux, k: int | None = None, n: int | None = None) -> Tableau:
    """Union of arbitrarily many tableaux; (k, n) needed for an empty family."""
    items = list(tableaux)
    if not items:
        if k is None or n is None:
            raise DimensionMismatch("union of empty family needs explicit (k, n)")
        return Tableau.empty(k, n)
    first = items[0]
    if len(items) == 1:
        return first
    for t in items[1:]:
        _check_shapes(first, t)
    rows = tuple(sum(row, ()) for row in zip(*(t.rows for t in items)))
    return Tableau(first.k, first.n, rows)


def quotient(t: Tableau, s: Tableau) -> Tableau:
    """Row-wise multiset difference t minus s; s must be a factor of t."""
    _check_shapes(s, t)
    new_rows = []
    for row_t, row_s in zip(t.rows, s.rows):
        remaining = list(row_t)
        for v in row_s:
            try:
                remaining.remove(v)
            except ValueError:
                raise NotAFactor(f"row {row_s} is not contained in {row_t}") from None
        new_rows.append(tuple(remaining))
    return Tableau(t.k, t.n, tuple(new_rows))


def trivial_column(a: int, k: int, n: int) -> Tableau:
    """The trivial column with entries a, a+1, ..., a+k-1."""
    a, k, n = integer("a", a), integer("k", k), integer("n", n)
    if not (1 <= a <= n - k + 1):
        raise OutOfRange(f"trivial column start {a} outside [1, {n - k + 1}]")
    return Tableau.from_column(range(a, a + k), n)


def reduce(t: Tableau) -> Tableau:
    """Remove the maximal trivial factor; canonical ~-class representative.

    Computed on the packed tableau by `Packing.reduce`: t itself when it has
    no trivial column, else the rest, built and checked semistandard once.
    """
    packing = Packing.fitting(t.k, t.n, t.k * t.width)
    x = packing.pack(t)
    red, _ = packing.reduce(x)
    return t if red == x else packing.tableau(red)


def equivalent(s: Tableau, t: Tableau) -> bool:
    """S ~ T iff their reductions coincide."""
    _check_shapes(s, t)
    return reduce(s) == reduce(t)


class Dominance(enum.Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    INCOMPARABLE = "Incomparable"
    DIFFERENT_CONTENT = "DifferentContent"


def dominance_compare(s: Tableau, t: Tableau) -> Dominance:
    """Compare two tableaux in the dominance order on restriction shapes.

    sh(T[i]) lists, per row, the number of entries <= i, and S >= T when
    every partial row sum of sh(S[i]) weakly exceeds that of sh(T[i]), for
    every i.  Those partial sums are the P grid of the packed tableau, so
    this is `Packing.dominance` in fields wide enough for both.
    """
    _check_shapes(s, t)
    packing = Packing.fitting(s.k, s.n, s.k * max(s.width, t.width))
    return packing.dominance(packing.pack(s), packing.pack(t))


# --- packed count vectors ---------------------------------------------------


class Packing:
    """Tableaux of one shape (k, n) as packed count vectors.

    A rectangular SSYT is fixed by its per-row value counts.  One int holds
    three k x n grids of ``bits``-bit fields, lowest first:

    - C[r][v], the count of v in row r;
    - R[r][v], the count of entries <= v in row r;
    - P[r][v] = R[0][v] + ... + R[r][v].

    Field (r, v) of a grid is field r n + v - 1 of its section.  All three
    grids are linear in the tableau, so a union is the sum of the ints and
    a quotient their difference.  Every field stays below its top bit, the
    guard bit, so one subtraction compares two grids field by field:
    ``((a | G) - b) & G == G`` exactly when every field of a is >= that of
    b (Lamport 1975, "multiple byte processing with full-word
    instructions").  The largest field of a tableau is its top one,
    P[k-1][n] = k * width; `pack` raises FieldOverflow when that reaches
    the guard bit, and a caller that adds packed tableaux keeps the sum
    below it too.
    """

    def __init__(self, k: int, n: int, bits: int):
        self.k, self.n, self.bits = k, n, bits
        size = k * n
        self.grid_bits = size * bits
        self.fmask = (1 << bits) - 1
        ones = sum(1 << (f * bits) for f in range(size))
        self.grid = ones * self.fmask
        self.guard = ones << (bits - 1)
        self.limit = 1 << (bits - 1)
        self.top = (3 * size - 1) * bits
        # the last row of P counts the entries <= v of the whole tableau
        self.content_shift = (2 * size + (k - 1) * n) * bits
        self.last_ones = sum(1 << ((r * n + n - 1) * bits) for r in range(k))
        self.last_column = self.last_ones * self.fmask

        def field(section: int, r: int, v: int) -> int:
            return 1 << ((section * size + r * n + v - 1) * bits)

        # The packed value of one entry v in row r: it adds 1 to C[r][v], to
        # R[r][u] for u >= v and to P[s][u] for s >= r, u >= v.
        self.units = [
            [0] + [
                field(0, r, v)
                + sum(field(1, r, u) for u in range(v, n + 1))
                + sum(field(2, s, u) for s in range(r, k) for u in range(v, n + 1))
                for v in range(1, n + 1)
            ]
            for r in range(k)
        ]
        # Cell (r, a + r) of the trivial column starting at a is field
        # r (n + 1) + a - 1: shifting row r down by r (n + 1) fields lines
        # the k cells of every trivial column up in the first n - k + 1 fields.
        starts = n - k + 1
        self.diagonal = [r * (n + 1) * bits for r in range(k)]
        self.start_ones = sum(1 << (a * bits) for a in range(starts))
        self.start_fields = self.start_ones * self.fmask
        self.start_guard = self.start_ones << (bits - 1)
        self.trivial = [self.pack(trivial_column(a, k, n)) for a in range(1, starts + 1)]

    @classmethod
    @lru_cache(maxsize=32)
    def of(cls, k: int, n: int, bits: int) -> "Packing":
        """The shared packing of shape (k, n) with ``bits``-bit fields."""
        return cls(k, n, bits)

    @classmethod
    def fitting(cls, k: int, n: int, count: int) -> "Packing":
        """The shared packing of shape (k, n) whose fields hold ``count``.

        Fields start at 16 bits and double until count is below the guard
        bit.  A tableau's largest field is k * width, the sum of its P grid.
        """
        bits = 16
        while count >= 1 << (bits - 1):
            bits *= 2
        return cls.of(k, n, bits)

    def pack(self, t: Tableau) -> int:
        """The sum of the packed units of the entries of t."""
        if (t.k, t.n) != (self.k, self.n):
            raise DimensionMismatch(f"({t.k},{t.n}) tableau in a ({self.k},{self.n}) packing")
        if t.k * t.width >= self.limit:
            raise FieldOverflow(f"a width-{t.width} tableau overflows {self.bits}-bit fields")
        return sum(units[v] for units, row in zip(self.units, t.rows) for v in row)

    def tableau(self, x: int) -> Tableau:
        """The tableau whose packed value is x (read from its C grid)."""
        rows = []
        for _ in range(self.k):
            row: list[int] = []
            for v in range(1, self.n + 1):
                count = x & self.fmask
                if count:
                    row += [v] * count
                x >>= self.bits
            rows.append(tuple(row))
        return Tableau(self.k, self.n, tuple(rows))

    def ge(self, a: int, b: int) -> bool:
        """Every field of grid a is >= the field of grid b."""
        guard = self.guard
        return ((a | guard) - b) & guard == guard

    def dominance(self, x: int, y: int) -> Dominance:
        """The dominance order of two packed tableaux: P_x >= P_y means x >= y.

        Contents differ exactly when the last rows of P differ.
        """
        if x >> self.content_shift != y >> self.content_shift:
            return Dominance.DIFFERENT_CONTENT
        px, py = x >> 2 * self.grid_bits, y >> 2 * self.grid_bits
        ge, le = self.ge(px, py), self.ge(py, px)
        if ge:
            return Dominance.EQ if le else Dominance.GT
        return Dominance.LT if le else Dominance.INCOMPARABLE

    def quotient(self, x: int, y: int) -> int | None:
        """x minus y, or None when y is not a factor of x (some C_y > C_x)."""
        if not self.ge(x & self.grid, y & self.grid):
            return None
        return x - y

    def semistandard(self, x: int) -> bool:
        """Columns strictly increase, R[r+1][v] <= R[r][v-1], and rows have one length."""
        counts = x & self.grid
        cumulative = (x >> self.grid_bits) & self.grid
        below = cumulative - counts  # R[r][v-1], the entries < v of row r
        if not self.ge(below, cumulative >> self.n * self.bits):
            return False
        width = (cumulative >> (self.n - 1) * self.bits) & self.fmask
        return cumulative & self.last_column == width * self.last_ones

    def reduce(self, x: int) -> tuple[int, list[int]]:
        """x less its maximal trivial factor, with the multiplicity of each trivial column.

        The trivial column starting at a has a + r in row r, so it comes off
        min_r C[r][a + r] times; columns with different starts use disjoint
        cells, so all of them come off at once.  One pass over the k rows
        first finds the columns with every cell nonzero; most labels have
        none.  The result is not checked semistandard.
        """
        counts = x & self.grid
        guard = present = self.start_guard
        for shift in self.diagonal:
            present &= (((counts >> shift) & self.start_fields) | guard) - self.start_ones
        mults = [0] * len(self.trivial)
        for a, column in enumerate(self.trivial):
            if present >> (a * self.bits) & self.limit:
                mults[a] = min((counts >> (shift + a * self.bits)) & self.fmask for shift in self.diagonal)
                x -= mults[a] * column
        return x, mults


# --- the dictionary between dominant monomials and tableaux -----------------


def fundamental_subset(i: int, s: int, k: int, n: int | None = None) -> KSubset:
    """Entries of the fundamental column attached to Y_{i,s}.

    With the linear height function (xi(i) = i - 2) this is the interval
    [(i-s)/2, k+(i-s)/2] with k-(i+s)/2 removed.
    """
    i, s, k = integer("i", i), integer("s", s), integer("k", k)
    if not 1 <= i <= k - 1:
        raise OutOfRange(f"Dynkin index i={i} outside [1, {k - 1}]")
    if (i - s) % 2 != 0:
        raise OutOfRange(f"s={s} has the wrong parity for i={i}")
    lo = (i - s) // 2
    if lo < 1:
        raise OutOfRange(f"(i,s)=({i},{s}) needs s <= i-2")
    hi = k + lo
    n = hi if n is None else integer("n", n)
    if hi > n:
        raise OutOfRange(f"column for (i,s)=({i},{s}) leaves [1, {n}]")
    entries = tuple(v for v in range(lo, hi + 1) if v != k - (i + s) // 2)
    return KSubset(n, entries)


@dataclass(frozen=True)
class DominantMonomial:
    """A monomial prod Y_{i,s}^{mult} with (i, s) in the window fixed by (k, ell)."""

    k: int
    ell: int
    factors: tuple[tuple[int, int, int], ...]  # (i, s, multiplicity)

    def __post_init__(self):
        object.__setattr__(self, "k", integer("k", self.k))
        object.__setattr__(self, "ell", integer("ell", self.ell))
        merged: dict[tuple[int, int], int] = {}
        for i, s, mult in self.factors:
            i, s, mult = integer("i", i), integer("s", s), integer("multiplicity", mult)
            if mult <= 0:
                raise OutOfRange("multiplicities must be positive")
            self._check_window(i, s)
            merged[(i, s)] = merged.get((i, s), 0) + mult
        canon = tuple(sorted((i, s, m) for (i, s), m in merged.items()))
        object.__setattr__(self, "factors", canon)

    def _check_window(self, i: int, s: int) -> None:
        if not 1 <= i <= self.k - 1:
            raise OutOfRange(f"i={i} outside [1, {self.k - 1}]")
        if (i - s) % 2 != 0 or s > i - 2 or s < i - 2 - 2 * self.ell:
            raise OutOfRange(f"s={s} outside the (k,ell)=({self.k},{self.ell}) window for i={i}")

    @property
    def n(self) -> int:
        return self.k + self.ell + 1

    def to_json(self) -> dict:
        return {"k": self.k, "ell": self.ell, "factors": [list(f) for f in self.factors]}

    @classmethod
    def from_json(cls, data: dict) -> "DominantMonomial":
        def is_factor(f) -> bool:
            return list_of(is_int)(f) and len(f) == 3

        k, ell, factors = json_fields(
            data, "monomial", k=is_int, ell=is_int, factors=list_of(is_factor)
        )
        return cls(k, ell, tuple(tuple(f) for f in factors))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(
            f"Y[{i},{s}]" + (f"^{m}" if m > 1 else "") for i, s, m in self.factors
        )


def monomial_to_tableau(mono: DominantMonomial) -> Tableau:
    """Union of the fundamental columns of the monomial, trivial factors removed."""
    n = mono.n
    parts = []
    for i, s, mult in mono.factors:
        col = Tableau.from_subset(fundamental_subset(i, s, mono.k, n))
        parts.extend([col] * mult)
    return reduce(union_all(parts, k=mono.k, n=n))


@lru_cache(maxsize=None)
def _dictionary_basis(k: int, n: int):
    """The fundamental (i, s) of (k, n), and the solver over their columns and the trivial ones.

    Linear independence of the columns is verified by the solver
    constructor, which is what makes tableau_to_monomial single valued.
    """
    fundamentals = [(i, i - 2 - 2 * r) for i in range(1, k) for r in range(n - k)]
    columns = [Tableau.from_subset(fundamental_subset(i, s, k, n)) for i, s in fundamentals]
    columns += [trivial_column(a, k, n) for a in range(1, n - k + 2)]
    return ExactSolver([t.content() for t in columns]), fundamentals


def tableau_to_monomial(t: Tableau) -> DominantMonomial:
    """Fundamental decomposition of a tableau, inverse to monomial_to_tableau.

    Solved as an exact integer system on contents: the tableau content
    must equal a nonnegative combination of fundamental-column contents plus
    an arbitrary integer combination of trivial-column contents.
    """
    if t.n < t.k + 2:
        raise OutOfRange(f"no fundamental columns exist for (k,n)=({t.k},{t.n})")
    solver, fundamentals = _dictionary_basis(t.k, t.n)
    try:
        sol = solver.solve_integer(t.content())
    except NoIntegerSolution as exc:
        raise NoDecomposition(str(exc)) from exc
    exps = sol[: len(fundamentals)]
    if any(u < 0 for u in exps):
        raise NoDecomposition("decomposition requires a negative fundamental exponent")
    factors = tuple(
        (i, s, u) for (i, s), u in zip(fundamentals, exps) if u > 0
    )
    return DominantMonomial(t.k, t.n - t.k - 1, factors)


# --- Bender-Knuth involutions and promotion ---------------------------------


def bender_knuth(t: Tableau, i: int) -> Tableau:
    """Swap the free entries i and i+1; fixed pairs share a column."""
    i = integer("i", i)
    if not 1 <= i <= t.n - 1:
        raise OutOfRange(f"Bender-Knuth index {i} outside [1, {t.n - 1}]")
    fixed_low = [0] * t.k  # per row: occurrences of i sitting directly above an i+1
    fixed_high = [0] * t.k
    for c in range(t.width):
        for r in range(t.k - 1):
            if t.rows[r][c] == i and t.rows[r + 1][c] == i + 1:
                fixed_low[r] += 1
                fixed_high[r + 1] += 1
    new_rows = []
    for r, row in enumerate(t.rows):
        free_i = row.count(i) - fixed_low[r]
        free_j = row.count(i + 1) - fixed_high[r]
        kept = [v for v in row if v not in (i, i + 1)]
        kept.extend([i] * (row.count(i) - free_i + free_j))
        kept.extend([i + 1] * (row.count(i + 1) - free_j + free_i))
        new_rows.append(tuple(kept))
    return Tableau(t.k, t.n, tuple(new_rows))


def promote(t: Tableau) -> Tableau:
    """Promotion BK_1 ∘ ... ∘ BK_{n-1} (rightmost involution applied first)."""
    out = t
    for i in range(t.n - 1, 0, -1):
        out = bender_knuth(out, i)
    return out
