"""Rectangular semistandard Young tableaux and the dominant-monomial dictionary.

Tableaux form a monoid under row-wise multiset union; trivial columns (each
entry one less than the one below) act as units up to the equivalence
``S ~ T  iff  S_red = T_red``.  Dominant monomials in the variables Y_{i,s}
decompose into fundamental one-column tableaux, giving a dictionary between
monomials and equivalence classes of tableaux.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cmcat import KSubset
from .errors import (
    DimensionMismatch,
    NoDecomposition,
    NoIntegerSolution,
    NotAFactor,
    NotSemistandard,
    OutOfRange,
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
    "fundamental_subset",
    "monomial_to_tableau",
    "tableau_to_monomial",
    "bender_knuth",
    "promote",
    "content_grid",
]


@dataclass(frozen=True)
class Tableau:
    """A rectangular SSYT with k rows and entries in [n]; rows stored sorted."""

    k: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.k:
            raise NotSemistandard(f"expected {self.k} rows, got {len(self.rows)}")
        object.__setattr__(self, "rows", tuple(tuple(sorted(r)) for r in self.rows))
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

    # The paper calls the column count the rank of the tableau.
    rank = width

    def is_empty(self) -> bool:
        return self.width == 0

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(self.rows[r][c] for r in range(self.k))

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(c) for c in range(self.width)]

    def to_subset(self) -> KSubset:
        if self.width != 1:
            raise DimensionMismatch("only one-column tableaux map to k-subsets")
        return KSubset(self.n, self.column(0))

    def content(self) -> np.ndarray:
        """k x n grid; entry [r, v-1] counts the boxes of value v in row r."""
        grid = np.zeros((self.k, self.n), dtype=np.int64)
        for r, row in enumerate(self.rows):
            for v in row:
                grid[r, v - 1] += 1
        return grid

    def to_json(self) -> dict:
        return {"k": self.k, "n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Tableau":
        k, n, rows = data["k"], data["n"], data["rows"]
        if not (
            _is_int(k)
            and _is_int(n)
            and isinstance(rows, list)
            and all(isinstance(r, list) and all(map(_is_int, r)) for r in rows)
        ):
            raise NotSemistandard("k, n and every row entry must be integers")
        return cls.make(k, n, rows)

    def __str__(self) -> str:
        if self.is_empty():
            return f"(empty {self.k}x0 tableau)"
        w = len(str(self.n))
        return "\n".join(" ".join(str(v).rjust(w) for v in r) for r in self.rows)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def content_grid(t: Tableau) -> np.ndarray:
    """Per-row value counts of a tableau."""
    return t.content()


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
    out = items[0]
    for t in items[1:]:
        out = union(out, t)
    return out


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
    if not (1 <= a <= n - k + 1):
        raise OutOfRange(f"trivial column start {a} outside [1, {n - k + 1}]")
    return Tableau.from_column(range(a, a + k), n)


def reduce(t: Tableau) -> Tableau:
    """Remove the maximal trivial factor; canonical ~-class representative."""
    counts = t.content()
    out = t
    for a in range(1, t.n - t.k + 2):
        mult = min(int(counts[r, a + r - 1]) for r in range(t.k))
        for _ in range(mult):
            out = quotient(out, trivial_column(a, t.k, t.n))
    return out


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


def _dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Partition dominance: partial sums of lam weakly exceed those of mu."""
    s_l = s_m = 0
    for a, b in zip(lam, mu):
        s_l += a
        s_m += b
        if s_l < s_m:
            return False
    return True


def dominance_compare(s: Tableau, t: Tableau) -> Dominance:
    """Compare two tableaux in the dominance order on restriction shapes."""
    _check_shapes(s, t)
    cs, ct = s.content(), t.content()
    if not np.array_equal(cs.sum(axis=0), ct.sum(axis=0)):
        return Dominance.DIFFERENT_CONTENT
    # sh(T[i])_r = number of entries <= i in row r.
    shapes_s = np.cumsum(cs, axis=1)
    shapes_t = np.cumsum(ct, axis=1)
    ge = le = True
    for i in range(s.n):
        lam = tuple(int(x) for x in shapes_s[:, i])
        mu = tuple(int(x) for x in shapes_t[:, i])
        if lam == mu:
            continue
        if not _dominates(lam, mu):
            ge = False
        if not _dominates(mu, lam):
            le = False
        if not ge and not le:
            return Dominance.INCOMPARABLE
    if ge and le:
        return Dominance.EQ
    return Dominance.GT if ge else Dominance.LT


# --- the dictionary between dominant monomials and tableaux -----------------


def fundamental_subset(i: int, s: int, k: int, n: int | None = None) -> KSubset:
    """Entries of the fundamental column attached to Y_{i,s}.

    With the linear height function (xi(i) = i - 2) this is the interval
    [(i-s)/2, k+(i-s)/2] with k-(i+s)/2 removed.
    """
    if not 1 <= i <= k - 1:
        raise OutOfRange(f"Dynkin index i={i} outside [1, {k - 1}]")
    if (i - s) % 2 != 0:
        raise OutOfRange(f"s={s} has the wrong parity for i={i}")
    lo = (i - s) // 2
    if lo < 1:
        raise OutOfRange(f"(i,s)=({i},{s}) needs s <= i-2")
    hi = k + lo
    if n is None:
        n = hi
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
        merged: dict[tuple[int, int], int] = {}
        for i, s, mult in self.factors:
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

    def degree(self) -> int:
        return sum(m for _, _, m in self.factors)

    def to_json(self) -> dict:
        return {"k": self.k, "ell": self.ell, "factors": [list(f) for f in self.factors]}

    @classmethod
    def from_json(cls, data: dict) -> "DominantMonomial":
        return cls(int(data["k"]), int(data["ell"]), tuple(tuple(f) for f in data["factors"]))

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
    """Fundamental + trivial content vectors for (k, n), with an exact solver.

    Returns (solver, fundamental (i,s) list, trivial-start list).  Linear
    independence of the columns is verified by the solver constructor, which
    is what makes tableau_to_monomial single valued.
    """
    ell = n - k - 1
    fundamentals = []
    for i in range(1, k):
        for r in range(ell + 1):
            s = i - 2 - 2 * r
            fundamentals.append((i, s))
    columns = []
    for i, s in fundamentals:
        columns.append(
            Tableau.from_subset(fundamental_subset(i, s, k, n)).content().ravel().tolist()
        )
    trivial_starts = list(range(1, n - k + 2))
    for a in trivial_starts:
        columns.append(trivial_column(a, k, n).content().ravel().tolist())
    return ExactSolver(columns), fundamentals, trivial_starts


def tableau_to_monomial(t: Tableau) -> DominantMonomial:
    """Fundamental decomposition of a tableau, inverse to monomial_to_tableau.

    Solved as an exact integer system on content grids: the tableau content
    must equal a nonnegative combination of fundamental-column contents plus
    an arbitrary integer combination of trivial-column contents.
    """
    if t.n < t.k + 2:
        raise OutOfRange(f"no fundamental columns exist for (k,n)=({t.k},{t.n})")
    solver, fundamentals, _ = _dictionary_basis(t.k, t.n)
    try:
        sol = solver.solve_integer(t.content().ravel().tolist())
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
