"""E-invariants of two-term projective complexes and their generic values.

E(f, g) counts homotopy classes of maps f -> shift(g): the dimension of
Hom(F_-1, G_0) minus the rank of (u, v) |-> g∘u + v∘f.  The generic value
over a g-vector stratum is the minimum over all maps, so a sampled zero is
an exact certificate.  Every entry of the homotopy matrix that no compiled
term touches is zero for every pair of complexes, so its rank is at most ν,
the maximum matching of the operator's (row, column) support, and
E >= rows - ν on every sample, over Q and over F_p: the term-rank floor.
A sampled minimum that meets its floor is exact too; any other positive
minimum is a high-confidence estimate (the paper's positivity arguments
are symbolic).  Sampling stops at the first sample that meets the floor:
at a zero, or at a positive floor, computed once the first sample comes
back positive.

The homotopy map is compiled once per (algebra, f.neg, f.pos, g.neg, g.pos),
in one pass, into the (row, slot, coeff) terms of each of its columns, and
cached with its floor.  Columns that no term touches are zero for every
pair of complexes; they are dropped at compile time, which keeps both
ranks.  Each complex carries its slot vector: its coefficients in block
order as a plain tuple of Python ints, cleared of denominators (over Q) or
reduced mod p, made once per field and kept on it; a sampled complex's
draw is already that vector.
A pair concatenates g's and f's vectors into the operator's slot vector.
A small operator, at most `_SMALL_MAX` (12) rows or columns, as nearly all
of those the sampled predicates meet are, builds its matrix as lists of
Python ints and ranks it in Python ints: a numpy build and elimination
would cost more than the arithmetic.  So does any other operator whose
entries could reach 2^63 (max|x| times its bound).  Every other one is
scattered into an int64 array, so numpy sees only int64 matrices.

A stream is its key (master seed, sample index, stream id), and sample
idx reads each stream once: the first ``integers(low, high, size=width)``
of ``np.random.default_rng`` on that key.  Calls with one master seed read
the same streams again and again, so that draw is cached per (key, low,
high, width), as a tuple of Python ints, and no generator is kept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import lcm
from numbers import Rational
from operator import index
from typing import ClassVar

import numpy as np

from . import modp
from .errors import AlgebraMismatch, BadParameters, DimensionMismatch, integer
from .gvec import GVector
from .linalg import rank_int
from .qpa import Algebra

__all__ = [
    "TwoTermComplex",
    "EValueReport",
    "ConjecturalBool",
    "e_pair",
    "ee_symmetrized",
    "complex_from_gvector",
    "random_complex",
    "generic_e",
    "generic_e_parts",
    "generic_e_pair",
    "generic_e_pair_parts",
    "is_real_g",
    "are_compatible",
    "is_exchange_pair",
    "resolve_master_seed",
]

RATIONAL = "rational"
FP = "fp"


@dataclass(frozen=True)
class TwoTermComplex:
    """A map between sums of projectives, P(neg_0)+... -> P(pos_0)+...

    neg and pos are kept as tuples of vertex names.  blocks[(t, s)] holds
    the coefficients of the (s -> t) component over the hom basis of
    (neg[s], pos[t]); missing entries mean zero.  Coefficients
    are ints or Fractions; a float is rejected, so none reaches a certificate.
    The blocks are read once per field, into a slot vector kept on the
    complex outside its fields (`_slot_vector`), so they must not change.
    """

    algebra: Algebra
    neg: tuple[str, ...]
    pos: tuple[str, ...]
    blocks: dict[tuple[int, int], tuple[Rational, ...]] = field(default_factory=dict)

    def __post_init__(self):
        self.__dict__.update(neg=tuple(self.neg), pos=tuple(self.pos))
        _check_summands(self.algebra, self.neg, self.pos)
        for key, coeffs in self.blocks.items():
            try:
                t, s = map(index, key)
            except (TypeError, ValueError):
                t = s = -1
            if not (0 <= t < len(self.pos) and 0 <= s < len(self.neg)):
                raise BadParameters(f"block key {key!r} is not a pair (t, s) of ints with "
                                    f"0 <= t < {len(self.pos)} and 0 <= s < {len(self.neg)}")
            want = self.algebra.hom_dim(self.neg[s], self.pos[t])
            if len(coeffs) != want:
                raise BadParameters(
                    f"block ({t},{s}) has {len(coeffs)} coefficients, expected {want}"
                )
            if not all(isinstance(x, Rational) for x in coeffs):
                raise BadParameters(f"block ({t},{s}) has a non-rational coefficient: {coeffs}")

    @classmethod
    def _unchecked(cls, algebra: Algebra, neg, pos, blocks, field: str, slots) -> TwoTermComplex:
        """A complex whose blocks are known to have the right sizes and int
        coefficients, built without the constructor's checks, with `slots`
        as its `_slot_vector` over `field`."""
        h = object.__new__(cls)
        h.__dict__.update(algebra=algebra, neg=neg, pos=pos, blocks=blocks,
                          _slots={field: slots})
        return h


def _hom_coordinates(alg: Algebra, sources, targets) -> list[tuple[int, int, int]]:
    return [
        (s, t, c)
        for s in range(len(sources))
        for t in range(len(targets))
        for c in range(alg.hom_dim(sources[s], targets[t]))
    ]


def _check_summands(alg: Algebra, neg, pos) -> None:
    """Raise AlgebraMismatch, naming it, for a summand that is not a vertex of alg."""
    for name in (*neg, *pos):
        if name not in alg.vertices:
            raise AlgebraMismatch(f"summand {name!r} is not a vertex of the algebra")


def _check_field(field: str) -> None:
    if field not in (RATIONAL, FP):
        raise BadParameters(f"field must be {RATIONAL!r} or {FP!r}, got {field!r}")


@lru_cache(maxsize=1024)
def _block_layout(alg: Algebra, neg, pos) -> tuple[tuple, int]:
    """Slot order of a complex on (neg, pos): (key, start, end) of each block
    (t, s) with a nonzero hom basis, t over pos and s over neg inside it, and
    the total width.  A summand that is no vertex of alg raises AlgebraMismatch."""
    _check_summands(alg, neg, pos)
    spans, width = [], 0
    for t, tp in enumerate(pos):
        for s, sn in enumerate(neg):
            dim = alg.hom_dim(sn, tp)
            if dim:
                spans.append(((t, s), width, width + dim))
                width += dim
    return tuple(spans), width


def _slot_vector(h: TwoTermComplex, field: str) -> tuple[int, ...]:
    """h's int coefficients in slot order, as a tuple of Python ints; kept on h.

    Slot order is that of `_block_layout`, with zeros for a missing block.
    Over Q the coefficients are multiplied by the lcm of h's denominators,
    which scales whole columns of the homotopy matrix and so keeps its rank.
    Over F_p each is its numerator times its inverse denominator, reduced
    into [0, p); a denominator divisible by p raises ValueError.
    """
    kept = h.__dict__.setdefault("_slots", {})
    if field not in kept:
        dens = {int(x.denominator) for coeffs in h.blocks.values() for x in coeffs}
        scale = lcm(*dens)
        factor = {d: scale // d if field == RATIONAL else pow(d, -1, modp.PRIME) for d in dens}
        spans, width = _block_layout(h.algebra, h.neg, h.pos)
        x = [0] * width
        for key, start, end in spans:
            coeffs = h.blocks.get(key)
            if coeffs:
                x[start:end] = [int(c.numerator) * factor[c.denominator] for c in coeffs]
        if field == FP:
            x = [v % modp.PRIME for v in x]
        kept[field] = tuple(x)
    return kept[field]


# Operators with at most this many rows or columns are assembled and ranked
# in Python ints; larger ones by an int64 scatter and the numpy kernels.  Time
# per e_pair call on the operators of seed-1 `einv` and `reachability`
# rounds, Python ints against numpy (best of five runs, 2 vCPUs, Python
# 3.11, numpy 2.4):
#   rows x cols   over F_p                over Q
#   1 x 2         3.0 against 9.2 us      -
#   2 x 3         4.7 against 16.8 us     -
#   4 x 4         7.8 against 32 us       6.4 against 7.3 us
#   5 x 8         14 against 41 us        -
#   7 x 10        20 against 58 us        23 against 21 us
#   8 x 8         26 against 67 us        22 against 20 us
#   12 x 12       60 against 107 us       55 against 51 us
#   16 x 16       127 against 135 us      115 against 108 us
# Over Q the Python build loses a little from 7 x 10 on, where `rank_int`
# reading its rows entry by entry costs more than the scatter; over F_p it
# wins by far more up to 12 x 12 and ties at 16 x 16.
_SMALL_MAX = 12


@dataclass(frozen=True)
class _Operator:
    """The homotopy map (u, v) -> g∘u + v∘f, compiled for one pair of shapes.

    A pair of complexes is one flat int vector x: g's slot vector, then
    f's (`_slot_vector`).  `terms` holds the map in Python ints, one tuple
    per kept column: terms[j] holds a (row, slot, coeff) triple for each
    term of column j, which adds coeff * x[slot] to entry (row, j) of the
    rows × cols matrix; coeff is an int structure constant of the algebra.
    The full map's other columns, touched by no term, are zero.  flat,
    slot and coeff are the same terms as int64 arrays, flat[k] the
    row-major index of the k-th term's entry.  No entry takes more than
    `bound` (the largest sum of |coeff| into one entry, and at least 1)
    times max|x|.
    """

    rows: int
    cols: int
    flat: np.ndarray
    slot: np.ndarray
    coeff: np.ndarray
    bound: int
    terms: tuple[tuple[tuple[int, int, int], ...], ...]

    @cached_property
    def floor(self) -> int:
        """The term-rank floor rows - ν, ν the maximum matching of the
        (row, column) support of the terms; `rows`, with no matching run,
        when no column is kept.

        No rank of the matrix exceeds ν, so e_pair(f, g) >= rows - ν for
        every f, g on these shapes, over Q and over F_p.
        """
        if self.cols == 0:
            return self.rows
        support = [sorted({i for i, _, _ in column}) for column in self.terms]
        return self.rows - _matching_size(self.rows, support)


@lru_cache(maxsize=1024)
def _operator(alg: Algebra, f_neg, f_pos, g_neg, g_pos) -> _Operator:
    """Compile (u, v) -> g∘u + v∘f for f on (f_neg, f_pos) and g on (g_neg, g_pos).

    Row (s, t, c) is the c-th basis map of Hom(F_-1[s], G_0[t]).  The columns
    are the basis maps u of Hom(F_-1[s], G_-1[r]), then those v of
    Hom(F_0[u], G_0[t]), in `_hom_coordinates` order; only those that some
    term touches are kept, in that order.
    """
    row0, rows = {}, 0
    for s, sn in enumerate(f_neg):
        for t, tp in enumerate(g_pos):
            row0[(s, t)], rows = rows, rows + alg.hom_dim(sn, tp)
    g_spans, g_width = _block_layout(alg, g_neg, g_pos)
    g_start = {key: start for key, start, _ in g_spans}
    f_start = {key: g_width + start for key, start, _ in _block_layout(alg, f_neg, f_pos)[0]}
    full = []  # the (row, slot, coeff) terms of each column of the full map
    for s, r, c in _hom_coordinates(alg, f_neg, g_neg):
        full.append([])
        for t, tp in enumerate(g_pos):
            table = alg.comp_table(f_neg[s], g_neg[r], tp)
            for b in range(alg.hom_dim(g_neg[r], tp)):
                for out, coeff in table.get((c, b), ()):
                    full[-1].append((row0[(s, t)] + out, g_start[(t, r)] + b, coeff))
    for u, t, c in _hom_coordinates(alg, f_pos, g_pos):
        full.append([])
        for s, sn in enumerate(f_neg):
            table = alg.comp_table(sn, f_pos[u], g_pos[t])
            for a in range(alg.hom_dim(sn, f_pos[u])):
                for out, coeff in table.get((a, c), ()):
                    full[-1].append((row0[(s, t)] + out, f_start[(u, s)] + a, coeff))
    terms = tuple(tuple(column) for column in full if column)
    cols = len(terms)
    flat, slot, coeff, load = [], [], [], {}
    for j, column in enumerate(terms):
        for i, at, c in column:
            flat.append(i * cols + j)
            slot.append(at)
            coeff.append(c)
            load[flat[-1]] = load.get(flat[-1], 0) + abs(c)
    arrays = [np.array(a, dtype=np.int64) for a in (flat, slot, coeff)]
    for arr in arrays:
        arr.flags.writeable = False  # every caller of the cache shares them
    # At least 1, so that the int64 guard of `e_pair` also bounds every |x|.
    return _Operator(rows, cols, *arrays, max([1, *load.values()]), terms)


def _matching_size(rows: int, adjacency) -> int:
    """Size of a maximum matching between columns and rows, where column j
    may take the rows in adjacency[j].

    Each column in turn looks for an augmenting path, depth first, with an
    explicit stack rather than recursion, so no operator size reaches the
    recursion limit.  A row seen in one column's search is not entered again
    in it.
    """
    owner = [-1] * rows  # the column matched to each row
    seen = [-1] * rows  # the last column whose search entered each row
    size = 0
    for root, first in enumerate(adjacency):
        columns, taken, stack = [root], [], [iter(first)]
        while stack:
            for i in stack[-1]:
                if seen[i] != root:
                    seen[i] = root
                    break
            else:  # no unseen row left from this column: step back
                stack.pop()
                columns.pop()
                if taken:
                    taken.pop()
                continue
            if owner[i] < 0:  # a free row: flip the path
                for j, r in zip(columns, taken + [i]):
                    owner[r] = j
                size += 1
                break
            taken.append(i)
            columns.append(owner[i])
            stack.append(iter(adjacency[owner[i]]))
    return size


def e_pair(f: TwoTermComplex, g: TwoTermComplex, field: str = RATIONAL) -> int:
    """dim Hom(F_-1, G_0) minus the rank of (u, v) -> g∘u + v∘f.

    The map comes from `_operator`, an lru_cache keyed on the Algebra object
    (by identity, so two algebras never share an operator) and the four
    summand tuples.  Its slot vector x is g's `_slot_vector` followed by
    f's, each made once per complex and field (over F_p, reduced into
    [0, p)).

    The matrix is built in one of two ways.  An operator with at most
    `_SMALL_MAX` rows or columns, where numpy's per-call overhead costs
    more than the arithmetic, and any operator whose entries could reach
    2^63 (max|x| times its bound, read only for an operator that is not
    small), build the transposed matrix from `terms`, one list of Python
    ints per column of the map.  It goes over
    Q to `rank_int` and over F_p to `modp.rank_rows_mod_p`, which reads it
    mod p, both exact at any size.  Every other operator is scattered by
    one np.add.at of coeff * x[slot] into a zeroed int64 rows × cols
    array, which cannot overflow.  Over F_p the array goes to
    `modp.rank_mod_p`, which reduces it mod p on entry; over Q its
    transpose goes to `rank_int`.
    """
    _check_field(field)
    if f.algebra is not g.algebra:
        raise AlgebraMismatch("complexes live over different algebras")
    op = _operator(f.algebra, f.neg, f.pos, g.neg, g.pos)
    x = _slot_vector(g, field) + _slot_vector(f, field)
    if op.rows == 0 or op.cols == 0:
        return op.rows
    if min(op.rows, op.cols) <= _SMALL_MAX or max(map(abs, x)) * op.bound >= 2**63:
        m = []
        for column in op.terms:
            row = [0] * op.rows
            for i, s, c in column:
                row[i] += c * x[s]
            m.append(row)
        if field == RATIONAL:
            return op.rows - rank_int(m)
        return op.rows - modp.rank_rows_mod_p(m)
    m = np.zeros(op.rows * op.cols, dtype=np.int64)
    np.add.at(m, op.flat, op.coeff * np.array(x, dtype=np.int64)[op.slot])
    m = m.reshape(op.rows, op.cols)
    if field == RATIONAL:
        return op.rows - rank_int(m.T)
    return op.rows - modp.rank_mod_p(m)


def ee_symmetrized(f: TwoTermComplex, g: TwoTermComplex, field: str = RATIONAL) -> int:
    """E(f,g) + E(g,f); equals dim Ext^1 between the mapping cones generically."""
    return e_pair(f, g, field) + e_pair(g, f, field)


@dataclass(frozen=True)
class EValueReport:
    """Outcome of a sampled generic-value computation.

    value 0 is certified exact (the generic value is a minimum, so one
    witness suffices).  `lower_bound` is the term-rank floor of the shapes
    (0 for a value of 0, with no matching run); the generic value lies in
    [lower_bound, value], so a value that meets it is exact too (`describe`
    says so), and any other positive value is an estimate.  `samples` counts
    the samples drawn: up to the first that made the value exact, else all
    of them.
    """

    value: int
    samples: int
    field: str
    witness: TwoTermComplex | None = None
    lower_bound: int = 0

    @property
    def certified(self) -> bool:
        return self.value == 0

    @property
    def exact(self) -> bool:
        return self.value == self.lower_bound

    def describe(self) -> str:
        kind = ("certified" if self.certified else "exact" if self.exact
                else "high-confidence estimate")
        return f"{self.value} ({kind}; {self.samples} sample(s) over {self.field})"


def complex_from_gvector(g: GVector, algebra: Algebra) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(neg, pos) projective summand lists for the mutable part of g.

    Frozen coordinates are dropped: projectives vanish in the stable
    category, matching the truncated vectors used in the worked examples.
    """
    try:
        names = g.seed.vertex_names
    except DimensionMismatch:  # a label of two or more columns names no vertex
        raise AlgebraMismatch("the seed's mutable labels must be exactly the algebra's "
                              "vertices, but one has more than one column") from None
    if set(names) != set(algebra.vertices):
        raise AlgebraMismatch("the seed's mutable labels must be exactly the algebra's vertices")
    neg: list[str] = []
    pos: list[str] = []
    for name, coord in zip(names, g.mutable):
        if coord < 0:
            neg.extend([name] * (-coord))
        elif coord > 0:
            pos.extend([name] * coord)
    return tuple(neg), tuple(pos)


def random_complex(
    algebra: Algebra,
    neg: tuple[str, ...],
    pos: tuple[str, ...],
    stream: tuple[int, int, int],
    field: str = RATIONAL,
) -> TwoTermComplex:
    """Random map with uniform coefficients ([-10, 10] or F_p).

    neg and pos may be any sequences of vertex names.  `stream` is the key
    (master seed, sample index, stream id), three integers >= 0, else
    BadParameters.  The coefficients are the stream's one draw (`_draw`),
    which covers every nonzero block, split in block order (t outer, s
    inner).  Each of these bounded draws takes its own 32-bit outputs of
    the generator in turn, so the blocks are those of one draw per block.
    The draw, a tuple of Python ints in slot order and already in range, is
    kept as the complex's `_slot_vector` over `field`.  A summand that is
    not a vertex of the algebra raises AlgebraMismatch.
    """
    _check_field(field)
    neg, pos = tuple(neg), tuple(pos)
    spans, total = _block_layout(algebra, neg, pos)
    low, high = (-10, 11) if field == RATIONAL else (0, modp.PRIME)
    try:
        coeffs = _draw(*stream, low, high, total)
    except (TypeError, ValueError):
        raise BadParameters("stream must be (master seed, sample index, stream id), "
                            f"three integers >= 0, got {stream!r}") from None
    blocks = {key: coeffs[start:end] for key, start, end in spans}
    # Each block has hom_dim ints, so the constructor's checks would pass.
    return TwoTermComplex._unchecked(algebra, neg, pos, blocks, field, coeffs)


def resolve_master_seed(master_seed: int | None = None) -> int:
    """The master seed: `master_seed` if given, else GRASCAT_SEED, else 0.

    Raises BadParameters, naming where the seed came from, unless it is an
    integer >= 0 (numpy's streams take no other).
    """
    source, value = "master_seed (--master-seed)", master_seed
    if master_seed is None:
        source, value = "GRASCAT_SEED", os.environ.get("GRASCAT_SEED", "0")
    try:
        seed = int(value) if master_seed is None else index(value)
    except (TypeError, ValueError):
        seed = -1
    if seed < 0:
        raise BadParameters(f"{source} must be an integer >= 0, got {value!r}")
    return seed


@lru_cache(maxsize=1024, typed=True)
def _draw(master_seed: int, idx: int, sid: int, low: int, high: int, width: int) -> tuple[int, ...]:
    """The one draw of the stream (master seed, idx, sid), as Python ints:
    ``np.random.default_rng([master_seed, idx, sid]).integers(low, high,
    size=width)``.  The key is checked on a miss only: TypeError unless it
    is three integers, ValueError if one is negative.  The cache is typed,
    so a float equal to an int of a cached key is a miss, and fails."""
    if min(map(index, (master_seed, idx, sid))) < 0:
        raise ValueError(f"negative stream key {(master_seed, idx, sid)!r}")
    rng = np.random.default_rng([master_seed, idx, sid])
    return tuple(rng.integers(low, high, size=width).tolist())


def _sampled_minimum(
    algebra: Algebra,
    shapes: list[tuple[tuple[str, ...], tuple[str, ...]]],
    samples: int,
    field: str,
    master_seed: int | None,
) -> EValueReport:
    """Generic value of one shape's self-E, or of two shapes' `ee_symmetrized`,
    as the minimum over samples, stopping at the first sample that meets the
    floor.

    Sample idx draws a complex on each (neg, pos) in `shapes` from the
    stream (master seed, idx, stream id), stream id 0 for one shape and 1
    and 2 for two; its value is e_pair(f, f), or ee_symmetrized(f1, f2).
    The witness is the first complex of the first sample that reaches the
    minimum.  The floor, the sum of `_Operator.floor` over the directions
    (f, f), or (f1, f2) and (f2, f1), bounds every value below; it is read
    only when the first sample is positive.  The run ends at the first
    sample whose minimum is exact: a zero, or a value on the floor.
    Raises BadParameters unless `samples` is an integer >= 1.
    """
    count = integer("sample count", samples)
    if count <= 0:
        raise BadParameters(f"sample count must be an integer >= 1, got {samples!r}")
    _check_field(field)
    master_seed = resolve_master_seed(master_seed)
    sids = (0,) if len(shapes) == 1 else (1, 2)
    report = None
    for idx in range(count):
        drawn = [random_complex(algebra, neg, pos, (master_seed, idx, sid), field)
                 for sid, (neg, pos) in zip(sids, shapes)]
        value = (e_pair(drawn[0], drawn[0], field) if len(drawn) == 1
                 else ee_symmetrized(*drawn, field))
        if report is None:
            floor = sum(_operator(algebra, *f, *g).floor
                        for f, g in zip(shapes, shapes[::-1])) if value else 0
            report = EValueReport(value, 1, field, drawn[0], floor)
        elif value < report.value:
            report = EValueReport(value, idx + 1, field, drawn[0], report.lower_bound)
        if report.exact:
            return report
    return replace(report, samples=count)


def generic_e_parts(
    algebra: Algebra,
    neg: tuple[str, ...],
    pos: tuple[str, ...],
    samples: int = 20,
    field: str = RATIONAL,
    master_seed: int | None = None,
) -> EValueReport:
    """Sampled generic self-E-invariant for explicit summand lists."""
    return _sampled_minimum(algebra, [(tuple(neg), tuple(pos))], samples, field, master_seed)


def generic_e(
    g: GVector,
    algebra: Algebra,
    samples: int = 20,
    field: str = RATIONAL,
    master_seed: int | None = None,
) -> EValueReport:
    """Sampled generic self-E-invariant of the g-vector stratum."""
    neg, pos = complex_from_gvector(g, algebra)
    return generic_e_parts(algebra, neg, pos, samples, field, master_seed)


def generic_e_pair_parts(
    algebra: Algebra,
    parts1: tuple[tuple[str, ...], tuple[str, ...]],
    parts2: tuple[tuple[str, ...], tuple[str, ...]],
    samples: int = 20,
    field: str = RATIONAL,
    master_seed: int | None = None,
) -> EValueReport:
    """Sampled generic symmetrized E-invariant for explicit summand lists."""
    # Canonical argument order keeps the sampled streams symmetric.
    shapes = sorted((tuple(neg), tuple(pos)) for neg, pos in (parts1, parts2))
    return _sampled_minimum(algebra, shapes, samples, field, master_seed)


def generic_e_pair(
    g: GVector,
    h: GVector,
    algebra: Algebra,
    samples: int = 20,
    field: str = RATIONAL,
    master_seed: int | None = None,
) -> EValueReport:
    """Sampled generic symmetrized E-invariant between two strata."""
    return generic_e_pair_parts(
        algebra,
        complex_from_gvector(g, algebra),
        complex_from_gvector(h, algebra),
        samples,
        field,
        master_seed,
    )


@dataclass(frozen=True)
class ConjecturalBool:
    """A predicate backed by a sampled E-value; truthiness is the verdict.

    These predicates implement conjectural characterisations (reality,
    compatibility, exchange pairs); `certified` only says the underlying
    numeric value is exact, not that the conjecture is a theorem.
    """

    conjectural: ClassVar[bool] = True
    verdict: bool
    report: EValueReport

    def __bool__(self) -> bool:
        return self.verdict


def is_real_g(g: GVector, algebra: Algebra, samples: int = 20, field: str = FP,
              master_seed: int | None = None) -> ConjecturalBool:
    """Reality test: the g-vector is (conjecturally) real iff generic e = 0."""
    report = generic_e(g, algebra, samples, field, master_seed)
    return ConjecturalBool(report.value == 0, report)


def are_compatible(g: GVector, h: GVector, algebra: Algebra, samples: int = 20,
                   field: str = FP, master_seed: int | None = None) -> ConjecturalBool:
    """Compatibility test: generic paired e-value 0."""
    report = generic_e_pair(g, h, algebra, samples, field, master_seed)
    return ConjecturalBool(report.value == 0, report)


def is_exchange_pair(g: GVector, h: GVector, algebra: Algebra, samples: int = 20,
                     field: str = FP, master_seed: int | None = None) -> ConjecturalBool:
    """Exchange-pair test: generic paired e-value exactly 1."""
    report = generic_e_pair(g, h, algebra, samples, field, master_seed)
    return ConjecturalBool(report.value == 1, report)
