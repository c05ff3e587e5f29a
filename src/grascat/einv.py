"""E-invariants of two-term projective complexes and their generic values.

E(f, g) counts homotopy classes of maps f -> shift(g): the dimension of
Hom(F_-1, G_0) minus the rank of (u, v) |-> g∘u + v∘f.  The generic value
over a g-vector stratum is the minimum over all maps, so a sampled zero is
an exact certificate while positive sampled minima are only high-confidence
estimates (the paper's positivity arguments are symbolic).  The homotopy
matrix is assembled in ints, from the algebra's int structure constants and
the complexes' coefficients cleared of denominators (over Q) or mod p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from numbers import Rational

import numpy as np

from . import modp
from .errors import AlgebraMismatch, BadParameters
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
    "master_seed_from_env",
]

RATIONAL = "rational"
FP = "fp"


@dataclass(frozen=True)
class TwoTermComplex:
    """A map between sums of projectives, P(neg_0)+... -> P(pos_0)+...

    blocks[(t, s)] holds the coefficients of the (s -> t) component over the
    hom basis of (neg[s], pos[t]); missing entries mean zero.  Coefficients
    are ints or Fractions; a float is rejected, so none reaches a certificate.
    """

    algebra: Algebra
    neg: tuple[str, ...]
    pos: tuple[str, ...]
    blocks: dict[tuple[int, int], tuple[Rational, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for (t, s), coeffs in self.blocks.items():
            want = self.algebra.hom_dim(self.neg[s], self.pos[t])
            if len(coeffs) != want:
                raise BadParameters(
                    f"block ({t},{s}) has {len(coeffs)} coefficients, expected {want}"
                )
            if not all(isinstance(x, Rational) for x in coeffs):
                raise BadParameters(f"block ({t},{s}) has a non-rational coefficient: {coeffs}")


def _hom_coordinates(alg: Algebra, sources, targets) -> list[tuple[int, int, int]]:
    return [
        (s, t, c)
        for s in range(len(sources))
        for t in range(len(targets))
        for c in range(alg.hom_dim(sources[s], targets[t]))
    ]


def _int_blocks(h: TwoTermComplex, field: str) -> dict[tuple[int, int], dict[int, int]]:
    """h's nonzero block coefficients as ints, keyed like h.blocks.

    Over Q they are multiplied by h's one common denominator, which scales
    whole columns of the homotopy matrix and so keeps its rank.  Over F_p
    each is its numerator times its inverse denominator, for the caller to
    reduce in Python ints; a denominator divisible by p raises ValueError.
    """
    dens = {int(x.denominator) for coeffs in h.blocks.values() for x in coeffs}
    scale = lcm(*dens)
    factor = {d: scale // d if field == RATIONAL else pow(d, -1, modp.PRIME) for d in dens}
    return {
        key: {b: int(x.numerator) * factor[x.denominator] for b, x in enumerate(coeffs) if x}
        for key, coeffs in h.blocks.items()
    }


def e_pair(f: TwoTermComplex, g: TwoTermComplex, field: str = RATIONAL) -> int:
    """dim Hom(F_-1, G_0) minus the rank of (u, v) -> g∘u + v∘f.

    The map is assembled as dense int columns, one per basis map u or v.
    Row (s, t, c) is the c-th basis map of Hom(F_-1[s], G_0[t]); `start`
    holds the first row of each (s, t) block.
    """
    if f.algebra is not g.algebra:
        raise AlgebraMismatch("complexes live over different algebras")
    alg = f.algebra
    start, rows = {}, 0
    for s, sn in enumerate(f.neg):
        for t, tp in enumerate(g.pos):
            start[(s, t)], rows = rows, rows + alg.hom_dim(sn, tp)
    f_blocks, g_blocks = _int_blocks(f, field), _int_blocks(g, field)
    p = None if field == RATIONAL else modp.PRIME
    cols = []

    def put(col: list[int], s: int, t: int, composed: dict[int, int]) -> None:
        for idx, x in composed.items():
            col[start[(s, t)] + idx] = x if p is None else x % p

    for s, r, c in _hom_coordinates(alg, f.neg, g.neg):
        col = [0] * rows
        for t, tp in enumerate(g.pos):
            block = g_blocks.get((t, r))
            if block:
                put(col, s, t, alg.compose_vectors(f.neg[s], g.neg[r], tp, {c: 1}, block))
        cols.append(col)

    for u, t, c in _hom_coordinates(alg, f.pos, g.pos):
        col = [0] * rows
        for s, sn in enumerate(f.neg):
            block = f_blocks.get((u, s))
            if block:
                put(col, s, t, alg.compose_vectors(sn, f.pos[u], g.pos[t], block, {c: 1}))
        cols.append(col)

    if rows == 0 or not cols:
        return rows
    if p is None:
        return rows - rank_int(cols)
    return rows - modp.rank_mod_p(np.array(cols, dtype=np.int64).T)


def ee_symmetrized(f: TwoTermComplex, g: TwoTermComplex, field: str = RATIONAL) -> int:
    """E(f,g) + E(g,f); equals dim Ext^1 between the mapping cones generically."""
    return e_pair(f, g, field) + e_pair(g, f, field)


@dataclass(frozen=True)
class EValueReport:
    """Outcome of a sampled generic-value computation.

    value 0 is certified exact (the generic value is a minimum, so one
    witness suffices); positive values are estimates bounded below by 0.
    """

    value: int
    certified: bool
    samples: int
    field: str
    witness: TwoTermComplex | None = None

    def describe(self) -> str:
        kind = "certified" if self.certified else "high-confidence estimate"
        return f"{self.value} ({kind}; {self.samples} sample(s) over {self.field})"


def complex_from_gvector(g: GVector, algebra: Algebra) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(neg, pos) projective summand lists for the mutable part of g.

    Frozen coordinates are dropped: projectives vanish in the stable
    category, matching the truncated vectors used in the worked examples.
    """
    labels = [str(t.to_subset()) for t in g.seed.labels[: g.seed.n_mut]]
    if set(labels) != set(algebra.vertices):
        raise AlgebraMismatch(
            "the seed's mutable labels must be exactly the algebra's vertices"
        )
    neg: list[str] = []
    pos: list[str] = []
    for name, coord in zip(labels, g.mutable):
        if coord < 0:
            neg.extend([name] * (-coord))
        elif coord > 0:
            pos.extend([name] * coord)
    return tuple(neg), tuple(pos)


def random_complex(
    algebra: Algebra,
    neg: tuple[str, ...],
    pos: tuple[str, ...],
    rng: np.random.Generator,
    field: str = RATIONAL,
) -> TwoTermComplex:
    """Random map with uniform coefficients ([-10, 10] or F_p)."""
    blocks = {}
    for t, pt in enumerate(pos):
        for s, sn in enumerate(neg):
            dim = algebra.hom_dim(sn, pt)
            if not dim:
                continue
            if field == RATIONAL:
                coeffs = rng.integers(-10, 11, size=dim)
            else:
                coeffs = rng.integers(0, modp.PRIME, size=dim)
            blocks[(t, s)] = tuple(coeffs.tolist())
    return TwoTermComplex(algebra, neg, pos, blocks)


def master_seed_from_env() -> int:
    import os

    return int(os.environ.get("GRASCAT_SEED", "0"))


def _stream(master_seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, *path])


def _sampled_minimum(
    algebra: Algebra,
    streams: dict[int, tuple[tuple[str, ...], tuple[str, ...]]],
    evaluate,
    samples: int,
    field: str,
    master_seed: int | None,
) -> EValueReport:
    """Minimum of `evaluate` over random complexes, stopping at the first zero.

    Sample idx draws one complex per (neg, pos) in `streams`, from the stream
    (master seed, idx, stream id); the first complex is the witness.
    """
    if samples <= 0:
        raise BadParameters("sample count must be positive")
    if master_seed is None:
        master_seed = master_seed_from_env()
    best: int | None = None
    witness = None
    used = 0
    for idx in range(samples):
        drawn = [
            random_complex(algebra, neg, pos, _stream(master_seed, idx, sid), field)
            for sid, (neg, pos) in streams.items()
        ]
        value = evaluate(*drawn)
        used += 1
        if best is None or value < best:
            best, witness = value, drawn[0]
        if best == 0:
            break
    return EValueReport(best, best == 0, used, field, witness)


def generic_e_parts(
    algebra: Algebra,
    neg: tuple[str, ...],
    pos: tuple[str, ...],
    samples: int = 20,
    field: str = RATIONAL,
    master_seed: int | None = None,
) -> EValueReport:
    """Sampled generic self-E-invariant for explicit summand lists."""
    return _sampled_minimum(
        algebra, {0: (neg, pos)}, lambda f: e_pair(f, f, field), samples, field, master_seed
    )


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
    first, second = sorted((parts1, parts2))
    return _sampled_minimum(
        algebra, {1: first, 2: second}, lambda f1, f2: ee_symmetrized(f1, f2, field),
        samples, field, master_seed,
    )


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

    verdict: bool
    report: EValueReport
    conjectural: bool = True

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
