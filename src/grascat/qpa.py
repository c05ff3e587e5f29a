"""Finite-dimensional Jacobian algebras of quivers with potential.

Paths compose left to right: the word ``a b`` means "arrow a, then arrow b".
Projectives are right modules P(v) = e_v A, so Hom(P(i), P(j)) is spanned by
path classes from j to i.  The quotient by the cyclic-derivative ideal is
computed degree by degree with exact fraction-free row reduction of the
integer relation rows.  The derivative by an arrow a is a combination of
paths from t(a) to s(a), all of one degree when the potential is
homogeneous (all cycles the same length, at least 2); the quotient then
ends as soon as one degree dies, or is declared infinite-dimensional at
degree 32.

Every quiver with potential the library uses is generated: `triangle_qp`
signs each oriented triangle of a quiver, `initial_qp` applies it to the
Gr(k, n) initial seed and `hl.gamma_qp` to the truncated quiver Gamma(k, s).
The library reads and writes no quiver-with-potential JSON; the
hand-written ones kept as test oracles are read by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from numbers import Rational

from .cluster import grassmannian_initial_seed
from .errors import BadParameters, NotFiniteDimensional
from .linalg import rref

__all__ = [
    "QuiverWithPotential",
    "Algebra",
    "triangle_qp",
    "initial_qp",
    "potential_relations",
    "build_algebra",
]

Path = tuple[str, ...]

# Highest path degree the quotient is computed to before it is declared
# infinite-dimensional.
_DEGREE_CAP = 32


@dataclass(frozen=True)
class QuiverWithPotential:
    """Named quiver plus a signed formal sum of oriented cycles."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (arrow id, source, target)
    potential: tuple[tuple[int, tuple[str, ...]], ...]  # (sign, cycle of arrow ids)

    def __post_init__(self):
        names = [a for a, _, _ in self.arrows]
        if len(set(names)) != len(names):
            raise BadParameters("duplicate arrow ids")
        vs = set(self.vertices)
        for a, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise BadParameters(f"arrow {a} uses unknown vertex")
        ends = {a: (s, t) for a, s, t in self.arrows}
        for sign, cycle in self.potential:
            if sign not in (1, -1) or not cycle:
                raise BadParameters("potential terms need sign +-1 and a nonempty cycle")
            if not set(cycle) <= ends.keys():
                raise BadParameters(f"potential term {cycle} uses an unknown arrow")
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                if ends[x][1] != ends[y][0]:
                    raise BadParameters(f"potential term {cycle} is not a cycle")

    def arrow_ends(self) -> dict[str, tuple[str, str]]:
        return {a: (s, t) for a, s, t in self.arrows}


def triangle_qp(names, arrows, sign) -> QuiverWithPotential:
    """Quiver on `names` with the signed sum of its oriented triangles as potential.

    Arrow idx, the vertex-index pair arrows[idx], is named e{idx}.  Each
    3-cycle a -> b -> c -> a gives one term per choice of parallel arrows,
    read from its least name, with sign ``sign(a, b, c)`` of its vertex
    indices in cycle order.
    """
    names = tuple(names)
    by_pair: dict[tuple[int, int], list[str]] = {}
    for idx, (s, t) in enumerate(arrows):
        by_pair.setdefault((s, t), []).append(f"e{idx}")
    potential = []
    for a, b in sorted(by_pair):
        for c in range(len(names)):
            if (b, c) not in by_pair or (c, a) not in by_pair:
                continue
            if names[a] != min(names[a], names[b], names[c]):
                continue  # one representative per cyclic rotation class
            term_sign = sign(a, b, c)
            cycles = product(by_pair[(a, b)], by_pair[(b, c)], by_pair[(c, a)])
            potential += [(term_sign, cycle) for cycle in cycles]
    return QuiverWithPotential(
        names,
        tuple((f"e{idx}", names[s], names[t]) for idx, (s, t) in enumerate(arrows)),
        tuple(potential),
    )


def initial_qp(k: int, n: int) -> QuiverWithPotential:
    """Quiver with potential of the mutable part of the Gr(k, n) initial seed.

    The seed quiver's arrows are reversed, in its sorted order, and its
    vertices named by their Plücker labels.  Each triangle is signed by its
    orientation in the grid coordinates of the seed.
    """
    seed = grassmannian_initial_seed(k, n)
    q = seed.quiver.mutable_part()

    def orientation(a: int, b: int, c: int) -> int:
        (x1, y1), (x2, y2), (x3, y3) = q.coords[a], q.coords[b], q.coords[c]
        area = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        return (area > 0) - (area < 0)

    return triangle_qp(seed.vertex_names, [(t, s) for s, t in q.arrows], orientation)


def potential_relations(qp: QuiverWithPotential) -> dict[str, list[tuple[int, Path]]]:
    """Cyclic derivatives: one signed path combination per arrow.

    For each occurrence of arrow a in a cycle, rotate the cycle to start at a
    and drop a; the relation for a is the signed sum of those completions.
    """
    rels: dict[str, list[tuple[int, Path]]] = {a: [] for a, _, _ in qp.arrows}
    for sign, cycle in qp.potential:
        for idx, a in enumerate(cycle):
            completion = cycle[idx + 1 :] + cycle[:idx]
            rels[a].append((sign, completion))
    return rels


class Algebra:
    """Basis-level description of a finite-dimensional algebra.

    hom_basis[(i, j)] indexes Hom(P(i), P(j)); composition is exposed as a
    sparse tensor over those bases.  Built only by `build_algebra`, and
    immutable after that.
    """

    def __init__(self, vertices, dims, comp, basis_paths):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self._dims: dict[tuple[str, str], int] = dict(dims)
        # comp[(i,j,l)][(a, b)] = sparse list of (c, coeff) with int coeff:
        # composing the a-th basis map P(i)->P(j) with the b-th map P(j)->P(l).
        self._comp: dict[tuple[str, str, str], dict] = dict(comp)
        self.basis_paths = basis_paths

    def hom_dim(self, i: str, j: str) -> int:
        return self._dims.get((i, j), 0)

    def hom_table(self, names) -> list[list[int]]:
        """dim Hom(P(r), P(c)) for every r (row) and c (column) in `names`."""
        return [[self.hom_dim(r, c) for c in names] for r in names]

    def comp_table(self, i: str, j: str, l: str) -> dict:
        """Composition of basis maps P(i)->P(j)->P(l): (a, b) -> [(c, int coeff)]."""
        return self._comp.get((i, j, l), {})


def _integral(key: tuple[str, str, str], terms, scale: int = 1) -> list[tuple[int, int]]:
    """Composition terms (c, coeff / scale) of the triple `key`, with int coefficients."""
    out = []
    for c, x in terms:
        if not isinstance(x, Rational) or x % scale:
            value = Fraction(x, scale) if isinstance(x, Rational) else x
            raise BadParameters(f"composition {key} has a non-integral structure constant {value}")
        out.append((int(c), int(x) // scale))
    return out


def build_algebra(qp: QuiverWithPotential) -> Algebra:
    """Graded quotient of the path space by the cyclic-derivative ideal."""
    lengths = {len(c) for _, c in qp.potential}
    if len(lengths) > 1 or 1 in lengths:
        raise BadParameters(
            "potential must be homogeneous (one cycle length, at least 2); "
            "the graded degree-by-degree quotient is only valid then"
        )

    ends = qp.arrow_ends()
    out_arrows: dict[str, list[str]] = {v: [] for v in qp.vertices}
    for a, s, _ in qp.arrows:
        out_arrows[s].append(a)
    # (src, dst, degree, terms): the derivative by a runs from t(a) to s(a)
    relations = [
        (ends[a][1], ends[a][0], len(terms[0][1]), terms)
        for a, terms in potential_relations(qp).items()
        if terms
    ]

    # paths[d][(u, v)] -> list of paths of degree d from u to v
    paths: list[dict[tuple[str, str], list[Path]]] = [{(v, v): [()] for v in qp.vertices}]
    basis: dict[tuple[str, str], list[tuple[int, Path]]] = {(v, v): [(0, ())] for v in qp.vertices}
    # expansion of every enumerated path u -> v over the chosen basis of (u, v):
    # (scale, [(c, coeff)]) for the sum of coeff / scale times basis element c
    expand: dict[tuple[str, str, Path], tuple[int, list]] = {
        (v, v, ()): (1, [(0, 1)]) for v in qp.vertices
    }

    degree = 0
    while True:
        degree += 1
        if degree > _DEGREE_CAP:
            raise NotFiniteDimensional(f"degree cap {_DEGREE_CAP} reached with nonzero dimensions")
        new_paths: dict[tuple[str, str], list[Path]] = {}
        for (u, v), plist in paths[-1].items():
            for p in plist:
                for a in out_arrows[v]:
                    new_paths.setdefault((u, ends[a][1]), []).append(p + (a,))
        if not new_paths:
            break

        total_dim = 0
        for (u, v), plist in sorted(new_paths.items()):
            pos = {p: idx for idx, p in enumerate(plist)}
            rows = []
            for src, dst, rdeg, terms in relations:
                for la in range(degree - rdeg + 1):
                    for lp in paths[la].get((u, src), []):
                        for rp in paths[degree - rdeg - la].get((dst, v), []):
                            row = [0] * len(plist)
                            for sign, mid in terms:
                                row[pos[lp + mid + rp]] += sign
                            if any(row):
                                rows.append(row)
            red, pivots, scale = rref(rows)
            pivset = set(pivots)
            free = [idx for idx in range(len(plist)) if idx not in pivset]
            pair_basis = basis.setdefault((u, v), [])
            free_pos = {idx: len(pair_basis) + t for t, idx in enumerate(free)}
            pair_basis += [(degree, plist[idx]) for idx in free]
            for idx in free:
                expand[(u, v, plist[idx])] = (1, [(free_pos[idx], 1)])
            for row, piv in zip(red, pivots):
                expand[(u, v, plist[piv])] = (scale, [(free_pos[c], -row[c]) for c in free if row[c]])
            total_dim += len(free)

        paths.append(new_paths)
        if total_dim == 0:
            break

    # Hom(P(i), P(j)) = path classes j -> i.
    hom_basis = {(v, u): blist for (u, v), blist in basis.items() if blist}
    dims = {pair: len(blist) for pair, blist in hom_basis.items()}

    comp: dict[tuple[str, str, str], dict] = {}
    for i, j in hom_basis:
        for j2, l in hom_basis:
            if j2 != j:
                continue
            table = {}
            for a, (_, pa) in enumerate(hom_basis[(i, j)]):
                for b, (_, pb) in enumerate(hom_basis[(j, l)]):
                    # b after a: path (l -> j) followed by (j -> i)
                    scale, terms = expand.get((l, i, pb + pa), (1, ()))
                    if terms:
                        table[(a, b)] = _integral((i, j, l), terms, scale)
            if table:
                comp[(i, j, l)] = table

    return Algebra(qp.vertices, dims, comp, hom_basis)
