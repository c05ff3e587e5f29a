"""Finite-dimensional Jacobian algebras of quivers with potential.

Paths compose left to right: the word ``a b`` means "arrow a, then arrow b".
Projectives are right modules P(v) = e_v A, so Hom(P(i), P(j)) is spanned by
path classes from j to i.  The quotient by the cyclic-derivative ideal is
computed degree by degree on normal words: each basis path of degree d + 1
is a basis path of degree d followed by one arrow, and no other path is
built.  The derivative by an arrow a is a combination of paths from t(a) to
s(a), all of one degree when the potential is homogeneous (all cycles the
same length, at least 2); the quotient then ends as soon as one degree dies,
or is declared infinite-dimensional at degree 32.

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
from math import lcm
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
        vs = set(self.vertices)
        for arrow in self.arrows:
            if not (isinstance(arrow, tuple) and len(arrow) == 3 and {arrow[1], arrow[2]} <= vs):
                raise BadParameters(f"arrow {arrow!r} is not (id, source, target) on known vertices")
        ends = self.arrow_ends()
        if len(ends) != len(self.arrows):
            raise BadParameters("duplicate arrow ids")
        for term in self.potential:
            if not (isinstance(term, tuple) and len(term) == 2 and term[0] in (1, -1)
                    and isinstance(term[1], tuple) and term[1]):
                raise BadParameters(f"potential term {term!r} is not (sign +-1, nonempty cycle)")
            if not set(cycle := term[1]) <= ends.keys():
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
            rels[a].append((sign, cycle[idx + 1 :] + cycle[:idx]))
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


def _integral(key: tuple[str, str, str], terms) -> list[tuple[int, int]]:
    """Composition terms (c, coeff) of the triple `key`, with int coefficients."""
    for _, x in terms:
        if not isinstance(x, Rational) or x.denominator != 1:
            raise BadParameters(f"composition {key} has a non-integral structure constant {x}")
    return [(int(c), int(x)) for c, x in terms]


def build_algebra(qp: QuiverWithPotential) -> Algebra:
    """Graded quotient of the path space by the cyclic-derivative ideal, on normal words.

    The candidates of a pair (u, w) at degree d + 1, each a basis path of
    degree d followed by one arrow, are ordered as an enumeration of every
    path meets them: by source pair in walk order, then basis path, then
    arrow.  The walk order of degree d + 1 meets (u, t(a)) for each pair
    (u, v) of degree d in walk order, with or without basis paths, and each
    a in ``out_arrows[v]`` in order.  Pairs add their basis paths in sorted order.
    """
    lengths = {len(c) for _, c in qp.potential}
    if len(lengths) > 1 or 1 in lengths:
        raise BadParameters(
            "potential must be homogeneous (one cycle length, at least 2); "
            "the graded degree-by-degree quotient is only valid then"
        )

    ends = qp.arrow_ends()
    out_arrows = {v: [a for a, s, _ in qp.arrows if s == v] for v in qp.vertices}
    # (src, dst, degree, terms): the derivative by a runs from t(a) to s(a)
    relations = [(ends[a][1], ends[a][0], len(terms[0][1]), terms)
                 for a, terms in potential_relations(qp).items() if terms]

    # basis[(u, v)]: the basis paths u -> v as (degree, path), in one list for every degree
    basis: dict[tuple[str, str], list[tuple[int, Path]]] = {(v, v): [(0, ())] for v in qp.vertices}
    # levels[d][(u, v)]: the indices into basis[(u, v)] of degree d, the pairs in walk order
    levels = [{(v, v): [0] for v in qp.vertices}]
    # expand[path]: a basis path followed by one arrow, over the basis of its pair
    expand: dict[Path, dict[int, Rational]] = {}

    def times(u: str, v: str, vec: dict[int, Rational], word: Path) -> dict[int, Rational]:
        """vec, a combination of basis[(u, v)], followed by the arrows of `word`."""
        for a in word:
            out: dict[int, Rational] = {}
            for idx, x in vec.items():
                for c, y in expand.get(basis[(u, v)][idx][1] + (a,), {}).items():
                    out[c] = out.get(c, 0) + x * y
            v, vec = ends[a][1], {c: x for c, x in out.items() if x}
        return vec

    while any(levels[-1].values()):
        degree = len(levels)
        if degree > _DEGREE_CAP:
            raise NotFiniteDimensional(f"degree cap {_DEGREE_CAP} reached with nonzero dimensions")
        candidates: dict[tuple[str, str], list[Path]] = {}
        for (u, v), idxs in levels[-1].items():
            for a in out_arrows[v]:
                candidates.setdefault((u, ends[a][1]), [])
            for idx, a in product(idxs, out_arrows[v]):
                candidates[(u, ends[a][1])].append(basis[(u, v)][idx][1] + (a,))
        levels.append(dict.fromkeys(candidates))
        for (u, w), cands in sorted(candidates.items()):
            # rows b ∂_a W, b a basis path of degree `degree` - deg ∂_a W, over the candidates
            expand.update({p: {col: 1} for col, p in enumerate(cands)})
            rows = []
            for src, dst, rdeg, terms in relations:
                if dst != w or rdeg > degree:
                    continue
                for idx in levels[degree - rdeg].get((u, src), ()):
                    row = [0] * len(cands)
                    for sign, mid in terms:
                        for col, x in times(u, src, {idx: sign}, mid).items():
                            row[col] += x
                    lcd = lcm(*(x.denominator for x in row))
                    rows.append([int(x * lcd) for x in row])
            red, pivots, scale = rref(rows)
            pair_basis = basis.setdefault((u, w), [])
            free = sorted(set(range(len(cands))) - set(pivots))
            at = {col: len(pair_basis) + t for t, col in enumerate(free)}
            levels[degree][(u, w)] = list(at.values())
            pair_basis += [(degree, cands[col]) for col in free]
            expand.update({cands[col]: {idx: 1} for col, idx in at.items()})
            for row, piv in zip(red, pivots):
                expand[cands[piv]] = {at[c]: Fraction(-row[c], scale) for c in free if row[c]}

    # Hom(P(i), P(j)) = path classes j -> i.
    hom_basis = {(v, u): blist for (u, v), blist in basis.items() if blist}
    dims = {pair: len(blist) for pair, blist in hom_basis.items()}

    comp: dict[tuple[str, str, str], dict] = {}
    for (i, j), (j2, l) in product(hom_basis, hom_basis):
        if j2 != j:
            continue
        table = {}
        for (a, (_, pa)), b in product(enumerate(hom_basis[(i, j)]), range(dims[(j, l)])):
            # b after a: path (l -> j) followed by (j -> i)
            if terms := times(l, j, {b: 1}, pa):
                table[(a, b)] = _integral((i, j, l), sorted(terms.items()))
        if table:
            comp[(i, j, l)] = table

    return Algebra(qp.vertices, dims, comp, hom_basis)
