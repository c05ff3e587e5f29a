"""Finite-dimensional Jacobian algebras of quivers with potential.

Paths compose left to right: the word ``a b`` means "arrow a, then arrow b".
Projectives are right modules P(v) = e_v A, so Hom(P(i), P(j)) is spanned by
path classes from j to i.  The quotient by the cyclic-derivative ideal is
computed degree by degree with exact rational row reduction; a homogeneous
potential (all cycles the same length) guarantees termination as soon as one
degree dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, NotFiniteDimensional
from .linalg import rref

__all__ = ["QuiverWithPotential", "Algebra", "potential_relations", "build_algebra"]

Path = tuple[str, ...]


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
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                if ends[x][1] != ends[y][0]:
                    raise BadParameters(f"potential term {cycle} is not a cycle")

    def arrow_ends(self) -> dict[str, tuple[str, str]]:
        return {a: (s, t) for a, s, t in self.arrows}

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a, "from": s, "to": t} for a, s, t in self.arrows],
            "potential": [{"sign": sign, "cycle": list(c)} for sign, c in self.potential],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuiverWithPotential":
        return cls(
            tuple(data["vertices"]),
            tuple((a["id"], a["from"], a["to"]) for a in data["arrows"]),
            tuple((int(t["sign"]), tuple(t["cycle"])) for t in data["potential"]),
        )


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
    sparse tensor over those bases.  Instances are immutable after build.
    """

    def __init__(self, vertices, dims, comp, basis_paths=None, name=""):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self._dims: dict[tuple[str, str], int] = dict(dims)
        # comp[(i,j,l)][a][b] = sparse list of (c, coeff) with coeff rational:
        # composing the a-th basis map P(i)->P(j) with the b-th map P(j)->P(l).
        self._comp: dict[tuple[str, str, str], dict] = dict(comp)
        self.basis_paths = basis_paths or {}
        self.name = name

    def hom_dim(self, i: str, j: str) -> int:
        return self._dims.get((i, j), 0)

    def compose(self, i: str, j: str, l: str, a: int, b: int) -> list[tuple[int, Fraction]]:
        table = self._comp.get((i, j, l))
        if not table:
            return []
        return table.get((a, b), [])

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def hom_table(self, rows, cols=None) -> list[list[int]]:
        cols = cols if cols is not None else rows
        return [[self.hom_dim(r, c) for c in cols] for r in rows]

    def projective_support(self, v: str) -> dict[str, int]:
        """Dimension of P(v) at each vertex (its representation grid)."""
        return {w: self.hom_dim(w, v) for w in self.vertices if self.hom_dim(w, v)}

    @classmethod
    def from_table(cls, vertices, dims, comp_entries, name="table"):
        """Hand-entered construction bypassing the path engine.

        `comp_entries` maps (i, j, l, a, b) to a list of (c, coeff) pairs.
        Used to cross-validate the path engine against printed Hom tables.
        """
        comp: dict[tuple[str, str, str], dict] = {}
        for (i, j, l, a, b), terms in comp_entries.items():
            comp.setdefault((i, j, l), {})[(a, b)] = [
                (int(c), Fraction(x)) for c, x in terms
            ]
        return cls(tuple(vertices), dict(dims), comp, name=name)

    def compose_vectors(self, i: str, j: str, l: str, x: dict, y: dict) -> dict[int, Fraction]:
        """x in Hom(P(i), P(j)) followed by y in Hom(P(j), P(l)), as a sparse vector.

        x, y and the result map basis indices to coefficients; zero
        coefficients are dropped from the result.
        """
        table = self._comp.get((i, j, l))
        if not table:
            return {}
        out: dict[int, Fraction] = {}
        for a, xa in x.items():
            for b, yb in y.items():
                for c, coeff in table.get((a, b), ()):
                    out[c] = out.get(c, 0) + xa * yb * coeff
        return {c: v for c, v in out.items() if v}

    def check_associative(self) -> bool:
        """Composition associativity on every basis triple (exact)."""
        vs = self.vertices
        for i in vs:
            for j in vs:
                for l in vs:
                    for m in vs:
                        for a in range(self.hom_dim(i, j)):
                            for b in range(self.hom_dim(j, l)):
                                ab = self.compose_vectors(i, j, l, {a: 1}, {b: 1})
                                for c in range(self.hom_dim(l, m)):
                                    bc = self.compose_vectors(j, l, m, {b: 1}, {c: 1})
                                    left = self.compose_vectors(i, l, m, ab, {c: 1})
                                    right = self.compose_vectors(i, j, m, {a: 1}, bc)
                                    if left != right:
                                        return False
        return True


def build_algebra(qp: QuiverWithPotential, cap: int = 32) -> Algebra:
    """Graded quotient of the path space by the cyclic-derivative ideal."""
    cycle_lengths = {len(c) for _, c in qp.potential}
    if len(cycle_lengths) > 1:
        raise BadParameters(
            "potential must be homogeneous (uniform cycle length); "
            "the graded degree-by-degree quotient is only valid then"
        )

    ends = qp.arrow_ends()
    out_arrows: dict[str, list[str]] = {v: [] for v in qp.vertices}
    for a, s, _ in qp.arrows:
        out_arrows[s].append(a)

    relations = []  # (src, dst, degree, [(sign, path), ...])
    for a, terms in potential_relations(qp).items():
        if not terms:
            continue
        src = ends[terms[0][1][0]][0] if terms[0][1] else None
        dst = ends[terms[0][1][-1]][1] if terms[0][1] else None
        degree = len(terms[0][1])
        relations.append((src, dst, degree, terms))

    # paths[d][(u, v)] -> list of paths of degree d from u to v
    paths: list[dict[tuple[str, str], list[Path]]] = [
        {(v, v): [()] for v in qp.vertices}
    ]
    basis: dict[tuple[str, str], list[tuple[int, Path]]] = {}
    # expansion of every enumerated path over the chosen basis of its pair;
    # degree-0 keys carry the pair because the empty word is shared
    expand_by_pair: dict[tuple[tuple[str, str], int, Path], list[tuple[int, Fraction]]] = {}
    for v in qp.vertices:
        basis[(v, v)] = [(0, ())]
        expand_by_pair[((v, v), 0, ())] = [(0, Fraction(1))]

    degree = 0
    while True:
        degree += 1
        if degree > cap:
            raise NotFiniteDimensional(f"degree cap {cap} reached with nonzero dimensions")
        new_paths: dict[tuple[str, str], list[Path]] = {}
        for (u, v), plist in paths[degree - 1].items():
            for p in plist:
                for a in out_arrows[v]:
                    new_paths.setdefault((u, ends[a][1]), []).append(p + (a,))
        if not new_paths:
            break

        total_dim = 0
        for (u, v), plist in sorted(new_paths.items()):
            pos = {p: idx for idx, p in enumerate(plist)}
            rows = []
            for rsrc, rdst, rdeg, terms in relations:
                lmax = degree - rdeg
                if lmax < 0:
                    continue
                for la in range(lmax + 1):
                    lb = lmax - la
                    lefts = paths[la].get((u, rsrc), []) if la < len(paths) else []
                    for lp in lefts:
                        rights = paths[lb].get((rdst, v), []) if lb < len(paths) else []
                        for rp in rights:
                            row = [0] * len(plist)
                            for sign, mid in terms:
                                row[pos[lp + mid + rp]] += sign
                            if any(row):
                                rows.append([Fraction(x) for x in row])
            if rows:
                red, pivots = rref(rows)
            else:
                red, pivots = [], []
            pivset = set(pivots)
            free = [idx for idx in range(len(plist)) if idx not in pivset]
            pair_basis = [(degree, plist[idx]) for idx in free]
            basis[(u, v)] = basis.get((u, v), []) + pair_basis
            offset = len(basis[(u, v)]) - len(pair_basis)
            free_pos = {idx: offset + t for t, idx in enumerate(free)}
            for idx in free:
                expand_by_pair[((u, v), degree, plist[idx])] = [(free_pos[idx], Fraction(1))]
            for row, piv in zip(red, pivots):
                terms = [
                    (free_pos[c], -row[c])
                    for c in free
                    if row[c] != 0
                ]
                expand_by_pair[((u, v), degree, plist[piv])] = terms
            total_dim += len(free)

        paths.append(new_paths)
        if total_dim == 0:
            break

    # Hom(P(i), P(j)) = path classes j -> i.
    dims = {}
    hom_basis_paths = {}
    for (u, v), blist in basis.items():
        if blist:
            dims[(v, u)] = len(blist)
            hom_basis_paths[(v, u)] = list(blist)

    max_deg = len(paths) - 1

    def expand_path(u: str, v: str, p: Path) -> list[tuple[int, Fraction]]:
        d = len(p)
        if d > max_deg:
            return []
        key = ((u, v), d, p)
        if key not in expand_by_pair:
            return []
        return expand_by_pair[key]

    comp: dict[tuple[str, str, str], dict] = {}
    pairs = list(dims)
    for i, j in pairs:
        for j2, l in pairs:
            if j2 != j:
                continue
            table = {}
            for a, (da, pa) in enumerate(hom_basis_paths[(i, j)]):
                for b, (db, pb) in enumerate(hom_basis_paths[(j, l)]):
                    # b after a: path (l -> j) followed by (j -> i)
                    terms = expand_path(l, i, pb + pa)
                    if terms:
                        table[(a, b)] = [(c, x) for c, x in terms if x != 0]
            if table:
                comp[(i, j, l)] = table

    return Algebra(qp.vertices, dims, comp, hom_basis_paths, name="jacobian")
