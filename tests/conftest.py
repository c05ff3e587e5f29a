import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from grascat import einv, fixtures
from grascat.cluster import grassmannian_initial_seed
from grascat.errors import is_int, json_fields, list_of
from grascat.qpa import Algebra, QuiverWithPotential, _integral
from grascat.tableaux import Tableau, union_all

DATA = Path(__file__).parent / "data"

# Property tests run the same examples every time and are never timed out:
# wall time on a shared 2-vCPU host can double within a second.
settings.register_profile("grascat", deadline=None, derandomize=True, database=None)
settings.load_profile("grascat")


@pytest.fixture(scope="session")
def seed39():
    return grassmannian_initial_seed(3, 9)


@pytest.fixture(scope="session")
def seed48():
    return grassmannian_initial_seed(4, 8)


@pytest.fixture(scope="session")
def seed36():
    return grassmannian_initial_seed(3, 6)


@pytest.fixture(scope="session")
def alg39():
    return fixtures.tame_algebra("gr39")


@pytest.fixture(scope="session")
def alg48():
    return fixtures.tame_algebra("gr48")


def is_str(x) -> bool:
    return isinstance(x, str)


def qp_from_json(data) -> QuiverWithPotential:
    """Quiver with potential from its JSON object: vertices, arrows with ids, signed cycles."""
    vertices, arrows, potential = json_fields(
        data, "quiver with potential",
        vertices=list_of(is_str), arrows=list_of(), potential=list_of(),
    )
    ends = {"id": is_str, "from": is_str, "to": is_str}
    terms = [json_fields(t, "potential term", sign=is_int, cycle=list_of(is_str))
             for t in potential]
    return QuiverWithPotential(
        tuple(vertices),
        tuple(json_fields(a, "arrow", **ends) for a in arrows),
        tuple((sign, tuple(cycle)) for sign, cycle in terms),
    )


def oracle_qp(name: str) -> QuiverWithPotential:
    """Hand-written quiver with potential kept as a test oracle: qp_gr39, qp_gr48, qp_hl_gamma."""
    return qp_from_json(json.loads((DATA / f"{name}.json").read_text()))


def from_table(vertices, dims, comp_entries) -> Algebra:
    """Hand-entered algebra, bypassing the path engine: the oracle for `build_algebra`.

    `comp_entries` maps (i, j, l, a, b) to a list of (c, coeff) pairs; each
    coefficient must be integral, as `build_algebra` requires.
    """
    comp: dict[tuple[str, str, str], dict] = {}
    for (i, j, l, a, b), terms in comp_entries.items():
        comp.setdefault((i, j, l), {})[(a, b)] = _integral((i, j, l), terms)
    return Algebra(tuple(vertices), dict(dims), comp, {})


# --- oracles: rational Gaussian elimination, as the integer kernels of
# `linalg` are checked against ---------------------------------------------


def fraction_det(rows):
    """Determinant by elimination over Q; the rows may hold ints or Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot = m[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / pivot
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * result


def fraction_rref(rows):
    """(reduced row echelon form over Q, pivot columns) of int or Fraction rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def total_dim(alg: Algebra) -> int:
    return sum(alg.hom_dim(i, j) for i in alg.vertices for j in alg.vertices)


def projective_support(alg: Algebra, v: str) -> dict[str, int]:
    """Dimension of P(v) at each vertex (its representation grid)."""
    return {w: alg.hom_dim(w, v) for w in alg.vertices if alg.hom_dim(w, v)}


def compose_vectors(alg: Algebra, i: str, j: str, l: str, x: dict, y: dict) -> dict:
    """x in Hom(P(i), P(j)) followed by y in Hom(P(j), P(l)), as a sparse vector.

    x, y and the result map basis indices to coefficients; zero
    coefficients are dropped from the result.
    """
    table = alg.comp_table(i, j, l)
    out: dict = {}
    for a, xa in x.items():
        for b, yb in y.items():
            for c, coeff in table.get((a, b), ()):
                out[c] = out.get(c, 0) + xa * yb * coeff
    return {c: v for c, v in out.items() if v}


def check_associative(alg: Algebra) -> bool:
    """Composition associativity on every basis triple (exact)."""
    vs = alg.vertices
    for i in vs:
        for j in vs:
            for l in vs:
                for m in vs:
                    for a in range(alg.hom_dim(i, j)):
                        for b in range(alg.hom_dim(j, l)):
                            ab = compose_vectors(alg, i, j, l, {a: 1}, {b: 1})
                            for c in range(alg.hom_dim(l, m)):
                                bc = compose_vectors(alg, j, l, m, {b: 1}, {c: 1})
                                left = compose_vectors(alg, i, l, m, ab, {c: 1})
                                right = compose_vectors(alg, i, j, m, {a: 1}, bc)
                                if left != right:
                                    return False
    return True


def content_grid(t: Tableau) -> np.ndarray:
    """The content of t as a k x n grid: entry [r, v-1] counts the boxes of value v in row r."""
    return np.array(t.content(), dtype=np.int64).reshape(t.k, t.n)


def random_tableau(rng: np.random.Generator, k: int, n: int, max_cols: int = 4) -> Tableau:
    """Union of random strict columns; covers all of SSYT(k, [n])."""
    ncols = int(rng.integers(0, max_cols + 1))
    cols = [
        Tableau.from_column(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False)), n)
        for _ in range(ncols)
    ]
    return union_all(cols, k=k, n=n)


def self_pairs_of_every_side(alg: Algebra, field: str, count: int = 200):
    """(operator, complex) for `count` random summand lists over `alg`, one
    to four of each, with the homotopy operator of the complex against
    itself.  Over Gr(3,9) the fixed stream reaches every min(rows, cols)
    from 0 to 16."""
    pick = np.random.default_rng([28, 1])
    vertices = list(alg.vertices)
    for idx in range(count):
        neg = tuple(str(v) for v in pick.choice(vertices, size=pick.integers(1, 5)))
        pos = tuple(str(v) for v in pick.choice(vertices, size=pick.integers(1, 5)))
        f = einv.random_complex(alg, neg, pos, (idx, 0, 0), field)
        yield einv._operator(alg, neg, pos, neg, pos), f
