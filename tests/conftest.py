import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from grascat import fixtures
from grascat.cluster import grassmannian_initial_seed
from grascat.errors import is_int, is_str, json_fields, list_of
from grascat.qpa import QuiverWithPotential
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


def random_tableau(rng: np.random.Generator, k: int, n: int, max_cols: int = 4) -> Tableau:
    """Union of random strict columns; covers all of SSYT(k, [n])."""
    ncols = int(rng.integers(0, max_cols + 1))
    cols = [
        Tableau.from_column(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False)), n)
        for _ in range(ncols)
    ]
    return union_all(cols, k=k, n=n)
