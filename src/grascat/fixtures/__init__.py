"""Shipped data that code cannot regenerate: rigid and non-real lists, golden tables.

The tame Jacobian algebras are built from `qpa.initial_qp`, not read from here.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from ..qpa import Algebra, build_algebra, initial_qp

TAME = {"gr39": (3, 9), "gr48": (4, 8)}


def _read_json(name: str) -> dict | list:
    path = resources.files(__package__).joinpath(name)
    return json.loads(path.read_text())


@lru_cache(maxsize=None)
def tame_algebra(key: str) -> Algebra:
    """Stable endomorphism algebra of the initial cluster-tilting object."""
    if key not in TAME:
        raise KeyError(f"no algebra fixture for {key!r}; available: {sorted(TAME)}")
    return build_algebra(initial_qp(*TAME[key]))


@lru_cache(maxsize=None)
def rigid_pairs(key: str) -> list[dict]:
    """Paired (tableau, profile) fixtures for the tame rigid-variable lists.

    Keys: gr39_rank4, gr48_rank3, gr48_rank4.
    """
    return _read_json(f"rigid_{key}.json")


@lru_cache(maxsize=None)
def nonreal(key: str) -> dict:
    """Non-real tableaux with printed g-vectors: gr39 or gr48."""
    return _read_json(f"nonreal_{key}.json")
