"""Per-layer tracing of grascat from the outside.

Each traced function is replaced, in every grascat module that holds a
reference to it, by a wrapper that opens a span.  Spans nest: a layer's
self time is its span's duration minus the durations of the traced spans
it caused.  Counts (calls, matrix entries, distinct arguments, ...) are
recorded at the same boundaries.  Nothing under ``src/`` is edited; the
patches are undone by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable


def _entries(rows) -> int:
    return len(rows) * len(rows[0]) if len(rows) else 0


def _matrix_key(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


# layer -> (counts from (args, result), key of the argument for `distinct`).
# Layer names are "<module>.<function>" inside the grascat package.
LAYERS: dict[str, tuple[Callable | None, Callable | None]] = {
    "linalg.det": (None, lambda a: _matrix_key(a[0])),
    "linalg.rank_int": (lambda a, r: {"entries": _entries(a[0])}, None),
    "linalg.rref": (lambda a, r: {"rows": len(a[0]), "pivot_rows": len(r[1])}, None),
    "modp.rank_mod_p": (lambda a, r: {"entries": int(a[0].size)}, None),
    "braid.sigma": (None, None),
    "braid.plucker_vector": (None, None),
    "einv.e_pair": (None, None),
    "einv.random_complex": (None, None),
    "einv.generic_e_parts": (lambda a, r: {"samples": r.samples}, None),
    "einv.generic_e_pair_parts": (lambda a, r: {"samples": r.samples}, None),
    "qpa.build_algebra": (None, lambda a: a[0]),
    "hl.kr_compatible_gamma": (None, None),
    "cluster.explore": (lambda a, r: {"seeds": r.seeds_seen}, None),
    "cluster.mutate_seed": (None, None),
    "gvec.g_vector": (None, None),
    "tableaux.reduce": (None, None),
}


class Tracer:
    """Collects spans of the wrapped layers while ``active`` is true.

    ``clock`` is injectable so that self time can be tested on a synthetic
    call tree with exact values.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self._children: list[float] = []  # time covered by child spans, per open span
        self._op: dict[str, float] = defaultdict(float)
        self._keys: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, layer: str, fn: Callable, counts=None, key=None) -> Callable:
        op, children, keys = self._op, self._children, self._keys

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = self.clock()
            children.append(0.0)
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    inner = children.pop()
                    op[f"{layer}.calls"] += 1
                    op[f"{layer}.self_s"] += self.clock() - start - inner
                if counts is not None:
                    for name, value in counts(args, result).items():
                        op[f"{layer}.{name}"] += value
                if key is not None:
                    keys[layer].add(key(args))
            finally:
                # The parent's self time excludes this span and its bookkeeping.
                if children:
                    children[-1] += self.clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer wherever a grascat module refers to it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "grascat" or name.startswith("grascat."))
        ]
        for layer, (counts, key) in LAYERS.items():
            module_name, attr = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"grascat.{module_name}"], attr)
            traced = self.wrap(layer, original, counts, key)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, traced)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def take_op(self) -> dict[str, float]:
        """Counts and raw self seconds recorded since the last call."""
        out = dict(self._op)
        self._op.clear()
        return out

    def take_distinct(self) -> dict[str, int]:
        """Distinct arguments per keyed layer since the last call."""
        out = {f"{layer}.distinct": len(keys) for layer, keys in self._keys.items()}
        self._keys.clear()
        return out
