"""Names that code outside the library reaches grascat by.

The benchmark's trace mode wraps each layer of `perfbench/tracer.py`'s
LAYERS in the loaded grascat module of that name, so deleting or renaming
one breaks `perfbench/run.py --trace 1`; every name a module lists in
`__all__` must exist too.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import grascat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def trace_layers() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return list(tracer.LAYERS)


@pytest.mark.parametrize("layer", trace_layers())
def test_trace_layer_is_a_callable(layer):
    module_name, attr = layer.rsplit(".", 1)
    # the tracer looks modules up in sys.modules, loaded by `import grascat`
    assert callable(getattr(sys.modules[f"grascat.{module_name}"], attr, None))


@pytest.mark.parametrize(
    "name", [m.name for m in pkgutil.iter_modules(grascat.__path__, "grascat.")]
)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
