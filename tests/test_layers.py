"""Names that code outside the library reaches grascat by.

The benchmark's trace mode wraps each layer of `perfbench/tracer.py`'s
LAYERS in the loaded grascat module of that name, so deleting or renaming
one breaks `perfbench/run.py --trace 1`; every name a module lists in
`__all__` must exist too.  Every name a module imports must also be used
in it, so that deleting the last caller of a name removes its import.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import grascat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PACKAGE = Path(grascat.__file__).resolve().parent


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


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that nothing else in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("from dataclasses import dataclass\nimport os.path\n") == [
        "dataclass", "os",
    ]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


# grascat/__init__.py imports only to re-export
@pytest.mark.parametrize(
    "path",
    [p.relative_to(PACKAGE).as_posix() for p in sorted(PACKAGE.rglob("*.py"))
     if p != PACKAGE / "__init__.py"],
)
def test_every_import_is_used(path):
    assert unused_imports((PACKAGE / path).read_text()) == []
