"""Names that code outside the library reaches grascat by.

The benchmark's trace mode wraps each layer of `perfbench/tracer.py`'s
LAYERS in the loaded grascat module of that name, so deleting or renaming
one breaks `perfbench/run.py --trace 1`; every name a module lists in
`__all__` must exist too.  Every name a module of the library or of the
tests imports must also be used in it, so that deleting the last caller of
a name removes its import.  No library module imports or reads another
module's `_` names, so that modules meet only at public names.
Every function, method and class the library defines must have a caller in
the library or the benchmark, so that a name only the tests reach moves
into the tests; a method is called only where code reads it as an
attribute.  The exact kernels of `linalg` build no `Fraction`, and
`einv` hands numpy no object dtype.  Numpy arrays are built only in
`linalg`, `modp` and `einv`; elsewhere numpy serves only seeded draws.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import grascat

TESTS = Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"
PACKAGE = Path(grascat.__file__).resolve().parent
PERFBENCH = TRACER.parent


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


@pytest.mark.parametrize("path", sorted(p.name for p in TESTS.glob("*.py")))
def test_every_test_import_is_used(path):
    assert unused_imports((TESTS / path).read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(path, "module._name") for each private name one module takes from another.

    `sources` maps a path to its source.  A reach is `from .m import _x`, or
    a read of `m._x` where `from . import m [as alias]` bound the name.
    Dunder names and a module's own `_` names do not count.
    """
    found = []
    for path, source in sources.items():
        own = Path(path).stem
        tree = ast.parse(source)
        bound = {}  # local name -> module it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    bound.update((a.asname or a.name, a.name)
                                 for a in node.names if a.name != own)
                elif node.module != own:
                    found += [(path, f"{node.module}.{a.name}")
                              for a in node.names if _private(a.name)]
        found += [
            (path, f"{bound[node.value.id]}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound and _private(node.attr)
        ]
    return sorted(found)


def test_private_reaches_are_found():
    sources = {
        "a.py": "from .b import _x, y, __version__\n"
                "from . import c, d as e, a\n"
                "c._f(); e._g; c.h; c.__name__; a._own; self._attr; d._unbound\n",
        "b.py": "from .b import _own\nfrom .c import _y as y\n",
    }
    assert private_reaches(sources) == [
        ("a.py", "b._x"), ("a.py", "c._f"), ("a.py", "d._g"), ("b.py", "c._y"),
    ]


def test_no_module_reaches_into_another():
    library = {p.relative_to(PACKAGE).as_posix(): p.read_text()
               for p in sorted(PACKAGE.rglob("*.py"))}
    assert private_reaches(library) == []


def names_read(tree: ast.AST, attributes_only: bool = False):
    """Every identifier, attribute name and `__all__` string in `tree`; with
    `attributes_only`, the attribute names alone."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (e.value for e in node.value.elts if isinstance(e, ast.Constant))


def uncalled(library: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Names that a `def` or `class` in `library` defines and no code names.

    Both arguments map a path to its source; `library` is searched for
    definitions, and both for names.  A method (a `def` in a class body)
    counts as named only where some code reads it as an attribute
    (``x.name``); any other definition, where code reads its name in any
    way.  A definition's own body does not count, and dunder names are
    skipped.  The match is by name alone, so a definition whose name other
    code uses for something else (such as `VectorTuple.to_json` beside
    every other `to_json`) passes unseen.
    """
    trees = {path: ast.parse(source) for path, source in {**callers, **library}.items()}
    named = Counter(name for tree in trees.values() for name in names_read(tree))
    read = Counter(name for tree in trees.values() for name in names_read(tree, True))
    found = []
    for path in library:
        methods = {
            id(item) for node in ast.walk(trees[path]) if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            method = id(node) in methods
            if (read if method else named)[name] == Counter(names_read(node, method))[name]:
                found.append(f"{path}:{name}")
    return found


def test_uncalled_names_are_found():
    library = {
        "a.py": "__all__ = ['listed']\n"
                "def listed(): pass\n"
                "def helper(): pass\n"
                "def recursive(n): return recursive(n - 1)\n"
                "class C:\n    def method(self): pass\n    def __repr__(self): pass\n",
    }
    assert uncalled(library, {"b.py": "helper()\n"}) == ["a.py:recursive", "a.py:C", "a.py:method"]
    assert uncalled(library, {"b.py": "helper(); x.method(); C()\n"}) == ["a.py:recursive"]
    # a method is called only through an attribute: a local of its name is
    # no caller, and nor is a read of it in its own body
    library["a.py"] += "    def degree(self): return self.degree\n"
    callers = {"b.py": "helper(); x.method(); C()\ndef f():\n    degree = 0\n    return degree\n"}
    assert uncalled(library, callers) == ["a.py:recursive", "a.py:degree"]
    assert uncalled(library, {"b.py": callers["b.py"] + "C().degree()\n"}) == ["a.py:recursive"]


def test_every_library_name_has_a_caller():
    library = {p.relative_to(PACKAGE.parent).as_posix(): p.read_text()
               for p in sorted(PACKAGE.rglob("*.py"))}
    benchmark = {p.relative_to(PERFBENCH.parent).as_posix(): p.read_text()
                 for p in sorted(PERFBENCH.glob("*.py"))}
    assert len(library) > 10 and len(benchmark) > 3
    assert uncalled(library, benchmark) == []


def fraction_calls(source: str) -> list[int]:
    """Line numbers of the `Fraction(...)` calls in `source`.

    A call through an attribute (`fractions.Fraction(...)`) counts; naming
    the class, as in `isinstance(x, Fraction)`, does not.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Fraction"
             or getattr(node.func, "attr", None) == "Fraction")
    ]


def test_fraction_calls_are_found():
    source = (
        "from fractions import Fraction\nimport fractions\n"
        "isinstance(x, Fraction)\nFraction(1, 2)\nfractions.Fraction(3)\n"
    )
    assert fraction_calls(source) == [4, 5]


def test_linalg_builds_no_fraction():
    assert fraction_calls((PACKAGE / "linalg.py").read_text()) == []


def object_dtypes(source: str) -> list[int]:
    """Line numbers where `source` names numpy's object dtype.

    That is any use of the name `object` but `object.__new__`, such as
    ``dtype=object``, ``astype(object)`` or ``int64 if small else object``;
    ``np.object_``; and the strings "O" and "object" given as a dtype, by a
    ``dtype=`` keyword or as the argument of ``astype``.
    """
    tree = ast.parse(source)
    allowed = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    }
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "dtype":
            strings.append(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype":
            strings += node.args[:1]
    return sorted(
        [node.lineno for node in ast.walk(tree)
         if isinstance(node, ast.Name) and node.id == "object" and id(node) not in allowed]
        + [node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr == "object_"]
        + [node.lineno for node in strings
           if isinstance(node, ast.Constant) and node.value in ("O", "object")]
    )


def test_object_dtypes_are_found():
    source = (
        "h = object.__new__(cls)\n"
        "np.zeros(3, dtype=object)\n"
        "m.astype(object, copy=False)\n"
        "np.array(x, dtype=np.int64 if top < 2**63 else object)\n"
        "np.array(x, dtype='O')\nm.astype('object')\nnp.object_\n"
        "np.array(x, dtype=np.int64)\nm.astype(np.int64)\nlabel = 'O'\n"
    )
    assert object_dtypes(source) == [2, 3, 4, 5, 6, 7]


def test_einv_builds_no_object_array():
    # numpy sees only int64 matrices; an entry that could pass 2^63 is
    # built and ranked in Python ints instead
    assert object_dtypes((PACKAGE / "einv.py").read_text()) == []


def numpy_uses(source: str) -> list[int]:
    """Line numbers where `source` uses numpy other than through ``.random``.

    A use is a read of the name that ``import numpy [as np]`` binds, except
    as the value of a ``.random`` attribute, and any ``from numpy... import``
    but ``from numpy.random import``.
    """
    tree = ast.parse(source)
    bound = {
        a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "numpy"
    }
    allowed = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "random"
    }
    return sorted(
        [node.lineno for node in ast.walk(tree)
         if isinstance(node, ast.Name) and node.id in bound and id(node) not in allowed]
        + [node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
           and node.module != "numpy.random"]
    )


def test_numpy_uses_are_found():
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng([1, 2])\n"
        "def draw(rng: np.random.Generator) -> np.ndarray: pass\n"
        "grid = np.zeros((3, 6), dtype=np.int64)\n"
        "from numpy import array\nfrom numpy.random import default_rng\n"
        "alias = np\nnumpy.zeros(2)\n"
    )
    assert numpy_uses(source) == [3, 4, 4, 5, 7]
    assert numpy_uses("import numpy\nnumpy.random.default_rng(0)\nnumpy.eye(2)\n") == [3]


# the exact kernels and the homotopy operators they rank
NUMPY_MODULES = {"linalg.py", "modp.py", "einv.py"}


def test_numpy_stays_in_the_exact_kernels():
    # a label's content, a rim height or a g-vector is a tuple of Python ints
    found = {
        path.name: numpy_uses(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in NUMPY_MODULES
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
