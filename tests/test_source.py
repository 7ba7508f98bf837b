"""Source hygiene checks over ``src/trunkpack``.

Every top-level import of a module must be used in that module or listed
in its ``__all__`` (a re-export); ``from __future__`` imports are exempt.
Every top-level private name (one leading underscore) that a module
defines must be read somewhere in the package.  No module holds an
``assert`` or a ``global`` statement.  No module names numpy's random
module, and a region build imports neither it nor OpenSSL's hashing.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "trunkpack").glob("*.py"))


def _bound_names(node):
    """The names a top-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [a.asname or a.name for a in node.names]
    return []


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Top-level imported names that the module neither reads nor lists
    in ``__all__``."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= _exported(tree)
    return [name for node in tree.body for name in _bound_names(node)
            if name not in read]


def _private_definitions(tree):
    """Top-level functions, classes and assigned names of a module that
    start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict) -> list:
    """``module.name`` for each top-level private name that no module of
    ``sources`` (module name -> source text) reads, by name or as an
    attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]


def test_checker_flags_only_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import a.b\n"
              "from c import d as e, f, g\n"
              "__all__ = ['g']\n"
              "def h(x: f) -> None:\n"
              "    return sys.argv, a.b\n")
    assert unused_imports(source) == ["os", "e"]


def test_sources_found():
    assert any(p.name == "geometry.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_only_unread_private_names():
    sources = {"a": ("_LIMIT = 3\n"
                     "_seen: int = 0\n"
                     "def _bits(mask):\n"
                     "    return mask\n"
                     "def _used(x):\n"
                     "    return x < _LIMIT\n"
                     "class _Box:\n"
                     "    pass\n"
                     "__all__ = []\n"),
               "b": ("from a import _used\n"
                     "import a\n"
                     "def f(x):\n"
                     "    return _used(x), a._Box\n")}
    assert unread_private_names(sources) == ["a._seen", "a._bits"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # ``python -O`` strips them: a library invariant raises an error instead
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_global_statements(path):
    # module state set by a function is state a process pool does not share:
    # work reaches a task through its arguments
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Global)]


def numpy_random_names(source: str) -> list:
    """Line numbers at which a module names numpy's random module: the
    attribute ``random`` of ``np`` or ``numpy``, or an import of it."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and n.attr == "random" and \
                isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy"):
            lines.append(n.lineno)
        elif isinstance(n, ast.Import) and any(
                a.name.startswith("numpy.random") for a in n.names):
            lines.append(n.lineno)
        elif isinstance(n, ast.ImportFrom) and n.module and (
                n.module.startswith("numpy.random") or
                (n.module == "numpy"
                 and any(a.name == "random" for a in n.names))):
            lines.append(n.lineno)
    return lines


def test_checker_flags_numpy_random_names():
    source = ("import numpy as np\n"
              "import random\n"
              "from numpy import random as r\n"
              "import numpy.random\n"
              "from numpy.random import default_rng\n"
              "x = np.random.default_rng(1)\n"
              "y = random.random(), np.uint64(3)\n")
    assert numpy_random_names(source) == [3, 4, 5, 6]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_numpy_random(path):
    # the samples come from the package's own PCG64 stream
    text = path.read_text(encoding="utf-8")
    assert numpy_random_names(text) == []
    assert "np.random" not in text and "numpy.random" not in text


def test_region_build_imports_no_numpy_random_or_openssl():
    script = (
        "import sys\n"
        "import trunkpack.pipeline\n"
        "from trunkpack import freespace\n"
        "from trunkpack.catalog import BoxType\n"
        "rows = [{'n': n, 'd': d} for k in range(3) for n, d in\n"
        "        (([int(i == k) for i in range(3)], 100),\n"
        "         ([-int(i == k) for i in range(3)], 0))]\n"
        "trunk = freespace.parse_convex_json({'shell': {'halfspaces': rows}})\n"
        "box = BoxType.from_dict({'id': 'J', 'dims_mm': [50, 40, 30],\n"
        "                         'max_count': 1})\n"
        "region = freespace.compute_feasible_region(trunk, box, 'xyz',\n"
        "                                           samples=1000, seed=3)\n"
        "assert region.volume_mm3 == 50 * 60 * 70, region.volume_mm3\n"
        "print(sorted(m for m in ('numpy.random', 'secrets', '_hashlib')\n"
        "             if m in sys.modules))\n")
    src = str(SOURCES[0].parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
