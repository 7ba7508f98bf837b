"""Source hygiene checks over ``src/trunkpack``.

Every top-level import of a module must be used in that module or listed
in its ``__all__`` (a re-export); ``from __future__`` imports are exempt.
Every top-level private name (one leading underscore) that a module
defines must be read somewhere in the package.  No module holds an
``assert`` or a ``global`` statement.
"""

import ast
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
