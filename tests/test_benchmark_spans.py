"""The benchmark reaches into the library by name.

``benchmarks/spans.py`` lists, per layer, the public functions it times.  A
listed name that no longer exists breaks a traced benchmark run, so every
name must stay a callable attribute of its ``trunkpack`` module.

``benchmarks/op.py`` runs one benchmark operation.  Every ``trunkpack`` name
it imports or reads must exist, and every keyword it passes to a
``trunkpack`` callable (``SearchConfig`` fields included) must be one of its
parameters; otherwise a search-churn or mesh-trunk run breaks.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = BENCHMARKS / "spans.py"
OP = BENCHMARKS / "op.py"


def test_every_traced_span_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"trunkpack.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_benchmark_op_uses_only_existing_library_names():
    tree = ast.parse(OP.read_text(encoding="utf-8"))
    bound = {}  # local name -> trunkpack module or object
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "trunkpack":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "trunkpack"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # a submodule, as in from-import
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id), expr.id
        if isinstance(expr, ast.Attribute):
            owner, name = resolve(expr.value)
            if owner is not None:
                assert hasattr(owner, expr.attr), f"{name}.{expr.attr}"
                return getattr(owner, expr.attr), f"{name}.{expr.attr}"
        return None, None

    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            target, name = resolve(node)
            if target is not None:
                seen.add(name)
        elif isinstance(node, ast.Call):
            target, name = resolve(node.func)
            if target is None:
                continue
            params = inspect.signature(target).parameters
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, f"{name}({kw.arg}=)"
    assert {"search.SearchConfig", "pipeline.config_from_args",
            "freespace.compute_feasible_region"} <= seen
