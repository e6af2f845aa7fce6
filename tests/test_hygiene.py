"""Static checks on the package source: no dead imports, no dead private helpers,
and no benchmark tracer entry point that has gone missing."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fraisse"
TRACER = ROOT / "bench" / "tracer.py"


def _modules():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _top_level_imports(tree):
    """(bound name, line) of each import at module level, try blocks included."""
    stmts = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.Try):
            stmts.extend(node.body)
            for handler in node.handlers:
                stmts.extend(handler.body)
    out = []
    for node in stmts:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    out.append(((alias.asname or alias.name).split(".")[0], node.lineno))
    return out


def _referenced(tree):
    """Every identifier a tree uses: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unused_top_level_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in _top_level_imports(tree) if bound not in used]
    assert not unused, f"imported but never used: {unused}"


def test_no_unreferenced_private_functions():
    modules = _modules()
    used = set().union(*(_referenced(tree) for tree in modules.values()))
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not node.decorator_list  # @register_claim rechecks are reached through the registry
        and node.name not in used
    ]
    assert not dead, f"private functions nothing in src/ references: {dead}"


def _tracer_entry_points():
    """The ENTRY_POINTS literal of the benchmark tracer, read without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no ENTRY_POINTS")


def test_tracer_entry_points_resolve():
    # a renamed or inlined entry point would leave its per-layer metric at zero
    missing = []
    for layer, names in _tracer_entry_points().items():
        mod = importlib.import_module(f"fraisse.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            # the tracer wraps a method where its class defines it
            found = vars(owner).get(attr) if owner is not None else None
            if not callable(found):
                missing.append(f"{layer}.{qualname}")
    assert not missing, f"tracer entry points not defined in fraisse: {missing}"
