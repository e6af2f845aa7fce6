"""Static checks on the package source: no dead imports, no dead private helpers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fraisse"


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
