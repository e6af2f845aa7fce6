"""List every statement in src/fraisse that the Tier-1 suite never runs.

    PYTHONPATH=src python tests/stmt_coverage.py

It installs a line tracer with `sys.settrace` and `threading.settrace`
before anything imports `fraisse`, then runs the Tier-1 suite on `tests/`
in-process, with `-p no:cacheprovider` and `--hypothesis-seed=0` so the
count does not depend on which examples Hypothesis draws. A statement is
every `ast` statement of `src/fraisse/*.py` except `def` and `class`
headers and docstrings; it counts as run when the tracer saw a line event
on any line it spans. Each statement never run is printed as
`module:line source`. The exit code is 1 when there is any, or when the
suite itself fails.

pytest does not collect this file: its name does not start with `test_`.
"""

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fraisse"
FILES = {str(path): path for path in sorted(SRC.glob("*.py"))}

hit = {name: set() for name in FILES}


def _local(frame, event, arg):
    if event == "line":
        hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in hit else None


@contextlib.contextmanager
def tracing():
    """Record the lines run in src/fraisse, in this thread and new ones."""
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def statements(tree):
    """(first line, last line) of each counted statement of a module."""
    out = []
    for node in ast.walk(tree):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        docstring = node.body[0] if documented and ast.get_docstring(node) is not None else None
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt) or child is docstring:
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((child.lineno, child.end_lineno))
    return sorted(out)


def unrun():
    """The never-run statements as `module:line source`, and the count of all."""
    missing, total = [], 0
    for name, path in FILES.items():
        source = path.read_text()
        lines = source.splitlines()
        spans = statements(ast.parse(source, filename=name))
        total += len(spans)
        for first, last in spans:
            if hit[name].isdisjoint(range(first, last + 1)):
                missing.append(f"{path.stem}:{first} {lines[first - 1].strip()}")
    return missing, total


def main():
    import pytest

    with tracing():
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")])
    missing, total = unrun()
    for line in missing:
        print(line)
    print(f"{len(missing)} of {total} statements in src/fraisse never run")
    return 1 if missing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
