"""Static checks on the package source: no dead imports, no dead private helpers,
no defaulted parameter that no call sets or that every call sets, no stored
attribute that nothing reads, no read of the environment, no benchmark
tracer entry point that has gone missing, and no traced benchmark round
whose per-layer report is not strict JSON."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fraisse"
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"


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
        and node.name not in used
    ]
    assert not dead, f"private functions nothing in src/ references: {dead}"


def test_certificates_are_made_only_through_their_claims():
    # every certificate comes from the one declaration of its claim in certify
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        if name != "certify.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Certificate"
    ]
    sites += [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", None)) == "register_claim"
        or isinstance(node, ast.FunctionDef) and node.name == "register_claim"
    ]
    assert not sites, f"certificates made outside their claim declaration at {sites}"


def test_no_environment_reads():
    # settings such as the LP engine come from arguments and scopes only
    reads = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) in ("environ", "environb", "getenv", "getenvb")
        or isinstance(node, ast.ImportFrom) and any(a.name.startswith(("environ", "getenv")) for a in node.names)
    ]
    assert not reads, f"src/fraisse reads the environment at {reads}"


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


def test_traced_rounds_report_strict_json(monkeypatch):
    # bench/run.py prints a NaN quantile as a bare NaN, which a strict JSON
    # reader refuses; a traced round whose LPs all bypass lp.solve_lp has none
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins them on import; put them back after
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    bad = []
    for name in run.WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        rounds, _, _ = run.run_rounds(workload, workload.setup(0), seconds=0.01, tracer=tracer.Tracer())
        metrics = run.per_layer(rounds)
        try:
            json.dumps(metrics, allow_nan=False)
        except ValueError as exc:
            bad.append(f"{name}: {exc}")
        if not metrics["lp.solves"][0] > 0:
            bad.append(f"{name}: lp.solves reads {metrics['lp.solves'][0]}")
    assert not bad, f"traced rounds whose per-layer report is not strict JSON or counts no LP: {bad}"


def _defaulted_parameters():
    """(module, function, parameter, position) of each defaulted parameter
    of a named function in src/fraisse. position counts from the first
    argument a call passes, so a method's self or cls is not counted; it
    is None for a keyword-only parameter."""
    out = []
    for module, tree in _modules().items():
        methods = {
            id(fn)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if not any(getattr(d, "id", None) == "staticmethod" for d in getattr(fn, "decorator_list", []))
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][1 if id(node) in methods else 0 :]
            for position in range(len(positional) - len(args.defaults), len(positional)):
                out.append((module, node, positional[position], position))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((module, node, arg.arg, None))
    return out


def _calls_by_name():
    """What every call in src/, tests/, bench/ and demos/ passes, keyed by
    the called name (a class name counts as a call of its __init__): the
    keyword names and positional count of each call, with None for a
    *args or **kwargs whose contents the scan cannot see."""
    calls = {}
    classes = {
        node.name for tree in _modules().values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    for folder in ("src", "tests", "bench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in classes:
                    name = "__init__"
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(name, []).append(
                    (None if starred else len(node.args), None if None in keywords else keywords)
                )
    return calls


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default no call overrides is a constant spelled as a parameter;
    # matching calls by bare name errs towards calling a parameter set
    calls = _calls_by_name()
    dead = [
        f"{module}:{func.lineno} {func.name}({name})"
        for module, func, name, position in _defaulted_parameters()
        if not any(
            npos is None or kws is None or name in kws or (position is not None and npos > position)
            for npos, kws in calls.get(func.name, [])
        )
    ]
    assert not dead, f"defaulted parameters no call in src/, tests/, bench/ or demos/ sets: {dead}"


def test_every_default_is_relied_on_by_some_call():
    # a default every call overrides is a required parameter in disguise,
    # and the code that only it reaches is dead; a call with *args or
    # **kwargs may rely on any default, so it counts for all of them
    calls = _calls_by_name()
    unused = [
        f"{module}:{func.lineno} {func.name}({name})"
        for module, func, name, position in _defaulted_parameters()
        if not any(
            npos is None or kws is None or (name not in kws and (position is None or npos <= position))
            for npos, kws in calls.get(func.name, [])
        )
    ]
    assert not unused, f"defaults no call in src/, tests/, bench/ or demos/ relies on: {unused}"


def test_every_stored_attribute_is_read():
    # an attribute an __init__ stores and nothing reads is a dead output;
    # reads are attribute loads anywhere in src/, tests/, bench/ or demos/
    stored = [
        (module, cls.name, target.attr)
        for module, tree in _modules().items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for node in ast.walk(init)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
    ]
    read = {
        node.attr
        for folder in ("src", "tests", "bench", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f"{module} {cls}.{attr}" for module, cls, attr in stored if attr not in read]
    assert not unread, f"attributes stored but never read: {unread}"
