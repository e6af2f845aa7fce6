"""Static checks on the package source: no dead imports, no dead private helpers,
no public function or class that only tests reach, no defaulted parameter
that no program call sets or that every program call sets, no stored
attribute that the program never reads (outside one table of exemptions),
no read of the environment, no benchmark tracer entry point that has gone
missing, and no traced benchmark round whose per-layer report is not
strict JSON."""

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
PROGRAM = ("src", "bench", "demos")  # the folders whose calls and reads count as use


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


# public names only tests reach, kept on purpose: the codecs of the frozen
# operator battery that the acceptance battery loads
KEPT_FOR_TESTS = {"battery_to_json", "battery_from_json"}


def test_no_public_name_is_reached_only_from_tests():
    # a name counts as reached from another module of src/fraisse (not the
    # package's re-exports), from its own module outside its definition, or
    # from a demo or benchmark script
    modules = _modules()
    scripts = set().union(
        *(
            _referenced(ast.parse(path.read_text(), filename=str(path)))
            for folder in ("demos", "bench")
            for path in sorted((ROOT / folder).glob("*.py"))
        )
    )
    unreached = set()
    for name, tree in modules.items():
        others = set().union(*(_referenced(t) for n, t in modules.items() if n not in (name, "__init__.py")))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = _referenced(ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[]))
                if node.name not in others | own | scripts:
                    unreached.add(node.name)
    assert unreached - KEPT_FOR_TESTS == set(), f"public names only tests reach: {sorted(unreached - KEPT_FOR_TESTS)}"
    assert KEPT_FOR_TESTS <= unreached, f"kept for tests but reached or gone: {sorted(KEPT_FOR_TESTS - unreached)}"


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
    """What every call in the program (src/, bench/ and demos/) passes,
    keyed by the called name (a class name counts as a call of its
    __init__): the keyword names and positional count of each call, with
    None for a *args or **kwargs whose contents the scan cannot see."""
    calls = {}
    classes = {
        node.name for tree in _modules().values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    for folder in PROGRAM:
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


# Options and fields that no program call sets, relies on or reads, kept on
# purpose: (module, function or class, name) -> why it stays. Tests do not
# count as use, so an entry here is surface that only callers outside the
# program and the tests reach.
EXEMPT = {
    ("cli.py", "main", "argv"): "the console script calls main() with no argument",
    ("spaces.py", "extend_morphism", "check"): "guards callers outside the program; every caller inside "
    "has already measured what it checks",
    ("spaces.py", "hahn_banach_extend", "check"): "guards callers outside the program; every caller inside "
    "has already measured what it checks",
    ("chains.py", "build_gurarij_chain", "extend_per_step"): "a size of the tower that ROADMAP's scaling "
    "sweep varies",
    ("universal.py", "build_universal_operator_chain", "dom_cap"): "a size of the tower that ROADMAP's "
    "scaling sweep varies",
    ("universal.py", "build_universal_operator_chain", "cod_cap"): "a size of the tower that ROADMAP's "
    "scaling sweep varies",
    ("spaces.py", "support_value", "radius"): "the support-function oracle that tests check the norms "
    "and the extreme directions against",
    ("lp.py", "LPResult", "exact_value"): "the exact engine's Fraction optimum, which ROADMAP's "
    "certificates that do not trust the solver enclose",
}


def _unset_defaults():
    """(module, function, parameter) of each default no program call
    overrides: a constant spelled as a parameter. Matching calls by bare
    name errs towards calling a parameter set."""
    calls = _calls_by_name()
    return {
        (module, func.name, name)
        for module, func, name, position in _defaulted_parameters()
        if not any(
            npos is None or kws is None or name in kws or (position is not None and npos > position)
            for npos, kws in calls.get(func.name, [])
        )
    }


def _unrelied_defaults():
    """(module, function, parameter) of each default every program call
    overrides: a required parameter in disguise, and the code that only it
    reaches is dead. A call with *args or **kwargs may rely on any
    default, so it counts for all of them."""
    calls = _calls_by_name()
    return {
        (module, func.name, name)
        for module, func, name, position in _defaulted_parameters()
        if not any(
            npos is None or kws is None or (name not in kws and (position is None or npos <= position))
            for npos, kws in calls.get(func.name, [])
        )
    }


def _unread_attributes():
    """(module, class, attribute) of each attribute an __init__ stores and
    no attribute load in the program reads: a dead output."""
    stored = {
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
    }
    read = {
        node.attr
        for folder in PROGRAM
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {key for key in stored if key[2] not in read}


def test_every_defaulted_parameter_is_set_by_some_call():
    dead = sorted(_unset_defaults() - EXEMPT.keys())
    assert not dead, f"defaulted parameters no call in src/, bench/ or demos/ sets: {dead}"


def test_every_default_is_relied_on_by_some_call():
    unused = sorted(_unrelied_defaults() - EXEMPT.keys())
    assert not unused, f"defaults no call in src/, bench/ or demos/ relies on: {unused}"


def test_every_stored_attribute_is_read():
    unread = sorted(_unread_attributes() - EXEMPT.keys())
    assert not unread, f"attributes stored but never read in src/, bench/ or demos/: {unread}"


def test_every_exemption_is_still_flagged():
    # an entry leaves the table once the program uses it or its name is gone
    stale = EXEMPT.keys() - (_unset_defaults() | _unrelied_defaults() | _unread_attributes())
    assert not stale, f"exempt but used by the program or gone: {sorted(stale)}"
