"""Record the LP stream of one build or benchmark round, one digest per solve.

    PYTHONPATH=src python tests/lp_stream.py build gurarij depth=5 dim_cap=12 seed=0 > a.txt
    PYTHONPATH=src python tests/lp_stream.py bench gurarij-tower --seed 0 > b.txt
    python tests/lp_stream.py compare old.txt new.txt

`build` runs one builder (`gurarij`, `operator`, `poulsen` or `state`)
with keyword arguments given as `name=literal`; `--engine exact` opens
`use_engine("exact")` around it. `bench` runs the first round of a
workload from `bench/workloads.py`. Both wrap `lp._solve_float` and
`lp._solve_exact` and print one line per solve: the engine, a sha256 of
the inputs (c, a_ub, b_ub, a_eq, b_eq with their shapes, each `+ 0.0` so
that -0.0 reads as 0.0, and maximize), a sha256 of the outcome (the
value and `x.tobytes()`, or the name of the exception raised) and the
fraisse call path that asked for it. The artifact's content hash, or the
round's digest, goes to stderr with the number of float solves that each
closed form in front of HiGHS served, by its name in
`lp.L1_CLOSED_FORMS`.

`compare` checks that the second stream is the first one in the same
order with some solves left out, matching each solve on its engine, its
input digest and its outcome digest, so every kept solve is shown to
give the same answer bit for bit. It tallies the left-out solves by the
innermost `chains` function of their call path, and exits 1 when the
second stream is not such a subsequence.

The BLAS/OpenMP pools are pinned to one thread before numpy loads, as
`bench/run.py` pins them, so that a `bench` stream reads what a benchmark
round solves.

pytest does not collect this file: its name does not start with `test_`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BUILDERS = {
    "gurarij": ("chains", "build_gurarij_chain"),
    "operator": ("universal", "build_universal_operator_chain"),
    "poulsen": ("unital", "build_poulsen_chain"),
    "state": ("universal", "build_universal_state_chain"),
}


def digest(c, a_ub, b_ub, a_eq, b_eq, maximize):
    h = hashlib.sha256()
    for arr in (c, a_ub, b_ub, a_eq, b_eq):
        arr = np.asarray(arr, dtype=float) + 0.0
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    h.update(b"max" if maximize else b"min")
    return h.hexdigest()


def call_path():
    """The fraisse functions on the stack, outermost first, without fraisse.lp."""
    names = []
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("fraisse.") and module != "fraisse.lp":
            code = frame.f_code  # co_qualname from Python 3.11, co_name before
            names.append(f"{module[len('fraisse.'):]}.{getattr(code, 'co_qualname', code.co_name)}")
        frame = frame.f_back
    return "/".join(reversed(names)) or "-"


def spy(out):
    """Wrap both solvers so that every solve writes its line to out.

    Returns a Counter of the solves of each engine and, under the name
    of each closed form in `lp.L1_CLOSED_FORMS`, of the float solves it
    served; every form is wrapped where the dispatch looks it up, so
    none can be renamed, merged or added without being counted.
    """
    from fraisse import lp

    solves = collections.Counter()

    def wrap(engine, solve):
        def spied(*args):
            result = hashlib.sha256()
            try:
                res = solve(*args)
            except Exception as exc:
                result.update(type(exc).__name__.encode())
                raise
            else:
                result.update(np.float64(res.value).tobytes() + np.asarray(res.x, dtype=float).tobytes())
                return res
            finally:
                out.write(f"{engine} {digest(*args)} {result.hexdigest()} {call_path()}\n")
                solves[engine] += 1

        return spied

    def counted(form):
        def spied(*args):
            solved = form(*args)
            solves[form.__name__] += solved is not None
            return solved

        return spied

    lp._solve_float = wrap("float", lp._solve_float)
    lp._solve_exact = wrap("exact", lp._solve_exact)
    for rows, form in lp.L1_CLOSED_FORMS.items():
        solves[form.__name__] = 0
        lp.L1_CLOSED_FORMS[rows] = counted(form)
    return solves


def served(solves):
    forms = ", ".join(f"{name} {count}" for name, count in solves.items() if name not in ("float", "exact"))
    return f"closed forms served {forms} of {solves['float']} float solves"


def run_build(name, kwargs, engine, solves):
    from fraisse import lp

    module, func = BUILDERS[name]
    build = getattr(importlib.import_module(f"fraisse.{module}"), func)
    with lp.use_engine(engine):
        artifact = build(**kwargs)
    print(f"content hash {artifact.content_hash()}; {served(solves)}", file=sys.stderr)


def run_bench(workload, seed, solves):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    w = workloads.WORKLOADS[workload]
    inputs = w.setup(seed)
    rnd = workloads.Round()
    w.run_round(inputs, rnd)
    print(
        f"round digest {rnd.digest} attempted {rnd.attempted} failed {len(rnd.failures)}; {served(solves)}",
        file=sys.stderr,
    )


def pool_tag(path):
    chain_fns = [p for p in path.split("/") if p.startswith("chains.")]
    return (chain_fns[-1] if chain_fns else path.split("/")[-1]).split(".<locals>")[0]


def compare(old_path, new_path):
    old = Path(old_path).read_text().splitlines()
    new = Path(new_path).read_text().splitlines()
    dropped = collections.Counter()
    i = 0
    for line in new:
        key = line.split()[:3]
        while i < len(old) and old[i].split()[:3] != key:
            dropped[pool_tag(old[i].split()[3])] += 1
            i += 1
        if i == len(old):
            print(f"not a subsequence: {' '.join(key)} has no match in order")
            return 1
        i += 1
    for line in old[i:]:
        dropped[pool_tag(line.split()[3])] += 1
    print(f"{len(new)} of {len(old)} solves kept in order; {sum(dropped.values())} left out")
    for tag, count in dropped.most_common():
        print(f"  {count:6d}  {tag}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    b = sub.add_parser("build")
    b.add_argument("name", choices=sorted(BUILDERS))
    b.add_argument("kwargs", nargs="*", help="name=literal keyword arguments")
    b.add_argument("--engine", choices=("float", "exact"), default=None)
    r = sub.add_parser("bench")
    r.add_argument("workload")
    r.add_argument("--seed", type=int, required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = p.parse_args(argv)
    if args.cmd == "compare":
        return compare(args.old, args.new)
    solves = spy(sys.stdout)
    if args.cmd == "build":
        kwargs = {}
        for item in args.kwargs:
            key, _, value = item.partition("=")
            kwargs[key] = ast.literal_eval(value)
        run_build(args.name, kwargs, args.engine, solves)
    else:
        run_bench(args.workload, args.seed, solves)
    return 0


if __name__ == "__main__":
    sys.exit(main())
