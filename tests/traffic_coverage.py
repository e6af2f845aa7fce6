"""List every statement in src/fraisse that no program path reaches.

    PYTHONPATH=src python tests/traffic_coverage.py

`tests/stmt_coverage.py` runs the Tier-1 suite under its line tracer;
this script runs the program the way its users do, under the same tracer
and with the same statement count:

- each workload of `bench/workloads.py` for seeds 0-2: its setup, one
  round and the round's check;
- the three demos in `demos/`;
- every `fraisse` subcommand, writing into a temporary directory, and
  then `fraisse verify` on each file written, once per LP engine.

Each statement none of them runs is printed as `module:line source`, and
a last line gives the count. Besides input checks and handlers that
ordinary runs never trigger, what it lists is code that only the tests
reach. The list is a report, not a gate: the exit code is 0 once every
run has finished, whatever it lists.

pytest does not collect this file: its name does not start with `test_`.
"""

import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

import stmt_coverage

ROOT = stmt_coverage.ROOT
SEEDS = (0, 1, 2)


def cli_runs(out):
    """The argument lists of the CLI runs, each subcommand at least once."""
    from fraisse.unital import simplex_system, system_to_json

    inputs = Path(out) / "inputs"  # outside the files verify is run on
    inputs.mkdir()
    face = inputs / "face.json"
    face.write_text(json.dumps({"system": system_to_json(simplex_system(3)), "p": [[1, 0, 0]], "y": [0, 1, 0]}))
    biface = inputs / "biface.json"
    biface.write_text(json.dumps({"space": [[1, 0], [0, 1]], "p": [[1, 0]], "x": [0, 1], "y": [0, 1]}))
    return [
        ["build-gurarij", "--seed", "0", "--depth", "2", "--out", out],
        ["build-gurarij", "--seed", "0", "--depth", "3", "--resolution", "0.004", "--out", out],
        ["build-poulsen", "--seed", "0", "--depth", "3", "--out", out],
        ["certify-extension", "--seed", "0", "--depth", "2", "--out", out],
        ["homogeneity", "--seed", "0", "--depth", "2", "--out", out],
        ["universal-op", "--seed", "0", "--depth", "2", "--battery", "2", "--out", out],
        ["universal-state", "--seed", "0", "--depth", "2", "--out", out],
        ["minimality", "--trials", "5"],
        ["minimality", "--d", "4", "--trials", "2"],
        ["matrix-minimality", "--samples", "100", "--out", out],
        ["check-face"],
        ["check-face", "--input", str(face)],
        ["check-biface"],
        ["check-biface", "--input", str(biface)],
        ["--engine", "exact", "minimality", "--trials", "2"],
    ]


def run_program():
    """Run the workloads, demos and CLI runs; return the CLI exit codes.

    Nothing imports fraisse before this runs under the tracer, so its
    module-level statements count as run."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for workload in workloads.WORKLOADS.values():
        for seed in SEEDS:
            inputs = workload.setup(seed)
            workload.check(inputs, workload.run_round(inputs, workloads.Round()))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")

    from fraisse.cli import main

    codes = []
    with tempfile.TemporaryDirectory() as out:
        for argv in cli_runs(out):
            codes.append((argv, main(argv)))
        for path in sorted(Path(out).glob("*.json")):
            for engine in ("float", "exact"):
                argv = ["--engine", engine, "verify", str(path)]
                codes.append((argv, main(argv)))
    return codes


def main():
    with (
        stmt_coverage.tracing(),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        codes = run_program()
    for argv, code in codes:
        print(f"exit {code}: fraisse {' '.join(argv)}")
    missing, total = stmt_coverage.unrun()
    for line in missing:
        print(line)
    print(f"{len(missing)} of {total} statements in src/fraisse no program path runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
