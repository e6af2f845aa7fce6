"""The fraisse benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload gurarij-tower --seed 0 --seconds 10 --trace 0

Runs whole rounds of the workload until `--seconds` of timed work have
passed, checks the outputs, and prints one JSON object as its last line:
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` untraced and traced
rounds alternate and the metrics are the per-layer ones. See README.md.

Everything runs in this process and on one thread: the BLAS/OpenMP pools
are pinned to one thread before numpy loads. Only `setup_s` looks at
other processes: it is the median over fresh interpreters that each set
the workload up and exit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("gurarij-tower", "homogeneity", "operator-tower", "state-minimality")
SETUP_SAMPLES = 11
MIN_VERIFICATIONS = 40  # verify_ms_p75 needs ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def timed_setup(args):
    """Seconds from starting a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process exited with {child.returncode}")
    return ready


def quantile(values, q):
    values = sorted(values)
    if not values:
        return float("nan")
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def run_rounds(workload, inputs, seconds, tracer, sample_setup=None):
    """Whole rounds until `seconds` of timed work (and enough certificates).

    Traced runs alternate untraced and traced rounds, starting untraced.
    Only the first round's outputs are kept for the checks; every round
    keeps its figures and output digest. `sample_setup`, when given, is
    called SETUP_SAMPLES times between rounds, in step with the timed work:
    the host's speed drifts over tens of seconds, and spreading the samples
    makes the rounds span the whole run instead of its last part.
    """
    from workloads import Round

    rounds, first_out, samples = [], None, []
    timed = 0.0
    while True:
        while sample_setup and len(samples) < SETUP_SAMPLES * min(1.0, timed / seconds):
            samples.append(sample_setup())
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        rnd = Round()
        t0 = time.perf_counter()
        try:
            out = workload.run_round(inputs, rnd)
        finally:
            rnd.wall_s = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        rnd.traced = traced
        if traced:
            rnd.layers = tracer.round_metrics()
            rnd.lp_durations = tracer.lp_durations
            rnd.lp_sizes = tracer.lp_sizes
            rnd.build_lps = tracer.stat("chains.build_gurarij_chain")[3]
        if first_out is None:
            first_out = out
        rounds.append(rnd)
        out = None
        timed += rnd.wall_s
        if timed < seconds:
            continue
        if tracer is not None and len(rounds) >= 2:
            break
        if tracer is None and sum(len(r.verify_ms) for r in rounds) >= MIN_VERIFICATIONS:
            break
    while sample_setup and len(samples) < SETUP_SAMPLES:
        samples.append(sample_setup())
    return rounds, first_out, samples


def end_to_end(rounds, setup_samples):
    plain = [r for r in rounds if not r.traced]
    ops = [v for r in plain for v in r.op_ms]
    verify = [v for r in plain for v in r.verify_ms]
    return {
        "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_ms_p50": (quantile(ops, 0.5), "ms"),
        "verify_ms_p50": (quantile(verify, 0.5), "ms"),
        "verify_ms_p75": (quantile(verify, 0.75), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_ROUND_UNITS = {"calls": "count", "lps": "count", "solves": "count", "repeat": "count",
                   "infeasible": "count", "errors": "count"}


def per_layer(rounds):
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    metrics = {}
    for name in traced[0].layers:
        value = statistics.fmean(r.layers[name] for r in traced)
        metrics[name] = (value, PER_ROUND_UNITS.get(name.rsplit(".", 1)[-1], "s"))
    durations = [d for r in traced for d in r.lp_durations]
    metrics["lp.solve_us_p50"] = (quantile(durations, 0.5) * 1e6, "us")
    metrics["lp.solve_us_p90"] = (quantile(durations, 0.9) * 1e6, "us")
    build_lps = statistics.fmean(r.build_lps for r in traced)
    records = statistics.fmean(r.records for r in traced)
    metrics["chains.records_per_klp"] = (1000.0 * records / build_lps if build_lps else 0.0, "count")
    metrics["certify.roundtrip_us_p50"] = (quantile([v for r in traced for v in r.roundtrip_us], 0.5), "us")
    metrics["certify.cert_bytes_p50"] = (quantile([v for r in traced for v in r.cert_bytes], 0.5), "bytes")
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def lp_size_summary(rounds):
    """Variables per LP in the first traced round: quantiles and a power-of-two histogram."""
    traced = [r for r in rounds if r.traced]
    if not traced:
        return {}
    sizes = traced[0].lp_sizes
    hist = collections.Counter(2 ** (n - 1).bit_length() for n in sizes)
    return {
        "p50": quantile(sizes, 0.5),
        "p90": quantile(sizes, 0.9),
        "max": max(sizes, default=0),
        "at_most": {str(k): hist[k] for k in sorted(hist)},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fraisse" / "__init__.py").is_file():
        print(f"error: no fraisse sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    tracer = Tracer() if args.trace else None
    sample_setup = None if args.trace else lambda: timed_setup(args)
    rounds, first_out, setup_samples = run_rounds(workload, inputs, args.seconds, tracer, sample_setup)

    # Every round repeats the same operations and must leave the same digest,
    # so the counts are those of the first round: the same in every run,
    # however many rounds fit in `--seconds`.
    problems = workload.check(inputs, first_out) if first_out is not None else [("round", "no output")]
    first = rounds[0]
    failed_ops = {op for op, _, _ in first.failures}
    bad_ops = {op for op, _ in problems} - failed_ops
    unknown = [f for r in rounds for f in r.failures if not f[2]]
    attempted = first.attempted
    failed = len(first.failures) + len(bad_ops)
    same = all(r.digest == first.digest and r.attempted == first.attempted for r in rounds)
    correct = not problems and not unknown and same

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setup_samples)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_samples_s=setup_samples,
        rounds=[{"wall_s": r.wall_s, "traced": r.traced, "attempted": r.attempted, "digest": r.digest,
                 "failures": r.failures} for r in rounds],
        problems=problems,
        lp_vars=lp_size_summary(rounds),
    )
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    for op, msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for op, msg, known in sorted({f for r in rounds for f in r.failures}):
        print(f"{'known fault' if known else 'FAILED'}: {op}: {msg}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
