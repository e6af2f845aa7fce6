"""Command line front end.

Every subcommand prints one line per check and exits 0 when everything
passed, 1 when at least one check produced a negative certificate, and 2
on configuration or resource errors (argparse uses 2 natively). Builds
require an explicit seed and write their artifact as JSON named by a
prefix of the content hash, so reruns with the same inputs land on the
same file. --engine opens a `use_engine` scope around the command, so
every LP it solves, `verify` included, runs on that engine; without it
the float engine runs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import chains, spaces, trace_states, unital, universal
from .certify import Certificate, canonical_dumps, content_hash, modulus_from_json, verify_certificate
from .chains import ResourceLimitError
from .lp import LPError, use_engine


def _write_artifact(out_dir, kind, data):
    text = canonical_dumps(data)
    name = f"{kind}-{content_hash(text)[:12]}.json"
    path = os.path.join(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _report(cert):
    print(cert.summary_line())
    return cert.passed


def _cmd_build_gurarij(args):
    chain = chains.build_gurarij_chain(
        depth=args.depth,
        dim_cap=args.dim_cap,
        net_resolution=args.resolution,
        seed=args.seed,
    )
    modulus = modulus_from_json(chain.params["modulus"])
    ok = True
    for rec in chain.records:
        defect = float(rec["defect"])
        bound = modulus(float(rec["delta"]))
        line_ok = defect <= bound + 1e-7
        ok = ok and line_ok
        print(
            f"[{'pass' if line_ok else 'FAIL'}] stage {rec['resolved_stage']} {rec['mode']}: "
            f"defect {defect:.3e} vs bound {bound:.3e}"
        )
    path = _write_artifact(args.out, "gurarij", chain.to_json())
    print(f"stages {[s.dim for s in chain.stages]}")
    print(f"artifact {path}")
    return 0 if ok else 1


def _cmd_build_poulsen(args):
    chain = unital.build_poulsen_chain(
        depth=args.depth, targets_per_step=args.targets_per_step, seed=args.seed
    )
    ok = True
    for rec in chain.records:
        margin = min(float(v) for v in rec["margins"])
        line_ok = margin > 0.0
        ok = ok and line_ok
        print(
            f"[{'pass' if line_ok else 'FAIL'}] stage {rec['stage']}: "
            f"new extreme row margin {margin:.3e}, cover radius {float(rec['cover_radius']):.3e}"
        )
    path = _write_artifact(args.out, "poulsen", chain.to_json())
    print(f"stages {[s.dim for s in chain.stages]}")
    print(f"artifact {path}")
    return 0 if ok else 1


def _cmd_certify_extension(args):
    chain = chains.build_gurarij_chain(depth=args.depth, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    src = spaces.LinfSpace(1)
    k = chain.depth - 1
    stage = chain.stages[k]
    col = rng.normal(size=stage.dim)
    col = col / stage.norm(col)
    f = spaces.LinearMap(src, stage, col.reshape(-1, 1))
    phi = spaces.LinearMap(src, spaces.LinfSpace(2), np.array([[1.0], [0.0]]))
    res = chains.certify_extension(chain, phi, f, k, delta=args.delta)
    f_top = chain.connecting(k, res.stage) @ f
    cert = res.certificate(phi, f_top)
    ok = _report(cert)
    print(f"mode {res.mode}, distortion {res.distortion:.3e}")
    if args.out:
        path = _write_artifact(args.out, "extension-cert", cert.to_json())
        print(f"certificate {path}")
    return 0 if ok else 1


def _cmd_homogeneity(args):
    chain = chains.build_gurarij_chain(depth=args.depth, seed=args.seed)
    rng = np.random.default_rng(args.seed + 7)
    src = spaces.LinfSpace(2)
    k = chain.depth
    stage = chain.top
    mats = []
    for _ in range(2):
        # perturbed signed coordinate injection, with the noise halved until the
        # distortion really is under delta (the gaussian tail has no a priori bound)
        cols = rng.choice(stage.dim, size=2, replace=False)
        base = np.zeros((stage.dim, 2))
        for j, i in enumerate(cols):
            base[i, j] = rng.choice([-1.0, 1.0])
        noise = rng.normal(size=base.shape)
        scale = args.delta / 4.0
        while True:
            m = base + scale * noise
            f = spaces.LinearMap(src, stage, m)
            nrm = max(f.op_norm(), 1.0)
            f = spaces.LinearMap(src, stage, m / nrm)
            if scale == 0.0 or f.distortion() <= 0.9 * args.delta:
                break
            scale /= 2.0
        mats.append(f)
    res = chains.back_and_forth(
        chain, mats[0], k, mats[1], k, delta=args.delta, rounds=args.rounds
    )
    cert = res.certificate(mats[0], mats[1], spaces.BANACH, args.delta)
    ok = _report(cert)
    print("trace " + " ".join(f"{v:.4f}" for v in res.trace))
    if args.out:
        path = _write_artifact(args.out, "homogeneity-cert", cert.to_json())
        print(f"certificate {path}")
    return 0 if ok else 1


def _cmd_universal_op(args):
    chain = universal.build_universal_operator_chain(
        depth=args.depth, seed=args.seed
    )
    ok = True
    for rec in chain.records:
        sq = float(rec["square_defect"])
        line_ok = sq <= universal.SQUARE_TOL
        ok = ok and line_ok
        print(
            f"[{'pass' if line_ok else 'FAIL'}] stage {rec['stage']} {rec['mode']}: "
            f"square defect {sq:.3e}, template defect {float(rec['defect']):.3e}"
        )
    sd = universal.surjectivity_defect(chain, probes=20, base_stage=1, seed=args.seed)
    mono = all(sd[i + 1] <= sd[i] + 1e-9 for i in range(len(sd) - 1))
    ok = ok and mono
    print(f"[{'pass' if mono else 'FAIL'}] image distances {' '.join(f'{v:.4f}' for v in sd)}")
    items = universal.generate_operator_battery(chain, count=args.battery, eps=args.eps)
    for it in items:
        res = universal.check_universal_operator_property(
            chain, it["l"], args.eps, hints=[it["hint"]]
        )
        ok = ok and res.passed
        print(
            f"[{'pass' if res.passed else 'FAIL'}] battery {it['tag']}: defect {res.defect:.3e} "
            f"distortions ({res.dist0:.3e}, {res.dist1:.3e})"
        )
    path = _write_artifact(args.out, "universal-op", chain.to_json())
    print(f"artifact {path}")
    return 0 if ok else 1


def _cmd_universal_state(args):
    sc = universal.build_universal_state_chain(depth=args.depth, seed=args.seed)
    ok = True
    for k in range(sc.depth):
        defect = sc.compatibility_defect(k)
        line_ok = defect <= 1e-9
        ok = ok and line_ok
        print(f"[{'pass' if line_ok else 'FAIL'}] step {k}: state compatibility {defect:.3e}")
    rng = np.random.default_rng(args.seed + 3)
    for n in (2, 3):
        sigma = rng.dirichlet(np.ones(n))
        res = universal.check_universal_state_property(
            sc, unital.simplex_system(n), sigma, eps=args.eps
        )
        ok = ok and res.passed
        print(
            f"[{'pass' if res.passed else 'FAIL'}] absorb simplex-{n} state: "
            f"pullback {res.defect:.3e} distortion {res.dist0:.3e}"
        )
    path = _write_artifact(args.out, "universal-state", sc.to_json())
    print(f"artifact {path}")
    return 0 if ok else 1


def _cmd_minimality(args):
    rng = np.random.default_rng(args.seed)
    eta = args.eps / (2.0 * args.d)
    m = int(np.ceil(1.0 / eta)) + args.d
    ok = True
    worst = 0.0
    for _ in range(args.trials):
        s = rng.dirichlet(np.ones(args.d))
        t = rng.dirichlet(np.ones(m))
        res = unital.minimality_map(s, t, eps=args.eps)
        worst = max(worst, res.defect)
        ok = ok and res.certificate.passed
    print(
        f"[{'pass' if ok else 'FAIL'}] {args.trials} trials, d={args.d} m={m}: "
        f"worst pullback defect {worst:.3e} vs eps {args.eps:.3e}"
    )
    return 0 if ok else 1


def _cmd_matrix_minimality(args):
    if not args.eps > 0:
        raise ValueError(f"--eps must be positive, got {args.eps}")
    rng = np.random.default_rng(args.seed)
    ell = int(np.ceil(16.0 / args.eps))
    fam = trace_states.projector_family(args.d)
    k = ell * len(fam) + 1
    s = trace_states.MatrixState(trace_states.random_density(args.d * k, rng))
    t = trace_states.MatrixState(trace_states.random_density(args.d, rng))
    res = trace_states.minimal_embedding(s, t, ell=ell, seed=args.seed, samples=args.samples)
    ok = _report(res.certificate)
    gap = trace_states.embedding_checks(res, s)
    print(
        f"block {res.certificate.payload['block_index']}: norm {res.block_norm:.3e} "
        f"trace {res.block_trace:.3e}, formula gap {gap:.3e}, k={k}"
    )
    if args.out:
        path = _write_artifact(args.out, "matrix-cert", res.certificate.to_json())
        print(f"certificate {path}")
    return 0 if ok else 1


def _cmd_check_face(args):
    if args.input:
        with open(args.input) as fh:
            data = json.load(fh)
        system = unital.system_from_json(data["system"])
        p = np.array(data["p"], dtype=float)
        y = np.array(data["y"], dtype=float)
    else:
        system = unital.simplex_system(3)
        p = np.array([[1.0, 0.0, 0.0]])
        y = np.array([0.0, 1.0, 0.0])
    res = unital.facial_quotient_check(system, p, y, eps=args.eps)
    ok = _report(res.certificate())
    return 0 if ok else 1


def _cmd_check_biface(args):
    if args.input:
        with open(args.input) as fh:
            data = json.load(fh)
        space = spaces.NormedSpace(np.array(data["space"], dtype=float))
        p = np.array(data["p"], dtype=float)
        x = np.array(data["x"], dtype=float)
        y = np.array(data["y"], dtype=float)
    else:
        space = spaces.LinfSpace(4)
        p = np.hstack([np.eye(2), np.zeros((2, 2))])
        x = np.array([0.0, 0.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 0.0, 1.0])
    res = unital.biface_check(space, p, x, y, eps=args.eps)
    ok = _report(res.certificate())
    return 0 if ok else 1


def _cmd_verify(args):
    with open(args.certificate) as fh:
        cert = Certificate.from_json(json.load(fh))
    faithful, recomputed = verify_certificate(cert)
    status = faithful and cert.passed
    print(
        f"[{'pass' if status else 'FAIL'}] {cert.claim}: stored {cert.measured:.6e} "
        f"recomputed {recomputed:.6e} bound {cert.bound:.6e} faithful {faithful}"
    )
    return 0 if status else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="fraisse")
    parser.add_argument("--engine", choices=["float", "exact"], default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-gurarij", help="grow the almost-homogeneous sup-norm tower")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim-cap", type=int, default=12)
    p.add_argument("--resolution", type=float, default=0.25)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_build_gurarij)

    p = sub.add_parser("build-poulsen", help="grow the dense-boundary function system tower")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--targets-per-step", type=int, default=1)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_build_poulsen)

    p = sub.add_parser("certify-extension", help="extend one embedding up the tower")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify_extension)

    p = sub.add_parser("homogeneity", help="couple two embeddings by alternating extensions")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_homogeneity)

    p = sub.add_parser("universal-op", help="grow the absorbing operator tower and test it")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--battery", type=int, default=10)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_universal_op)

    p = sub.add_parser("universal-state", help="grow the compatible state tower and test it")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_universal_state)

    p = sub.add_parser("minimality", help="pull a big simplex state back onto a small one")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_minimality)

    p = sub.add_parser("matrix-minimality", help="light-block embedding of a qubit algebra")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_matrix_minimality)

    p = sub.add_parser("check-face", help="order-side quotient check for a projection")
    p.add_argument("--input", default=None)
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(func=_cmd_check_face)

    p = sub.add_parser("check-biface", help="two-ball quotient check for a projection")
    p.add_argument("--input", default=None)
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(func=_cmd_check_biface)

    p = sub.add_parser("verify", help="recompute a certificate's measured value")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with use_engine(args.engine):
            return args.func(args)
    except (ResourceLimitError, LPError, ValueError, KeyError, OSError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
