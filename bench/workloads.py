"""The four benchmark workloads: seeded inputs, one timed round, the checks.

A workload's `setup(seed)` makes every input the round needs (and loads
the fixed homogeneity tower), `run_round` does the timed work and records
it in a `Round`, and `check` tests the first round's outputs with the
independent routes in `checks.py`. Every round of a run repeats the same
operations on the same inputs, so rounds must produce identical outputs;
`Round.digest` is what the runner compares.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from fraisse import certify, chains, lp, spaces, trace_states, unital, universal

import checks

FIXTURE = Path(__file__).resolve().parent / "data" / "homogeneity.json"


class Round:
    """What one round did: latencies, certificate figures, failures, digest."""

    def __init__(self):
        self.op_ms = []
        self.verify_ms = []
        self.roundtrip_us = []
        self.cert_bytes = []
        self.attempted = 0
        self.failures = []  # (operation, message, known fault)
        self.records = 0
        self._digest = hashlib.sha256()

    @property
    def digest(self):
        return self._digest.hexdigest()

    def note(self, text):
        self._digest.update(str(text).encode())
        self._digest.update(b"\0")

    def attempt(self, op, fn, timed=False, known_fault=None):
        """Run one operation; a raised exception makes it a failed one.

        Operations are the unit of `attempted`/`failed`; any exception is
        recorded with its type and message rather than ending the run.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # every failure is counted, and reported by type
            known = known_fault is not None and known_fault(exc)
            self.failures.append((op, f"{type(exc).__name__}: {exc}", known))
            self.note(f"{op} failed with {type(exc).__name__}")
            return None
        if timed:
            self.op_ms.append((time.perf_counter() - t0) * 1e3)
        return out

    def certify(self, op, make_cert):
        """Make one certificate, round-trip it through canonical JSON and verify it.

        An exception on the way fails `op`, the operation that owns the
        certificate, and returns None.
        """
        try:
            cert = make_cert()
            t0 = time.perf_counter()
            text = certify.canonical_dumps(cert.to_json())
            back = certify.Certificate.from_json(json.loads(text))
            t1 = time.perf_counter()
            faithful, _ = certify.verify_certificate(back)
            t2 = time.perf_counter()
        except Exception as exc:  # counted like a failed operation
            self.failures.append((op, f"{type(exc).__name__}: {exc}", False))
            self.note(f"{op} certificate failed with {type(exc).__name__}")
            return None
        self.roundtrip_us.append((t1 - t0) * 1e6)
        self.verify_ms.append((t2 - t0) * 1e3)
        self.cert_bytes.append(len(text))
        self.note(text)
        return back, faithful


# ---------------------------------------------------------------------------


class GurarijTower:
    """Build the depth-5 approximation tower, audit it, certify extensions."""

    name = "gurarij-tower"
    depth, dim_cap, resolution = 5, 12, 0.25
    problems = 16
    delta = 0.05

    def setup(self, seed):
        # the recipe of `fraisse certify-extension`: unit columns into stage
        # depth-1 from rng(seed + 1); drawn at full width, cut to the stage
        rng = np.random.default_rng(seed + 1)
        return {"seed": seed, "cols": rng.normal(size=(self.problems, self.dim_cap))}

    def run_round(self, inp, rnd):
        chain = rnd.attempt(
            "build",
            lambda: chains.build_gurarij_chain(
                depth=self.depth, dim_cap=self.dim_cap, net_resolution=self.resolution, seed=inp["seed"]
            ),
        )
        if chain is None:
            return None
        rnd.note(chain.content_hash())
        rnd.records = len(chain.records)
        audits, extensions = [], []

        def audit(i):
            cert = rnd.attempt(f"record {i}", lambda: _record_certificate(chain, chain.records[i]))
            audits.append(None if cert is None else rnd.certify(f"record {i}", lambda: cert))

        k = chain.depth - 1
        stage = chain.stages[k]
        src = spaces.LinfSpace(1)
        phi = spaces.LinearMap(src, spaces.LinfSpace(2), np.array([[1.0], [0.0]]))
        # record audits are spread between the extension problems, so that
        # the verification timings sample the whole post-build part of the
        # round and not one sub-second burst of it
        per_problem = -(-len(chain.records) // len(inp["cols"]))
        for i, col in enumerate(inp["cols"]):
            for r in range(i * per_problem, min((i + 1) * per_problem, len(chain.records))):
                audit(r)
            col = col[: stage.dim] / stage.norm(col[: stage.dim])
            f = spaces.LinearMap(src, stage, col.reshape(-1, 1))
            res = rnd.attempt(
                f"extension {i}",
                lambda: chains.certify_extension(chain, phi, f, k, delta=self.delta),
                timed=True,
            )
            if res is None:
                extensions.append(None)
                continue
            f_top = chain.connecting(k, res.stage) @ f
            extensions.append(rnd.certify(f"extension {i}", lambda: res.certificate(phi, f_top)))
        return {"chain": chain, "audits": audits, "extensions": extensions}

    def check(self, inp, out):
        problems = []
        chain = out["chain"]
        for k, stage in enumerate(chain.stages):
            if not checks.is_identity_normed(stage):
                problems.append(("build", f"stage {k} is not identity normed"))
        for k, j in enumerate(chain.connectives):
            problems += checks.linf_isometry_problems("build", f"connective {k}", j.matrix)
        for i, (rec, audit) in enumerate(zip(chain.records, out["audits"])):
            op = f"record {i}"
            if audit is None:
                continue
            cert, faithful = audit
            phi, f, g = (certify.map_from_json(cert.inputs[key]) for key in ("phi", "f", "g"))
            indep = checks.op_norm_small(phi.dom.norming, g.cod.norming, g.matrix @ phi.matrix - f.matrix)
            problems += checks.defect_problems(op, cert.measured, cert.bound, indep)
            problems += checks.verify_problems(op, faithful)
        for i, ext in enumerate(out["extensions"]):
            op = f"extension {i}"
            if ext is None:
                continue
            cert, faithful = ext
            phi, f, g = (certify.map_from_json(cert.inputs[key]) for key in ("phi", "f", "g"))
            indep = checks.op_norm_small(phi.dom.norming, g.cod.norming, g.matrix @ phi.matrix - f.matrix)
            problems += checks.defect_problems(op, cert.measured, cert.bound, indep)
            problems += checks.verify_problems(op, faithful)
        return problems


def _record_certificate(chain, rec):
    """A build record restated as the extension claim it resolves, carried
    to the top stage: connectives are isometries, so the defect is kept."""
    top = chain.depth
    f = certify.map_from_json(rec["f"])
    g = certify.map_from_json(rec["g"])
    f_up = chain.connecting(rec["stage"], top).matrix @ f.matrix
    g_up = chain.connecting(rec["resolved_stage"], top).matrix @ g.matrix
    inputs = {
        "phi": rec["phi"],
        "f": certify.map_to_json(spaces.LinearMap(f.dom, chain.top, f_up)),
        "g": certify.map_to_json(spaces.LinearMap(g.dom, chain.top, g_up)),
        "delta": rec["delta"],
        "modulus": chain.params["modulus"],
        "mode": rec["mode"],
    }
    bound = certify.modulus_from_json(chain.params["modulus"])(certify.parse_real(rec["delta"]))
    return certify.Certificate(
        "extension_defect", inputs, bound, certify.parse_real(rec["defect"]), tol=1e-7
    )


# ---------------------------------------------------------------------------


def _is_residual_fault(exc):
    """The known coupling fault: an LPError from the float engine's residual
    check escapes `back_and_forth`, which catches only LPInfeasible."""
    return (
        isinstance(exc, lp.LPError)
        and not isinstance(exc, (lp.LPInfeasible, lp.LPUnbounded))
        and "residual" in str(exc)
    )


class Homogeneity:
    """Couple the fixed pairs of perturbed embeddings linf^2 -> top."""

    name = "homogeneity"
    delta = 0.05
    baf_rounds = 8  # back-and-forth refinement rounds, as in `fraisse homogeneity`

    def setup(self, seed):
        data = json.loads(FIXTURE.read_text())
        chain = chains.StageChain.from_json(data["tower"])
        if chain.content_hash() != data["tower_hash"]:
            raise SystemExit(
                f"error: the tower in {FIXTURE.name} loads with content hash {chain.content_hash()[:12]}, "
                f"not the stored {data['tower_hash'][:12]}; regenerate it with bench/make_fixture.py"
            )
        src = spaces.LinfSpace(2)
        pairs = [
            tuple(spaces.LinearMap(src, chain.top, certify.parse_matrix(m)) for m in pair)
            for pair in data["pairs"]
        ]
        order = np.random.default_rng(seed).permutation(len(pairs))
        return {"chain": chain, "pairs": pairs, "order": [int(i) for i in order]}

    def run_round(self, inp, rnd):
        chain = inp["chain"]
        top = chain.depth
        couplings = []
        for idx in inp["order"]:
            f, g = inp["pairs"][idx]
            res = rnd.attempt(
                f"pair {idx}",
                lambda: chains.back_and_forth(chain, f, top, g, top, delta=self.delta, rounds=self.baf_rounds),
                timed=True,
                known_fault=_is_residual_fault,
            )
            audit = None if res is None else rnd.certify(
                f"pair {idx}", lambda: res.certificate(f, g, spaces.BANACH, self.delta)
            )
            if audit is not None:
                couplings.append((idx, res) + audit)
        return {"couplings": couplings}

    def check(self, inp, out):
        problems = []
        eye2 = np.eye(2)
        for idx, res, cert, faithful in out["couplings"]:
            op = f"pair {idx}"
            f, g = inp["pairs"][idx]
            problems += checks.contraction_problems(op, "u", res.u.matrix)
            problems += checks.contraction_problems(op, "v", res.v.matrix)
            top_rows = np.eye(f.cod.dim)
            indep = max(
                checks.op_norm_small(eye2, top_rows, res.u.matrix @ f.matrix - g.matrix),
                checks.op_norm_small(eye2, top_rows, res.v.matrix @ g.matrix - f.matrix),
            )
            problems += checks.defect_problems(op, res.defect, res.bound, indep)
            if cert.measured != res.defect:
                problems.append((op, f"{op}: certificate carries {cert.measured!r}, coupling {res.defect!r}"))
            if any(b > a + 1e-12 for a, b in zip(res.trace, res.trace[1:])):
                problems.append((op, f"{op}: trace increases: {res.trace}"))
            problems += checks.verify_problems(op, faithful)
        return problems


# ---------------------------------------------------------------------------


class OperatorTower:
    """Grow the absorbing operator tower, test its battery, absorb states."""

    name = "operator-tower"
    depth = 4
    battery = 6
    eps = 0.2
    state_eps = 0.1

    def setup(self, seed):
        # the recipes of `fraisse universal-op` and `fraisse universal-state`
        rng = np.random.default_rng(seed + 3)
        return {"seed": seed, "sigmas": [(n, rng.dirichlet(np.ones(n))) for n in (2, 3)]}

    def run_round(self, inp, rnd):
        seed = inp["seed"]
        out = {"battery": [], "states": []}
        chain = rnd.attempt("build", lambda: universal.build_universal_operator_chain(depth=self.depth, seed=seed))
        if chain is not None:
            out["chain"] = chain
            rnd.note(chain.content_hash())
            sd = rnd.attempt(
                "surjectivity",
                lambda: universal.surjectivity_defect(chain, probes=20, base_stage=1, seed=seed),
            )
            out["surjectivity"] = sd
            rnd.note(sd)
            items = rnd.attempt(
                "battery", lambda: universal.generate_operator_battery(chain, count=self.battery, eps=self.eps)
            )
            for it in items or []:
                res = rnd.attempt(
                    f"check {it['tag']}",
                    lambda: universal.check_universal_operator_property(
                        chain, it["l"], self.eps, hints=[it["hint"]]
                    ),
                    timed=True,
                )
                audit = None if res is None else rnd.certify(
                    f"check {it['tag']}", lambda: res.certificate(it["l"], chain.top.t)
                )
                if audit is not None:
                    out["battery"].append((it, res, audit[1]))
        sc = rnd.attempt("state tower", lambda: universal.build_universal_state_chain(depth=self.depth, seed=seed))
        if sc is not None:
            out["state_chain"] = sc
            rnd.note(sc.content_hash())
            for n, sigma in inp["sigmas"]:
                res = rnd.attempt(
                    f"absorb simplex-{n}",
                    lambda: universal.check_universal_state_property(
                        sc, unital.simplex_system(n), sigma, eps=self.state_eps
                    ),
                )
                audit = None if res is None else rnd.certify(f"absorb simplex-{n}", lambda: res.state_certificate)
                if audit is not None:
                    out["states"].append((n, sigma, res, audit[1]))
        return out

    def check(self, inp, out):
        problems = []
        chain = out.get("chain")
        if chain is not None:
            for k, st in enumerate(chain.stages):
                if not (checks.is_identity_normed(st.t.dom) and checks.is_identity_normed(st.t.cod)):
                    problems.append(("build", f"stage {k} is not between identity-normed spaces"))
            for k, conn in enumerate(chain.connectives):
                problems += checks.linf_isometry_problems("build", f"connective {k} a0", conn.a0.matrix)
                problems += checks.linf_isometry_problems("build", f"connective {k} a1", conn.a1.matrix)
                square = (
                    chain.stages[k + 1].t.matrix @ conn.a0.matrix - conn.a1.matrix @ chain.stages[k].t.matrix
                )
                if checks.linf_row_sum(square) > universal.SQUARE_TOL:
                    problems.append(("build", f"connective {k} square defect {checks.linf_row_sum(square):.3e}"))
            problems += self._record_problems(chain)
        sd = out.get("surjectivity")
        if sd is not None and any(b > a + 1e-9 for a, b in zip(sd, sd[1:])):
            problems.append(("surjectivity", f"image distances increase: {sd}"))
        for it, res, faithful in out["battery"]:
            op = f"check {it['tag']}"
            t_map, l_map = chain.top.t, it["l"]
            diff = t_map.matrix @ res.alpha0.matrix - res.alpha1.matrix @ l_map.matrix
            indep = checks.op_norm_small(l_map.dom.norming, t_map.cod.norming, diff)
            problems += checks.defect_problems(op, res.defect, self.eps, indep)
            problems += checks.contraction_problems(op, "alpha0", res.alpha0.matrix)
            problems += checks.contraction_problems(op, "alpha1", res.alpha1.matrix)
            if not res.passed:
                problems.append((op, f"{op}: absorption check did not pass"))
            problems += checks.verify_problems(op, faithful)
        sc = out.get("state_chain")
        if sc is not None:
            for k, j in enumerate(sc.chain.connectives):
                gap = float(np.max(np.abs(sc.states[k + 1] @ j.matrix - sc.states[k])))
                if gap > 1e-12:
                    problems.append(("state tower", f"state {k} is not compatible: gap {gap:.3e}"))
        for n, sigma, res, faithful in out["states"]:
            op = f"absorb simplex-{n}"
            stage_state = sc.states[sc.depth]
            indep = float(np.sum(np.abs(stage_state @ res.alpha0.matrix - sigma)))
            problems += checks.defect_problems(op, res.defect, self.state_eps, indep)
            if not res.passed:
                problems.append((op, f"{op}: state absorption did not pass"))
            problems += checks.verify_problems(op, faithful)
        return problems

    @staticmethod
    def _record_problems(chain):
        """Each folded template, rebuilt from its record, against its witness.

        The template's legs are coordinate inclusions out of linf^1 and its
        anchor is column `anchor` of the previous stage (scaled by 1/c on the
        codomain side), so both squares' defects are column maxima.
        """
        problems = []
        delta = certify.parse_real(chain.params["delta"])
        for rec in chain.records:
            if rec["mode"] != "amalgam":
                continue
            k, i = rec["stage"], rec["anchor"]
            prev, conn = chain.stages[k - 1], chain.connectives[k - 1]
            w0, w1 = certify.parse_matrix(rec["witness_a0"]), certify.parse_matrix(rec["witness_a1"])
            f1 = prev.t.matrix[:, i] / certify.parse_real(rec["scale"])
            d0 = w0[:, 0] - conn.a0.matrix[:, i]
            d1 = w1[:, 0] - conn.a1.matrix @ f1
            indep = max(float(np.max(np.abs(d0))), float(np.max(np.abs(d1))))
            # arrow pushout bound: modulus(delta) + 2 delta, banach modulus
            problems += checks.defect_problems("build", certify.parse_real(rec["defect"]), 3.0 * delta, indep)
        return problems


# ---------------------------------------------------------------------------


class StateMinimality:
    """Poulsen tower, simplex minimality maps and matrix light-block embeddings."""

    name = "state-minimality"
    depth = 5
    # simplex certificates verify in about 0.6 ms and matrix ones in about
    # 50 ms; these counts keep verify_ms_p50 inside the first group and put
    # verify_ms_p75 near the middle of the second, away from the edge
    simplex_trials, simplex_d, simplex_eps = 22, 2, 0.5
    matrix_trials, matrix_d, matrix_eps, samples = 18, 2, 1.0, 1000

    def setup(self, seed):
        # the recipes of `fraisse minimality` and `fraisse matrix-minimality`
        rng = np.random.default_rng(seed)
        eta = self.simplex_eps / (2.0 * self.simplex_d)
        m = int(np.ceil(1.0 / eta)) + self.simplex_d
        simplex = [
            (rng.dirichlet(np.ones(self.simplex_d)), rng.dirichlet(np.ones(m)))
            for _ in range(self.simplex_trials)
        ]
        ell = int(np.ceil(16.0 / self.matrix_eps))
        k = ell * len(checks.qubit_projectors()) + 1
        matrix = [
            (
                trace_states.MatrixState(trace_states.random_density(self.matrix_d * k, rng)),
                trace_states.MatrixState(trace_states.random_density(self.matrix_d, rng)),
            )
            for _ in range(self.matrix_trials)
        ]
        return {"seed": seed, "simplex": simplex, "matrix": matrix, "ell": ell}

    def run_round(self, inp, rnd):
        seed = inp["seed"]
        out = {"simplex": [], "matrix": []}
        chain = rnd.attempt("build", lambda: unital.build_poulsen_chain(depth=self.depth, seed=seed))
        if chain is not None:
            out["chain"] = chain
            rnd.note(chain.content_hash())
        for i, (s, t) in enumerate(inp["simplex"]):
            res = rnd.attempt(f"simplex {i}", lambda: unital.minimality_map(s, t, eps=self.simplex_eps))
            audit = None if res is None else rnd.certify(f"simplex {i}", lambda: res.certificate)
            if audit is not None:
                out["simplex"].append((i, res, audit[1]))
        for i, (s_state, t_state) in enumerate(inp["matrix"]):
            res = rnd.attempt(
                f"matrix {i}",
                lambda: trace_states.minimal_embedding(
                    s_state, t_state, ell=inp["ell"], seed=seed, samples=self.samples
                ),
                timed=True,
            )
            audit = None if res is None else rnd.certify(f"matrix {i}", lambda: res.certificate)
            if audit is not None:
                out["matrix"].append((i, res, audit[1]))
        return out

    def check(self, inp, out):
        problems = []
        chain = out.get("chain")
        if chain is not None:
            for rec in chain.records:
                if min(certify.parse_real(v) for v in rec["margins"]) <= 0.0:
                    problems.append(("build", f"stage {rec['stage']}: new row is not extreme"))
            for k, j in enumerate(chain.connectives):
                gap = float(np.max(np.abs(j.matrix @ chain.stages[k].unit - chain.stages[k + 1].unit)))
                if gap > 1e-12:
                    problems.append(("build", f"connective {k} is not unital: gap {gap:.3e}"))
        for i, res, faithful in out["simplex"]:
            op = f"simplex {i}"
            s, t = inp["simplex"][i]
            phi = res.phi.matrix
            indep = float(np.sum(np.abs(t @ phi - s)))
            problems += checks.defect_problems(op, res.defect, self.simplex_eps, indep)
            if np.min(phi) < 0.0 or np.max(np.abs(phi.sum(axis=1) - 1.0)) > 1e-12:
                problems.append((op, f"{op}: the map is not unital and positive"))
            problems += checks.verify_problems(op, faithful)
        family = checks.qubit_projectors()
        ell = inp["ell"]
        for i, res, faithful in out["matrix"]:
            op = f"matrix {i}"
            s_state, _ = inp["matrix"][i]
            d = self.matrix_d
            j = res.embedding.block_index
            block = s_state.density.matrix[j * d : (j + 1) * d, j * d : (j + 1) * d]
            if not np.array_equal(block, res.block):
                problems.append((op, f"{op}: reported block differs from block {j} of the density matrix"))
            worst = max(float(np.trace(block @ p).real) for p in family)
            if worst >= 1.0 / ell:
                problems.append((op, f"{op}: block {j} tests at {worst:.6e} >= 1/ell"))
            cert = res.certificate
            if cert.measured > cert.bound + cert.tol:
                problems.append((op, f"{op}: sampled defect {cert.measured:.6e} over bound {cert.bound:.6e}"))
            problems += checks.verify_problems(op, faithful)
        return problems


WORKLOADS = {w.name: w for w in (GurarijTower(), Homogeneity(), OperatorTower(), StateMinimality())}
