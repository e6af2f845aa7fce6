"""Finite stage chains with almost-injective extension properties.

A chain is a finite tower of identity-normed stages glued by exact
isometries. The builder schedules extension obligations drawn from a
seeded pool of small test spaces and a net of candidate maps, resolves a
budgeted subset by near-amalgamation (which grows the stage and makes the
resolving map an exact isometry) and the rest by morphism extension
(which keeps the stage fixed and guarantees the defect bound but only
measures the resolving map's distortion). Every resolution is recorded
with its promised delta, the measured defect, and the measured
distortion, so the chain ships with its own audit trail. Builds are
deterministic given the seed and carry a content hash over the full
serialized tower.
"""

import itertools

import numpy as np

from .certify import (
    MAP,
    SPACE,
    Claim,
    canonical_dumps,
    content_hash,
    fmt_real,
    map_from_json,
    map_to_json,
    modulus_from_json,
    modulus_to_json,
    space_from_json,
    space_to_json,
)
from .lp import LPBuilder, LPInfeasible, solve_lp
from .spaces import (
    BANACH,
    LinearMap,
    LinfSpace,
    NormedSpace,
    embed_linf,
    extend_morphism,
    map_dist,
    morphism_distortion,
)
from .amalgam import nap_amalgamate

POLYTOPE_SOURCES = 2  # random polytope norms in the builder's source pool
PHI_PERTURBATION = 0.15  # entry scale of the perturbed almost-embedding per source
F_PER_PAIR = 2  # candidate maps per source beyond the padded presentation isometry
SIGNED_PERMS = 2  # signed-permutation twists of the presentation isometry per source
SLACK = 0.1  # certified bound of extensions and couplings: modulus(delta) + SLACK
START_DIM = 1  # dimension of the Gurarij tower's first stage, linf^START_DIM
NET_CAP = 400  # most members of a morphism net behind a candidate pool


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a declared resource cap."""


# ---------------------------------------------------------------------------
# morphism nets


class MorphismNet:
    """A finite family of candidate contractions source -> target.

    certified means every contraction is within resolution (operator
    distance) of some member; a sampled net only promises the members it
    has.
    """

    def __init__(self, source, target, members, resolution, certified, total, seed):
        self.source = source
        self.target = target
        self.members = members
        self.resolution = resolution
        self.certified = certified
        self.total = total
        self.seed = seed

    def __len__(self):
        return len(self.members)

    def maps(self):
        return [LinearMap(self.source, self.target, m) for m in self.members]


def _row_grid(source, pitch, resolution):
    """Per-coordinate grids for one target row of a contraction matrix.

    A functional row r on the source has |r_j| <= ||e_j||_source on the
    dual unit ball, widened by the resolution slack.
    """
    grids = []
    for j in range(source.dim):
        b = source.norm(np.eye(source.dim)[j]) * (1.0 + resolution)
        steps = int(np.floor(b / pitch))
        grids.append(np.arange(-steps, steps + 1) * pitch)
    return grids


def build_morphism_net(source, target, resolution, cap=2000, seed=0, require_certified=False):
    """Grid net over the contractions source -> target.

    Rows are gridded independently with pitch
    resolution / (dim_s * dim_t * C * D), C the largest dual norm of a
    source coordinate functional, D the largest target norm of a basis
    vector; entrywise rounding of any contraction then moves it by at
    most resolution/2 and keeps every row in the widened dual ball, so a
    fully enumerated net is certified to resolution. When enumeration
    would exceed cap the net falls back to seeded sampling and says so,
    unless require_certified insists, in which case the needed cardinality
    is reported in the error.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    eye_s = np.eye(source.dim)
    eye_t = np.eye(target.dim)
    c = max(source.dual_norm(eye_s[j]) for j in range(source.dim))
    d = max(target.norm(eye_t[i]) for i in range(target.dim))
    pitch = resolution / (source.dim * target.dim * c * d)
    grids = _row_grid(source, pitch, resolution)
    row_total = int(np.prod([len(g) for g in grids]))
    total = float(row_total) ** target.dim

    def _row_ok(row):
        return source.dual_norm(row) <= 1.0 + resolution + 1e-12

    rng = np.random.default_rng(seed)
    if row_total <= cap:
        rows = [np.array(r) for r in itertools.product(*grids)]
        rows = [r for r in rows if _row_ok(r)]
        full = float(len(rows)) ** target.dim
        if full <= cap:
            members = [np.array(pick) for pick in itertools.product(rows, repeat=target.dim)]
            return MorphismNet(source, target, members, resolution, True, len(members), seed)
        if require_certified:
            raise ResourceLimitError(
                f"certified net needs {full:.0f} members, cap is {cap}"
            )
        members = []
        seen = set()
        for _ in range(cap * 4):
            if len(members) >= cap:
                break
            pick = rng.integers(0, len(rows), size=target.dim)
            key = pick.tobytes()
            if key in seen:
                continue
            seen.add(key)
            members.append(np.array([rows[i] for i in pick]))
        return MorphismNet(source, target, members, resolution, False, total, seed)
    if require_certified:
        raise ResourceLimitError(
            f"certified net needs {total:.0f} members ({row_total} rows), cap is {cap}"
        )
    members = []
    seen = set()
    for _ in range(cap * 8):
        if len(members) >= cap:
            break
        mat = np.array(
            [[g[i] for g, i in zip(grids, rng.integers(0, [len(g) for g in grids]))]
             for _ in range(target.dim)]
        )
        key = mat.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if all(_row_ok(r) for r in mat):
            members.append(mat)
    return MorphismNet(source, target, members, resolution, False, total, seed)


# ---------------------------------------------------------------------------
# the chain object


class StageChain:
    """A tower of stages with exactly isometric connectives and a build log."""

    def __init__(self, kind, stages, connectives, records, params):
        if len(connectives) != len(stages) - 1:
            raise ValueError("need exactly one connective per adjacent stage pair")
        self.kind = kind
        self.stages = stages
        self.connectives = connectives
        self.records = records
        self.params = params

    @property
    def depth(self):
        return len(self.stages) - 1

    @property
    def top(self):
        return self.stages[-1]

    def connecting(self, k, m):
        """The composite isometry stage_k -> stage_m (identity when k == m)."""
        if not 0 <= k <= m <= self.depth:
            raise ValueError(f"bad stage pair ({k}, {m})")
        out = LinearMap.identity(self.stages[k])
        for step in range(k, m):
            out = self.connectives[step] @ out
        return out

    def to_json(self):
        return {
            "kind": self.kind,
            "params": self.params,
            "stages": [space_to_json(s) for s in self.stages],
            "connectives": [map_to_json(j) for j in self.connectives],
            "records": self.records,
        }

    @classmethod
    def from_json(cls, data):
        stages = [space_from_json(s) for s in data["stages"]]
        connectives = []
        for payload, dom, cod in zip(data["connectives"], stages, stages[1:]):
            j = map_from_json(payload)
            connectives.append(LinearMap(dom, cod, j.matrix))
        return cls(data["kind"], stages, connectives, data["records"], data["params"])

    def content_hash(self):
        return content_hash(canonical_dumps(self.to_json()))


def _record(source, f, k, phi, g, m, mode, delta, defect, g_distortion):
    return {
        "source": space_to_json(source),
        "f": map_to_json(f),
        "stage": k,
        "phi": map_to_json(phi),
        "g": map_to_json(g),
        "resolved_stage": m,
        "mode": mode,
        "delta": fmt_real(delta),
        "defect": fmt_real(defect),
        "g_distortion": fmt_real(g_distortion),
    }


# ---------------------------------------------------------------------------
# test pools for the builder


def _source_pool(rng):
    """Small seeded test spaces: coordinate spaces plus random polytope norms."""
    pool = [LinfSpace(1), LinfSpace(2)]
    for _ in range(POLYTOPE_SOURCES):
        while True:
            rows = rng.normal(size=(4, 2))
            rows /= np.max(np.abs(rows), axis=1, keepdims=True)
            try:
                pool.append(NormedSpace(rows, label="polytope2"))
                break
            except ValueError:
                continue
    return pool


def _signed_perms(n, rng):
    out = [np.eye(n)]
    for _ in range(SIGNED_PERMS):
        p = rng.permutation(n)
        s = rng.choice([-1.0, 1.0], size=n)
        out.append(np.eye(n)[p] * s[:, None])
    return out


def _phi_catalog(source, rng):
    """Almost-embeddings of the source into small coordinate spaces.

    Exact isometries (the canonical one and signed-permutation twists of
    it) plus one measured perturbation, so obligations carry both delta=0
    and genuinely positive promised deltas. The call takes the rng draws
    (the twists and the bump); the returned thunk runs the op-norm and
    distortion LPs that filter the perturbation, so the caller can defer
    or skip them without moving the rng stream.
    """
    base = embed_linf(source)
    perms = _signed_perms(base.cod.dim, rng)
    bump = rng.normal(size=base.matrix.shape) * PHI_PERTURBATION / max(1, source.dim)

    def catalog():
        cat = [(LinearMap(source, base.cod, p @ base.matrix), 0.0) for p in perms]
        cand = LinearMap(source, base.cod, base.matrix + bump)
        if cand.op_norm() <= 1.0:
            dist = cand.distortion()
            if dist <= 0.4:
                cat.append((cand, dist))
        return cat

    return catalog


def _dual_ball_rows(space, rng, count):
    """Seeded exact samples from the dual unit ball: signed simplex mixtures
    of the presentation rows, so no membership check is ever needed."""
    rows = []
    w = space.norming
    for _ in range(count):
        lam = rng.dirichlet(np.full(w.shape[0], 0.4))
        signs = rng.choice([-1.0, 1.0], size=w.shape[0])
        rows.append((lam * signs) @ w)
    return rows


def _f_pool(source, stage, rng, net_resolution):
    """Candidate almost-embeddings of a source into the current stage.

    The canonical padded presentation isometry always joins when it fits.
    When the entry grid is small the certified-or-sampled net supplies the
    rest, its members op-normed one at a time until the pool is full;
    otherwise candidate rows are drawn exactly from the dual ball
    (signed simplex mixtures of presentation rows), which makes every
    candidate a contraction by construction and leaves one distortion LP
    per candidate as the only filter. The call takes the rng draws (the
    net seed, or every dual-ball candidate); the returned thunk builds the
    net and runs the filter LPs, so the caller can defer or skip them
    without moving the rng stream.
    """
    if source.dim * stage.dim <= 4:
        net_seed = int(rng.integers(0, 2**31))
        drawn = None
    else:
        drawn = [
            LinearMap(source, stage, np.array(_dual_ball_rows(source, rng, stage.dim)))
            for _ in range(6 * F_PER_PAIR)
        ]

    def pool():
        out = []
        ncan = embed_linf(source)
        if ncan.cod.dim <= stage.dim:
            pad = np.zeros((stage.dim, source.dim))
            pad[: ncan.cod.dim, :] = ncan.matrix
            out.append((LinearMap(source, stage, pad), 0.0))
        candidates = drawn
        if drawn is None:
            net = build_morphism_net(source, stage, net_resolution, cap=NET_CAP, seed=net_seed)
            candidates = (m for m in net.maps() if m.op_norm() <= 1.0 + 1e-9)
        for cand in candidates:
            dist = cand.distortion()
            if dist <= 0.45:
                out.append((cand, dist))
                if len(out) >= F_PER_PAIR + 1:
                    break
        return out

    return pool


def _walk(pools, reached):
    """The step's obligations (source, phi, dphi, f, df) in source order.

    pools holds (source, phi thunk, f thunk) per source. A source's thunks
    run the first time a walk reaches it, and its obligations join
    reached, so a later walk replays them without solving again.
    """
    for s, (source, phis, fs) in enumerate(pools):
        if s == len(reached):
            phis, fs = phis(), fs()
            reached.append([(source, phi, dphi, f, df) for phi, dphi in phis for f, df in fs])
        yield from reached[s]


def build_gurarij_chain(depth, dim_cap=12, net_resolution=0.25, *, seed, extend_per_step=4):
    """Deterministic finite approximation of the universal separable stage tower.

    The tower starts at linf^START_DIM, draws its morphism nets with at
    most NET_CAP members, and resolves obligations within the Banach
    modulus BANACH; params records all three beside the arguments. Each
    step gathers obligations (phi: E -> F, f: E -> X_k) from the
    seeded pools, folds as many as the remaining dimension budget allows
    through near-amalgamation (stage grows by dim F per fold, resolving
    map exactly isometric, defect <= modulus(delta)), and resolves a
    capped number of the rest in place by extension along phi (no growth,
    defect <= modulus(delta_phi), distortion of the resolving map
    measured and recorded, not assumed). The step takes every source's
    rng draws up front, in source order, but a source's pools are built
    and LP-filtered only when the fold or the extension walk first
    reaches it; no draw depends on an LP, so the tower is the same as if
    every pool were filtered. A negative depth raises ValueError.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    rng = np.random.default_rng(seed)
    stages = [LinfSpace(START_DIM)]
    connectives = []
    records = []
    sources = _source_pool(rng)
    for k in range(1, depth + 1):
        cur = stages[-1]
        pools = [
            (source, _phi_catalog(source, rng), _f_pool(source, cur, rng, net_resolution))
            for source in sources
        ]
        reached = []  # obligations of the sources the walk has filtered

        budget = max(0, dim_cap - cur.dim)
        step_growth = int(np.ceil(budget / (depth - k + 1))) if budget else 0
        z = cur
        lift = LinearMap.identity(cur)  # cur -> z, composition of fold legs
        used = set()
        pending = []  # (obligation meta, resolving map into the current z)
        # both loops stop once their quota is met, before the walk can
        # reach (and filter) a source they would not look at
        for idx, (source, phi, dphi, f, df) in enumerate(
            _walk(pools, reached) if step_growth > 0 else ()
        ):
            n_f = phi.cod.dim
            if n_f > step_growth:
                continue
            delta = max(dphi, df)
            f_z = lift @ f
            try:
                res = nap_amalgamate(f_z, phi, delta=max(delta, 1e-12))
            except (ValueError, LPInfeasible):
                continue
            z = res.z
            lift = res.i @ lift
            # earlier resolving maps ride up through the new fold leg
            pending = [(meta, res.i @ g) for meta, g in pending]
            pending.append(((source, f, k - 1, phi, k, delta), res.j))
            used.add(idx)
            step_growth -= n_f
            if step_growth <= 0:
                break
        connectives.append(lift)
        stages.append(z)

        for (source, f, kk, phi, m, delta), g in pending:
            defect = _extension_defect(phi, lift @ f, g)
            records.append(
                _record(source, f, kk, phi, g, m, "amalgam", delta, defect, g.distortion())
            )

        extended = 0
        for idx, (source, phi, dphi, f, df) in enumerate(
            _walk(pools, reached) if extend_per_step > 0 else ()
        ):
            if idx in used:
                continue
            f_top = lift @ f
            try:
                g = extend_morphism(phi, f_top, delta=dphi, check=False)
            except (ValueError, LPInfeasible):
                continue
            defect = _extension_defect(phi, f_top, g)
            g_dist = morphism_distortion(g)
            records.append(
                _record(source, f, k - 1, phi, g, k, "extend", max(dphi, df), defect, g_dist)
            )
            extended += 1
            if extended >= extend_per_step:
                break

    params = {
        "depth": depth,
        "dim_cap": dim_cap,
        "net_resolution": fmt_real(net_resolution),
        "seed": seed,
        "start_dim": START_DIM,
        "modulus": modulus_to_json(BANACH),
        "net_cap": NET_CAP,
        "extend_per_step": extend_per_step,
    }
    return StageChain("gurarij", stages, connectives, records, params)


# ---------------------------------------------------------------------------
# certified extension into a chain


def _best_contraction_lp(dom, cod, phi_mat, target_mat, source, pattern=None):
    """Scan every contraction g: dom -> cod against the defect of g . phi.

    cod is identity normed; rows of g are constrained to the dual ball of
    dom through explicit row representations, and the defect of each row
    against the target is measured in the source dual norm the same way,
    so one LP covers all contractions at once. With no pattern the defect
    is minimized. With pattern = (lower, defect_cap), the defect is only
    capped and the margin of the lower rows (i, x, s) -- demanding
    s * (g x)_i at least the margin -- is maximized instead, spending the
    allowed slack on isometric behaviour along the chosen directions.
    """
    n_d = dom.dim
    lp = LPBuilder()
    g = lp.new_vars(cod.dim, n_d)
    t = lp.new_vars()
    for i in range(cod.dim):
        lam = lp.new_vars(2 * dom.rows)
        rep = lp.dual_ball_rep(lam, dom.norming, 1.0)
        lp.add_eq(np.zeros(n_d), (g[i], np.eye(n_d)), (lam, -rep))
        mu = lp.new_vars(2 * source.rows)
        rep = lp.dual_ball_rep(mu, source.norming, 0.0, (t, -1.0))
        lp.add_eq(target_mat[i], (g[i], phi_mat.T), (mu, -rep))
    if pattern is None:
        res = lp.solve(t)
    else:
        lower, defect_cap = pattern
        margin = lp.new_vars()
        lp.add_ub(defect_cap, (t, 1.0))
        for (i, x, s) in lower:
            lp.add_ub(0.0, (g[i], -s * x), (margin, 1.0))
        res = lp.solve(margin, maximize=True)
    return res.x[g], res.value


def _extreme_directions(space):
    """One unit-sphere extreme point per sign orthant (up to antipodes),
    found by supporting the ball against each signed coordinate sum.

    On an identity-normed space the ball is the box and that point is
    the sign vector itself, the LP's unique maximizer, so no LP is solved.
    """
    out = []
    for bits in itertools.product([1.0, -1.0], repeat=space.dim - 1):
        sigma = np.array((1.0,) + bits)
        out.append(sigma if space.is_linf else solve_lp(sigma, *space.ball_constraints(1.0), maximize=True).x)
    return out


class ExtensionResult:
    def __init__(self, g, stage, defect, distortion, mode, delta, modulus, bound):
        self.g = g
        self.stage = stage
        self.defect = defect
        self.distortion = distortion
        self.mode = mode
        self.delta = delta
        self.modulus = modulus
        self.bound = bound

    def certificate(self, phi, f_top):
        payload = {"distortion": fmt_real(self.distortion), "stage": str(self.stage)}
        return EXTENSION_DEFECT.certificate(
            self.bound, self.defect, payload=payload, phi=phi, f=f_top, g=self.g,
            delta=self.delta, modulus=self.modulus, mode=self.mode,
        )


def _extension_defect(phi, f, g):
    return map_dist(g @ phi, f)


EXTENSION_DEFECT = Claim(
    "extension_defect", 1e-7, _extension_defect,
    phi=MAP, f=MAP, g=MAP, delta=(fmt_real, None), modulus=(modulus_to_json, None), mode=(str, None),
)


def certify_extension(chain, phi, f, k, delta):
    """Find and certify g: F -> top stage with g . phi close to the lift of f.

    Two candidates, both LPs. The first ("joint_lp") minimizes the defect
    over every contraction F -> top stage at once, so up to the LP
    tolerance its defect is at most that of any contraction, the plain
    extension along phi and a pushout followed by a retraction included.
    The second ("pattern_lp") re-runs that LP with the defect capped near
    the bound and lower bounds pushing g toward isometry on the support
    directions the first one uses. The winner is the candidate with the
    least distortion among those within the defect bound, else the least
    defect; the defect is the certified quantity and the distortion is
    reported as measured slack, never assumed.
    """
    modulus = modulus_from_json(chain.params["modulus"])
    m = chain.depth
    j = chain.connecting(k, m)
    f_top = j @ f
    bound = modulus(delta) + SLACK

    g_mat, _ = _best_contraction_lp(
        phi.cod, chain.stages[m], phi.matrix, f_top.matrix, phi.dom
    )
    g = LinearMap(phi.cod, chain.stages[m], g_mat)
    defect = _extension_defect(phi, f_top, g)
    scored = [("joint_lp", g, defect, morphism_distortion(g))]

    # pattern pass: cap the defect at the bound (minus a safety sliver) and
    # maximize the margin on extreme directions of the F ball, claiming one
    # distinct target coordinate per direction so the margins cannot collapse
    # onto a single functional
    lower = []
    taken = set()
    for x in _extreme_directions(phi.cod):
        img = g.matrix @ x
        order = np.argsort(-np.abs(img))
        i = next((int(i) for i in order if int(i) not in taken), int(order[0]))
        taken.add(i)
        s = 1.0 if img[i] >= 0 else -1.0
        lower.append((i, x, s))
    try:
        g_mat2, _ = _best_contraction_lp(
            phi.cod, chain.stages[m], phi.matrix, f_top.matrix, phi.dom,
            pattern=(lower, max(defect, modulus(delta)) + 0.5 * SLACK),
        )
        g2 = LinearMap(phi.cod, chain.stages[m], g_mat2)
        defect2 = _extension_defect(phi, f_top, g2)
        scored.append(("pattern_lp", g2, defect2, morphism_distortion(g2)))
    except (ValueError, LPInfeasible):
        pass

    mode, g, defect, dist = min(scored, key=lambda s: (s[2] > bound, s[3], s[2]))
    return ExtensionResult(g, m, defect, dist, mode, delta, modulus, bound)


# ---------------------------------------------------------------------------
# back and forth


class BackAndForthResult:
    def __init__(self, u, v, trace, defect, bound, rounds):
        self.u = u
        self.v = v
        self.trace = trace
        self.defect = defect
        self.bound = bound
        self.rounds = rounds

    def certificate(self, f_top, g_top, modulus, delta):
        payload = {"trace": [fmt_real(t) for t in self.trace], "rounds": str(self.rounds)}
        return BACK_AND_FORTH_DEFECT.certificate(
            self.bound, self.defect, payload=payload,
            f=f_top, g=g_top, u=self.u, v=self.v, delta=delta, modulus=modulus,
        )


def _back_and_forth_defect(f, g, u, v):
    return max(map_dist(u @ f, g), map_dist(v @ g, f))


BACK_AND_FORTH_DEFECT = Claim(
    "back_and_forth_defect", 1e-7, _back_and_forth_defect,
    f=MAP, g=MAP, u=MAP, v=MAP, delta=(fmt_real, None), modulus=(modulus_to_json, None),
)


def back_and_forth(chain, f, kf, g, kg, delta, rounds=8):
    """Alternating correction scheme between two embeddings of one space.

    Produces contractions u, v between the top stage and itself with
    u . f close to g and v . g close to f, refining in rounds: each round
    re-solves the one-shot contraction LP with an extra row family asking
    the new map to also undo its partner on the relevant range, with a
    geometrically tightening isometry-pattern slack. The trace keeps the
    best defect seen so far, so it is nonincreasing by construction and
    every entry is a measured quantity.
    """
    modulus = modulus_from_json(chain.params["modulus"])
    top = chain.top
    f_top = chain.connecting(kf, chain.depth) @ f
    g_top = chain.connecting(kg, chain.depth) @ g
    bound = modulus(delta) + SLACK

    def _solve(src_map, dst_map, partner):
        # one contraction top -> top carrying src_map onto dst_map; when a
        # partner is present, also ask to undo it on the dst range, with both
        # requirements measured in the sup-product of two source copies
        phi_mat = src_map.matrix
        target = dst_map.matrix
        source = src_map.dom
        if partner is not None:
            phi_mat = np.hstack([phi_mat, partner.matrix @ dst_map.matrix])
            target = np.hstack([target, dst_map.matrix])
            wsrc = src_map.dom.norming
            z = np.zeros_like(wsrc)
            source = NormedSpace(np.vstack([np.hstack([wsrc, z]), np.hstack([z, wsrc])]), label="paired")
        g_mat, _ = _best_contraction_lp(top, top, phi_mat, target, source)
        return LinearMap(top, top, g_mat)

    best_u = extend_morphism(f_top, g_top, delta=delta, modulus=modulus, check=False)
    best_v = extend_morphism(g_top, f_top, delta=delta, modulus=modulus, check=False)

    best = _back_and_forth_defect(f_top, g_top, best_u, best_v)
    trace = [best]
    u, v = best_u, best_v
    for n in range(1, rounds):
        try:
            u_new = _solve(f_top, g_top, v)
        except (ValueError, LPInfeasible):
            u_new = u
        try:
            v_new = _solve(g_top, f_top, u_new)
        except (ValueError, LPInfeasible):
            v_new = v
        u, v = u_new, v_new
        cand = _back_and_forth_defect(f_top, g_top, u, v)
        if cand < best:
            best = cand
            best_u, best_v = u, v
        trace.append(best)
        if best <= modulus(delta) + 1e-9:
            break
    return BackAndForthResult(best_u, best_v, trace, best, bound, len(trace))


# ---------------------------------------------------------------------------
# factorization through coordinate stages


class FactorizationWitness:
    def __init__(self, gamma, rho, through_dim, norm_bound, defect):
        self.gamma = gamma
        self.rho = rho
        self.through_dim = through_dim
        self.norm_bound = norm_bound
        self.defect = defect

    def certificate(self, space):
        payload = {"through_dim": str(self.through_dim), "norm_bound": fmt_real(self.norm_bound)}
        return FACTORIZATION_DEFECT.certificate(
            max(self.defect, 0.0), self.defect, payload=payload, space=space, gamma=self.gamma, rho=self.rho
        )


def _factorization_defect(space, gamma, rho):
    return map_dist(LinearMap(space, space, rho.matrix @ gamma.matrix), LinearMap.identity(space))


FACTORIZATION_DEFECT = Claim("factorization_defect", 1e-7, _factorization_defect, space=SPACE, gamma=MAP, rho=MAP)


def nuclearity_witness(space):
    """Factor the identity of a presented space through a coordinate stage.

    Identity-normed spaces factor exactly through themselves. Otherwise
    gamma is the canonical presentation isometry and rho is found by LP:
    first minimize the operator norm of a left inverse (exactly linear
    since the domain is a coordinate space: one absolute row sum per
    functional row of the target), and if the minimum exceeds one,
    re-solve for the least identity defect among exact contractions. The
    witness carries that minimum, or the measured operator norm of the
    contraction, as norm_bound, and the measured identity defect of
    rho . gamma.
    """
    if space.is_linf:
        ident = LinearMap.identity(space)
        return FactorizationWitness(ident, ident, space.dim, 1.0, 0.0)
    gamma = embed_linf(space)
    n, big = space.dim, gamma.cod.dim
    w = space.norming

    def _solve(norm_cap):
        lp = LPBuilder()
        rho = lp.new_vars(n, big)
        t = lp.new_vars()
        # operator norm from the coordinate space: for each functional row w_l
        # of the target, the row w_l . rho must have absolute sum <= bound
        budget = (0.0, (t, -1.0)) if norm_cap is None else (norm_cap,)
        for l in range(w.shape[0]):
            a = lp.new_vars(2 * big)
            rep = lp.dual_ball_rep(a, np.eye(big), *budget)
            lp.add_eq(np.zeros(big), (a, rep), (rho.T, -w[l]))
        if norm_cap is None:
            # exact left inverse, minimize the norm bound
            for r in range(n):
                lp.add_eq(np.eye(n)[r], (rho[r], w.T))
        else:
            # contraction, minimize the identity defect in the target norm
            for l in range(w.shape[0]):
                mu = lp.new_vars(2 * w.shape[0])
                rep = lp.dual_ball_rep(mu, w, 0.0, (t, -1.0))
                lp.add_eq(w[l], (rho.ravel(), np.kron(w[l], w.T)), (mu, -rep))
        res = lp.solve(t)
        return res.x[rho], res.value

    mat, norm_bound = _solve(None)
    rho = LinearMap(gamma.cod, space, mat)
    if norm_bound > 1.0 + 1e-9:
        rho = LinearMap(gamma.cod, space, _solve(1.0)[0])
        norm_bound = rho.op_norm()
    return FactorizationWitness(gamma, rho, big, norm_bound, _factorization_defect(space, gamma, rho))
