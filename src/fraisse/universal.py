"""Arrow towers: a single operator and a single state that absorb tests.

The operator tower keeps one contraction T_k between coordinate stages
and grows it by arrow amalgamation so that every recorded way of
extending a domain direction is eventually realized inside T_k itself.
The stages stay literal coordinate spaces: each pushout presentation is
pruned of redundant rows and absorbed into the ambient sup space by its
own presentation isometry, and the connecting operator is re-extended
across that isometry at zero tolerance. The payoff is that the chain
squares commute to solver roundoff and the legs are exact isometries, so
the distance from any lifted probe to the image of the unit ball can
only shrink as the tower grows; the build measures it anyway.

The state tower rides the dense-boundary function system tower, where
the connective has an exact one-sided inverse given by dropping the new
coordinate; pulling the running state back through that retraction keeps
every compatibility identity exact by construction, with no arithmetic
to go wrong.
"""

import itertools

import numpy as np

from .amalgam import ArrowMorphism, ArrowObject, arrow_pushout
from .certify import (
    MAP,
    VECTOR,
    Claim,
    canonical_dumps,
    content_hash,
    fmt_matrix,
    fmt_real,
    fmt_vector,
    map_from_json,
    map_to_json,
    parse_matrix,
    parse_real,
)
from .chains import ResourceLimitError, _best_contraction_lp
from .lp import LPBuilder, LPInfeasible
from .spaces import (
    LinearMap,
    LinfSpace,
    NormedSpace,
    _least_coefficient_sum,
    embed_linf,
    extend_morphism,
    map_dist,
    morphism_distortion,
)
from .unital import build_poulsen_chain

SQUARE_TOL = 1e-9
ANCHOR_THRESHOLD = 0.4  # least image norm of a domain direction a fold may anchor at
CANDIDATE_LIMIT = 48  # signed coordinate injections tried per absorption check
FOLD_DELTA = 0.05  # distortion promised to every template fold and in-place extension


def prune_redundant_rows(space):
    """Drop rows lying in the absolute hull of the others; norm unchanged.

    Scan order is row order, so the result is deterministic. Zero rows go
    first, then each survivor is kept only if no representation by the
    other live rows stays within total weight one. One pass suffices:
    dropping a row only shrinks the set later rows are represented over,
    which cannot lower a least coefficient sum, so a kept row stays kept.
    """
    w = space.norming
    alive = [i for i in range(w.shape[0]) if np.max(np.abs(w[i])) > 1e-14]
    for i in list(alive):
        others = [j for j in alive if j != i]
        if not others:
            continue
        try:
            res = _least_coefficient_sum(w[others].T, w[i])
        except LPInfeasible:
            continue
        if res.value <= 1.0 + 1e-9:
            alive.remove(i)
    return NormedSpace(w[alive], label=space.label), alive


class ArrowChain:
    """A tower of contractions with exactly commuting isometric connectives."""

    def __init__(self, stages, connectives, records, params):
        if len(connectives) != len(stages) - 1:
            raise ValueError("need one connective per adjacent pair")
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
        if not 0 <= k <= m <= self.depth:
            raise ValueError(f"bad stage pair ({k}, {m})")
        a0 = LinearMap.identity(self.stages[k].dom)
        a1 = LinearMap.identity(self.stages[k].cod)
        for step in range(k, m):
            a0 = self.connectives[step].a0 @ a0
            a1 = self.connectives[step].a1 @ a1
        return ArrowMorphism(self.stages[k], self.stages[m], a0, a1)

    def to_json(self):
        return {
            "kind": "operator",
            "params": self.params,
            "stages": [map_to_json(s.t) for s in self.stages],
            "connectives": [
                {"a0": map_to_json(c.a0), "a1": map_to_json(c.a1)} for c in self.connectives
            ],
            "records": self.records,
        }

    @classmethod
    def from_json(cls, data):
        stages = [ArrowObject(map_from_json(s)) for s in data["stages"]]
        connectives = []
        for payload, src, dst in zip(data["connectives"], stages, stages[1:]):
            a0 = map_from_json(payload["a0"])
            a1 = map_from_json(payload["a1"])
            connectives.append(
                ArrowMorphism(
                    src,
                    dst,
                    LinearMap(src.dom, dst.dom, a0.matrix),
                    LinearMap(src.cod, dst.cod, a1.matrix),
                )
            )
        return cls(stages, connectives, data["records"], data["params"])

    def content_hash(self):
        return content_hash(canonical_dumps(self.to_json()))


def _direction_scales(t):
    """Coordinate directions of the domain with their image norms under t."""
    out = []
    eye = np.eye(t.dom.dim)
    for i in range(t.dom.dim):
        c = t.cod.norm(t.apply(eye[i]))
        if c >= ANCHOR_THRESHOLD:
            out.append((i, c))
    return out


def _fold_obligation(stage, i, c, beta, gamma, grow_cod):
    """An extension template anchored at domain direction i of the stage.

    The test arrow is c times the identity on one coordinate; the
    extension adds one domain direction feeding beta into the anchored
    image and, when grow_cod, gamma into one new output direction. Legs
    of the template morphism are coordinate inclusions, hence exact
    isometries with an exactly commuting square.
    """
    a = ArrowObject(LinearMap(LinfSpace(1), LinfSpace(1), np.array([[c]])), f"scale({c:.3f})")
    cod_dim = 2 if grow_cod else 1
    mat = np.zeros((cod_dim, 2))
    mat[0, 0] = c
    mat[0, 1] = beta
    if grow_cod:
        mat[1, 1] = gamma
    b = ArrowObject(LinearMap(LinfSpace(2), LinfSpace(cod_dim), mat), "template")
    phi = ArrowMorphism(
        a,
        b,
        LinearMap(LinfSpace(1), LinfSpace(2), np.array([[1.0], [0.0]])),
        LinearMap(LinfSpace(1), LinfSpace(cod_dim), np.eye(cod_dim)[:, :1]),
    )
    # anchor: f embeds the test arrow at direction i of the stage
    f0 = LinearMap(LinfSpace(1), stage.dom, np.eye(stage.dom.dim)[:, [i]])
    img = stage.t.apply(np.eye(stage.dom.dim)[:, i].ravel())
    f1 = LinearMap(LinfSpace(1), stage.cod, (img / c).reshape(-1, 1))
    f = ArrowMorphism(a, stage, f0, f1)
    return phi, f


def build_universal_operator_chain(depth, dom_cap=10, cod_cap=10, *, seed):
    """Grow one contraction that realizes its own recorded extension templates.

    Each step folds one template (new domain direction with seeded mixing
    and output scale) through the arrow pushout at delta = FOLD_DELTA,
    prunes and absorbs the pushout presentations, and re-extends the
    connecting operator across the absorption at zero tolerance. When the
    caps are reached the step degrades to an in-place extension record
    with an identity connective. Every record keeps the template
    parameters and the maps resolving the template into the stage it was
    folded at; the test battery generator replays exactly those. params
    records FOLD_DELTA as "delta" beside the arguments. A negative depth
    raises ValueError.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    rng = np.random.default_rng(seed)
    t0 = ArrowObject(LinearMap(LinfSpace(1), LinfSpace(1), np.eye(1)), "stage0")
    stages = [t0]
    connectives = []
    records = []
    for k in range(1, depth + 1):
        stage = stages[-1]
        dirs = _direction_scales(stage.t)
        if not dirs:
            raise RuntimeError("no usable anchor direction; the operator degenerated")
        i, c = dirs[int(rng.integers(0, len(dirs)))]
        beta = float(rng.uniform(-1.0, 1.0)) * max(0.0, 1.0 - c) * 0.9
        gamma = float(rng.uniform(0.5, 1.0))
        grow_cod = bool(stage.cod.dim < cod_cap)
        phi, f = _fold_obligation(stage, i, c, beta, gamma, grow_cod)
        will_grow = stage.dom.dim < dom_cap and stage.cod.dim < cod_cap
        if will_grow:
            po = arrow_pushout(phi, f, delta=FOLD_DELTA)
            y0p, _ = prune_redundant_rows(po.shat.dom)
            y1p, _ = prune_redundant_rows(po.shat.cod)
            emb0 = embed_linf(y0p) @ LinearMap(po.shat.dom, y0p, np.eye(po.shat.dom.dim))
            emb1 = embed_linf(y1p) @ LinearMap(po.shat.cod, y1p, np.eye(po.shat.cod.dim))
            shat_new = extend_morphism(emb0, emb1 @ po.shat.t, delta=0.0, check=False)
            new_stage = ArrowObject(shat_new, f"stage{k}")
            conn = ArrowMorphism(stage, new_stage, emb0 @ po.j.a0, emb1 @ po.j.a1)
            square = conn.square_defect()
            if square > SQUARE_TOL:
                raise RuntimeError(f"connective square defect {square:.3e}")
            g_arrow = ArrowMorphism(phi.dst, new_stage, emb0 @ po.fhat.a0, emb1 @ po.fhat.a1)
            defect = max(
                map_dist(g_arrow.a0 @ phi.a0, conn.a0 @ f.a0),
                map_dist(g_arrow.a1 @ phi.a1, conn.a1 @ f.a1),
            )
            stages.append(new_stage)
            connectives.append(conn)
            mode = "amalgam"
        else:
            self_conn = ArrowMorphism(
                stage, stage, LinearMap.identity(stage.dom), LinearMap.identity(stage.cod)
            )
            g0 = extend_morphism(phi.a0, f.a0, delta=FOLD_DELTA, check=False)
            g1 = extend_morphism(phi.a1, f.a1, delta=FOLD_DELTA, check=False)
            g_arrow = ArrowMorphism(phi.dst, stage, g0, g1)
            defect = max(
                map_dist(g0 @ phi.a0, f.a0),
                map_dist(g1 @ phi.a1, f.a1),
                g_arrow.square_defect(),
            )
            square = 0.0
            stages.append(stage)
            connectives.append(self_conn)
            mode = "extend"
        records.append(
            {
                "stage": k,
                "mode": mode,
                "anchor": int(i),
                "scale": fmt_real(c),
                "beta": fmt_real(beta),
                "gamma": fmt_real(gamma) if grow_cod else None,
                "defect": fmt_real(defect),
                "square_defect": fmt_real(square),
                "dom_dim": int(stages[-1].dom.dim),
                "cod_dim": int(stages[-1].cod.dim),
                "witness_stage": k,
                "witness_a0": fmt_matrix(g_arrow.a0.matrix),
                "witness_a1": fmt_matrix(g_arrow.a1.matrix),
            }
        )
    params = {
        "depth": depth,
        "dom_cap": dom_cap,
        "cod_cap": cod_cap,
        "seed": seed,
        "delta": fmt_real(FOLD_DELTA),
    }
    return ArrowChain(stages, connectives, records, params)


def image_distance(t, y):
    """Distance from y to the image of the unit ball under the contraction t."""
    lp = LPBuilder()
    x = lp.new_vars(t.dom.dim)
    dist = lp.new_vars()
    ball_a, ball_b = t.dom.ball_constraints(1.0)
    lp.add_ub(ball_b, (x, ball_a))
    w = t.cod.norming
    wy = w @ np.asarray(y, dtype=float)
    for l in range(w.shape[0]):
        for sign in (1.0, -1.0):
            lp.add_ub(sign * wy[l], (x, sign * (w[l] @ t.matrix)), (dist, -1.0))
    return max(lp.solve(dist).value, 0.0)


def surjectivity_defect(chain, probes, base_stage, seed):
    """Worst probe distance to the image ball, per stage, for lifted probes.

    Probes are seeded unit sphere points of the base stage codomain. Legs
    are isometries and squares commute, so the sequence cannot increase;
    it is measured, not asserted.
    """
    if not 0 <= base_stage <= chain.depth:
        raise ValueError(f"base_stage {base_stage} is not a stage of this depth-{chain.depth} tower")
    rng = np.random.default_rng(seed)
    base = chain.stages[base_stage]
    pts = []
    for _ in range(probes):
        v = rng.normal(size=base.cod.dim)
        nv = base.cod.norm(v)
        pts.append(v / max(nv, 1e-12))
    out = []
    for m in range(base_stage, chain.depth + 1):
        lift = chain.connecting(base_stage, m)
        worst = 0.0
        for p in pts:
            worst = max(worst, image_distance(chain.stages[m].t, lift.a1.apply(p)))
        out.append(worst)
    return out


# ---------------------------------------------------------------------------
# absorption checks


class UniversalCheckResult:
    def __init__(self, alpha0, alpha1, defect, dist0, dist1, eps, passed, via="search"):
        self.alpha0 = alpha0
        self.alpha1 = alpha1
        self.defect = defect
        self.dist0 = dist0
        self.dist1 = dist1
        self.eps = eps
        self.passed = passed
        self.via = via

    def certificate(self, l_map, t_map):
        payload = {
            "dist0": fmt_real(self.dist0),
            "dist1": fmt_real(self.dist1),
            "via": self.via,
        }
        return OPERATOR_ABSORPTION.certificate(
            self.eps, self.defect, payload=payload,
            l=l_map, t=t_map, alpha0=self.alpha0, alpha1=self.alpha1, eps=self.eps,
        )


def _absorption_defect(l, t, alpha0, alpha1):
    """sup over the ball of |T alpha0 x - alpha1 L x|; the build takes the
    optimum of the LP that chose alpha1 instead."""
    return map_dist(
        LinearMap(alpha0.dom, alpha1.cod, t.matrix @ alpha0.matrix),
        LinearMap(alpha0.dom, alpha1.cod, alpha1.matrix @ l.matrix),
    )


OPERATOR_ABSORPTION = Claim(
    "operator_absorption", 1e-7, _absorption_defect,
    l=MAP, t=MAP, alpha0=MAP, alpha1=MAP, eps=(fmt_real, None),
)


def _signed_injections(src_dim, dst_dim, limit):
    """Deterministic stream of signed coordinate injection matrices."""
    count = 0
    for cols in itertools.permutations(range(dst_dim), src_dim):
        for signs in itertools.product([1.0, -1.0], repeat=src_dim):
            mat = np.zeros((dst_dim, src_dim))
            for j, (i, s) in enumerate(zip(cols, signs)):
                mat[i, j] = s
            yield mat
            count += 1
            if count >= limit:
                return


def check_universal_operator_property(chain, l_map, eps, hints=None):
    """Can the tower operator absorb the test operator within eps.

    Searches pairs (alpha0, alpha1) of almost isometric contractions with
    T alpha0 close to alpha1 L. Candidate alpha0 come from optional hint
    matrices (a replayed fold witness, say) followed by signed coordinate
    injections; for each candidate the optimal partner alpha1 is one LP
    (the best contraction alpha1 minimizing sup_ball |T alpha0 x - alpha1 L x|),
    solved independently of any hint. Passing means the measured square
    defect and both measured distortions are within eps.
    """
    t_map = chain.top.t
    candidates = []
    for h in hints or []:
        candidates.append((np.asarray(h, dtype=float), "hint"))
    for mat in _signed_injections(l_map.dom.dim, t_map.dom.dim, CANDIDATE_LIMIT):
        candidates.append((mat, "search"))
    best = None
    for a0_mat, via in candidates:
        try:
            a1_mat, defect = _best_contraction_lp(
                l_map.cod, t_map.cod, l_map.matrix, t_map.matrix @ a0_mat, l_map.dom
            )
        except LPInfeasible:
            continue
        defect = max(defect, 0.0)
        alpha0 = LinearMap(l_map.dom, t_map.dom, a0_mat)
        alpha1 = LinearMap(l_map.cod, t_map.cod, a1_mat)
        d0 = morphism_distortion(alpha0)
        d1 = morphism_distortion(alpha1)
        score = (defect, max(d0, d1))
        if best is None or score < best[0]:
            best = (score, alpha0, alpha1, defect, d0, d1, via)
            if defect <= 1e-12 and max(d0, d1) <= 1e-12:
                break
    if best is None:
        raise RuntimeError("no candidate embedding was solvable")
    _, alpha0, alpha1, defect, d0, d1, via = best
    passed = defect <= eps + 1e-9 and d0 <= eps + 1e-9 and d1 <= eps + 1e-9
    return UniversalCheckResult(alpha0, alpha1, defect, d0, d1, eps, passed, via=via)


def generate_operator_battery(chain, count, eps):
    """Frozen test items replayed from the tower's own fold records.

    Each record contributed a template: the anchored scale c with a fresh
    domain direction mixing beta into the image and gamma onto a fresh
    output. The records are replayed as candidate items (the 1x1 scaling,
    the full 2x2 template, its diagonal, and the bare new-direction
    scaling), each carrying the recorded resolving map composed up to the
    top stage as a witness hint. Items are kept only when the absorption
    check passes at eps/2 right now; failing candidates are dropped, and
    the generator raises rather than pad the battery, so a later battery
    failure is a finding about the tower, not noise in the items.
    """
    candidates = []
    for rec in chain.records:
        c = parse_real(rec["scale"])
        w0 = parse_matrix(rec["witness_a0"])
        conn = chain.connecting(rec["witness_stage"], chain.depth)
        lift0 = conn.a0.matrix @ w0
        candidates.append(
            (
                LinearMap(LinfSpace(1), LinfSpace(1), np.array([[c]])),
                lift0[:, :1],
                f"scale@{rec['stage']}",
            )
        )
        if rec["gamma"] is None:
            continue
        beta = parse_real(rec["beta"])
        gamma = parse_real(rec["gamma"])
        candidates.append(
            (
                LinearMap(LinfSpace(2), LinfSpace(2), np.array([[c, beta], [0.0, gamma]])),
                lift0,
                f"template@{rec['stage']}",
            )
        )
        candidates.append(
            (
                LinearMap(LinfSpace(2), LinfSpace(2), np.array([[c, 0.0], [0.0, gamma]])),
                lift0,
                f"diagonal@{rec['stage']}",
            )
        )
        candidates.append(
            (
                LinearMap(LinfSpace(1), LinfSpace(1), np.array([[gamma]])),
                lift0[:, 1:2],
                f"fresh@{rec['stage']}",
            )
        )
    items = []
    for l_map, hint, tag in candidates:
        if len(items) >= count:
            break
        res = check_universal_operator_property(
            chain, l_map, eps / 2.0, hints=[hint]
        )
        if res.passed:
            items.append({"l": l_map, "hint": hint, "tag": tag})
    if len(items) < count:
        raise ResourceLimitError(f"only {len(items)} of {count} battery items have verified witnesses")
    return items


def battery_to_json(items):
    return [
        {"l": map_to_json(it["l"]), "hint": fmt_matrix(np.asarray(it["hint"])), "tag": it["tag"]}
        for it in items
    ]


def battery_from_json(data):
    return [
        {"l": map_from_json(it["l"]), "hint": parse_matrix(it["hint"]), "tag": it["tag"]}
        for it in data
    ]


# ---------------------------------------------------------------------------
# the universal state tower


class StateChain:
    """A function system tower carrying one exactly compatible state."""

    def __init__(self, chain, states):
        self.chain = chain
        self.states = states

    @property
    def depth(self):
        return self.chain.depth

    def compatibility_defect(self, k):
        """sup |s_{k+1}(J x) - s_k(x)| over the stage ball; zero by algebra."""
        j = self.chain.connectives[k]
        comp = self.states[k + 1] @ j.matrix
        diff = comp - self.states[k]
        return self.chain.stages[k].dual_norm(diff)

    def to_json(self):
        data = self.chain.to_json()
        data["kind"] = "universal_state"
        data["states"] = [fmt_vector(s) for s in self.states]
        return data

    def content_hash(self):
        return content_hash(canonical_dumps(self.to_json()))


def build_universal_state_chain(depth, seed):
    """The dense-boundary tower with a state pulled back through retractions.

    The connective of each growth step appends coordinates, so dropping
    them is an exact unital positive retraction; the running state
    composes with it, keeping every compatibility identity exact without
    arithmetic. The base state is the balanced one on two coordinates,
    whose support never grows; universality comes from the growing supply
    of state-free coordinates, and is checked, not assumed, by
    check_universal_state_property.
    """
    chain = build_poulsen_chain(depth, targets_per_step=2, seed=seed)
    states = [np.array([0.5, 0.5])]
    for k in range(chain.depth):
        cur = chain.stages[k]
        r = np.zeros((cur.dim, chain.stages[k + 1].dim))
        r[:, : cur.dim] = np.eye(cur.dim)
        states.append(states[-1] @ r)
    return StateChain(chain, states)


def _state_absorption_defect(alpha, state, sigma):
    """The dual norm of the pullback error state . alpha - sigma."""
    return alpha.dom.dual_norm(state @ alpha.matrix - sigma)


STATE_ABSORPTION = Claim(
    "state_absorption", 1e-7, _state_absorption_defect,
    alpha=MAP, state=VECTOR, sigma=VECTOR, eps=(fmt_real, None),
)


def check_universal_state_property(state_chain, system, sigma, eps):
    """Embed a test state pair into the tower state within eps.

    One LP finds a unital positive alpha from the test system into the
    top stage: rows of alpha through the stage presentation are states of the
    test system, the pullback against the tower state matches sigma
    within eps, and each presentation row of the test system is pinned
    exactly onto its own state-free stage coordinate. The pinning is
    feasible because presentation rows are themselves states, and it
    forces alpha to attain every norming functional, hence to be exactly
    isometric, whenever enough free coordinates exist; the measured
    distortion reports the shortfall otherwise. The objective minimizes
    the pullback budget actually used. Passing needs the pullback within
    eps and the measured distortion of alpha within eps.
    """
    sigma = np.asarray(sigma, dtype=float)
    target = state_chain.chain.top
    s_func = state_chain.states[-1]
    w_e = system.norming
    w_t = target.norming
    lp = LPBuilder()
    alpha = lp.new_vars(target.dim, system.dim)
    lams = lp.new_vars(w_t.shape[0], w_e.shape[0])
    mu = lp.new_vars(2 * w_e.shape[0])
    # rows of W_t alpha are states of the test system
    for l in range(w_t.shape[0]):
        lp.add_eq(np.zeros(system.dim), (alpha.T, w_t[l]), (lams[l], -w_e.T))
        lp.add_eq(1.0, (lams[l], 1.0))
        lp.nonneg(lams[l])
    # pullback: s . alpha - sigma represented over W_e with weight <= eps
    rep = lp.dual_ball_rep(mu, w_e, eps)
    lp.add_eq(sigma, (alpha.T, s_func), (mu, -rep))
    # isometry by pinning: presentation row l of the test system goes
    # exactly onto the l-th state-free coordinate (stage rows are
    # coordinates in these towers, so pinning the coordinate pins the
    # functional alpha attains there)
    free = [i for i in range(target.dim) if abs(s_func[i]) < 1e-12]
    if target.is_linf:
        for l in range(min(w_e.shape[0], len(free))):
            lp.add_eq(w_e[l], (alpha[free[l]], np.eye(system.dim)))
    res = lp.solve(mu)
    alpha_mat = res.x[alpha]
    alpha = LinearMap(system, target, alpha_mat)
    defect = _state_absorption_defect(alpha, s_func, sigma)
    dist = morphism_distortion(alpha)
    passed = defect <= eps + 1e-9 and dist <= eps + 1e-9
    cert = STATE_ABSORPTION.certificate(
        eps, defect, payload={"distortion": fmt_real(dist)}, alpha=alpha, state=s_func, sigma=sigma, eps=eps
    )
    result = UniversalCheckResult(alpha, alpha, defect, dist, dist, eps, passed)
    result.state_certificate = cert
    return result
