"""Function systems: order unit structure on presented spaces.

A presented function system is a presented space whose norming rows all
take the value one at a distinguished unit vector; the cone is the set
where every row is nonnegative, so by polyhedral duality the state space
is exactly the convex hull of the rows. That identification is what
makes unitality and positivity checkable by linear programming with no
further approximation: a functional is a state iff it is a convex
combination of presentation rows, and the nearest state is one LP away.
"""

import itertools

import numpy as np

from .certify import (
    MAP,
    MATRIX,
    REAL,
    SPACE,
    VECTOR,
    Claim,
    fmt_real,
    fmt_vector,
    modulus_to_json,
    parse_vector,
    space_from_json,
    space_to_json,
)
from .chains import StageChain
from .lp import LPBuilder
from .spaces import FUNCTION_SYSTEM, RANK_TOL, LinearMap, NormedSpace, map_dist

UNIT_TOL = 1e-9
WEIGHT_TOL = 1e-9
SEPARATION_TAU = 0.5  # least separation margin certified for each new extreme row


class FunctionSystem(NormedSpace):
    """A presented space with an order unit normed by its own state rows."""

    def __init__(self, norming, unit, label=None):
        super().__init__(norming, label=label)
        u = np.asarray(unit, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError("unit must be a vector of the space dimension")
        vals = self.norming @ u
        if np.max(np.abs(vals - 1.0)) > UNIT_TOL:
            raise ValueError("every norming row must take value 1 at the unit")
        self.unit = u.copy()
        self.unit.setflags(write=False)

    def state(self, weights):
        return StateVector(self, weights)


def simplex_system(n):
    """The coordinate function system: identity rows, unit all ones."""
    return FunctionSystem(np.eye(n), np.ones(n), label=f"simplex({n})")


def system_to_json(system):
    data = space_to_json(system)
    data["unit"] = fmt_vector(system.unit)
    return data


def system_from_json(data):
    base = space_from_json(data)
    return FunctionSystem(base.norming, parse_vector(data["unit"]), label=base.label)


class StateVector:
    """A state given as a convex combination of the presentation rows."""

    def __init__(self, system, weights):
        lam = np.asarray(weights, dtype=float)
        if lam.shape != (system.rows,):
            raise ValueError("need one weight per presentation row")
        if np.min(lam) < -WEIGHT_TOL:
            raise ValueError(f"negative state weight {np.min(lam):.3e}")
        if abs(np.sum(lam) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"state weights sum to {np.sum(lam)}")
        self.system = system
        self.weights = np.clip(lam, 0.0, None)
        self.weights = self.weights / np.sum(self.weights)

    @property
    def functional(self):
        return self.weights @ self.system.norming

    def __call__(self, x):
        return float(self.functional @ np.asarray(x, dtype=float))


def _hull_distance(hull, w, row):
    """Dual-norm distance from row to the convex hull of the rows of hull.

    min sum |mu| over hull weights nu and representations
    (row - nu' hull) = mu' w, the dual norm being that of the space
    presented by w. Returns (distance, nu).
    """
    lp = LPBuilder()
    nu = lp.new_vars(hull.shape[0])
    mu = lp.new_vars(2 * w.shape[0])
    t = lp.new_vars()
    lp.nonneg(nu)
    rep = lp.dual_ball_rep(mu, w, 0.0, (t, -1.0))
    lp.add_eq(row, (nu, hull.T), (mu, rep))
    lp.add_eq(1.0, (nu, 1.0))
    res = lp.solve(t)
    return max(res.value, 0.0), res.x[nu]


def state_distance(space, row):
    """Dual-norm distance from a functional to the state set of a space.

    The states are the convex hull of the presentation rows, and the
    distance is exact because the dual ball is by definition the absolute
    hull of the rows. Returns (distance, weights of the nearest state).
    """
    dist, lam = _hull_distance(space.norming, space.norming, row)
    lam = np.clip(lam, 0.0, None)
    return dist, lam / max(np.sum(lam), 1e-300)


def project_rows_to_states(space, rows):
    """Replace each functional row by its nearest state of the space."""
    out = []
    for r in np.atleast_2d(rows):
        _, lam = state_distance(space, r)
        out.append(lam @ space.norming)
    return np.array(out)


def perturb_to_unital_positive(f, delta):
    """Nearest unital positive map to f between function systems.

    One joint LP: the rows of the candidate g, read through the codomain
    states, must be states of the domain, and the sup distance to f is
    minimized. The distance of the optimum is certified against 2*delta,
    the perturbation constant of the class.
    """
    dom, cod = f.dom, f.cod
    if not isinstance(dom, FunctionSystem) or not isinstance(cod, FunctionSystem):
        raise ValueError("perturb_to_unital_positive needs function systems on both sides")
    w_d = dom.norming
    w_c = cod.norming
    lp = LPBuilder()
    g_vars = lp.new_vars(cod.dim, dom.dim)
    # per codomain row: state weights lam and representation mu of the gap
    per_row = lp.new_vars(w_c.shape[0], 3 * w_d.shape[0])
    lams, mus = per_row[:, : w_d.shape[0]], per_row[:, w_d.shape[0] :]
    t = lp.new_vars()
    for l in range(w_c.shape[0]):
        # w_l G = lam_l' W_d  and  w_l f - w_l G = mu_l' W_d
        target = w_c[l] @ f.matrix
        lp.nonneg(lams[l])
        rep = lp.dual_ball_rep(mus[l], w_d, 0.0, (t, -1.0))
        for c in range(dom.dim):
            lp.add_eq(0.0, (g_vars[:, c], w_c[l]), (lams[l], -w_d[:, c]))
            lp.add_eq(target[c], (g_vars[:, c], w_c[l]), (mus[l], rep[c]))
        lp.add_eq(1.0, (lams[l], 1.0))
    res = lp.solve(t)
    g_mat = res.x[g_vars]
    g = LinearMap(dom, cod, g_mat)
    defect = map_dist(f, g)
    cert = UNITAL_PERTURBATION.certificate(2.0 * delta, defect, f=f, g=g, delta=delta)
    return g, defect, cert


UNITAL_PERTURBATION = Claim("unital_perturbation", 1e-7, map_dist, f=MAP, g=MAP, delta=(fmt_real, None))


# ---------------------------------------------------------------------------
# the extending step of the dense-extreme-boundary tower


def _ext_margin(system, idx):
    """Dual-norm separation of row idx from the hull of the other rows."""
    w = system.norming
    return _hull_distance(np.delete(w, idx, axis=0), w, w[idx])[0]


def _poulsen_gap(system, new_row, tau):
    """How far the margin of the new row falls short of tau; the build
    subtracts the margin it reports instead of measuring it again."""
    return tau - _ext_margin(system, new_row)


POULSEN_SEPARATION_GAP = Claim(
    "poulsen_separation_gap", 1e-9, _poulsen_gap,
    system=(system_to_json, system_from_json), new_row=(str, int), tau=REAL, target_weights=(fmt_vector, None),
)


class PoulsenStep:
    def __init__(self, system, phi, new_row_index, margin, certificate):
        self.system = system
        self.phi = phi
        self.new_row_index = new_row_index
        self.margin = margin
        self.certificate = certificate


def poulsen_extension_step(system, target, tau=SEPARATION_TAU):
    """Extend a function system by one coordinate that evaluates a state.

    target is a StateVector (or weight vector) of the current system. The
    new system appends the coordinate x -> target(x); old rows lift with a
    zero in the new slot and the new coordinate functional joins the
    presentation. The lift of the old unit extends by value one, the
    embedding is exactly unital and isometric, and on the image of the old
    system the new row restricts to the chosen state -- which is now
    separated from the hull of the other rows by a measured margin
    (trivially at least one in the new coordinate, but measured in the
    dual norm and certified against tau, not assumed).
    """
    if not isinstance(system, FunctionSystem):
        raise ValueError("poulsen_extension_step needs a function system")
    if not isinstance(target, StateVector):
        target = StateVector(system, target)
    n = system.dim
    func = target.functional
    new_norming = np.zeros((system.rows + 1, n + 1))
    new_norming[: system.rows, :n] = system.norming
    new_norming[system.rows, n] = 1.0
    new_unit = np.concatenate([system.unit, [1.0]])
    grown = FunctionSystem(new_norming, new_unit, label=f"{system.label or 'sys'}+state")
    phi_mat = np.zeros((n + 1, n))
    phi_mat[:n, :] = np.eye(n)
    phi_mat[n, :] = func
    phi = LinearMap(system, grown, phi_mat)
    idx = system.rows
    margin = _ext_margin(grown, idx)
    cert = POULSEN_SEPARATION_GAP.certificate(
        0.0, tau - margin, system=grown, new_row=idx, tau=tau, target_weights=target.weights
    )
    return PoulsenStep(grown, phi, idx, margin, cert)


def build_poulsen_chain(depth, targets_per_step=1, *, seed):
    """Seeded tower of function systems with progressively denser extreme rows.

    Starts from the two point simplex system; each step draws mixture
    states (seeded dirichlet over the current rows) and realizes each as
    an exactly extreme row one coordinate up, its separation margin
    certified against SEPARATION_TAU. Step records carry the measured
    separation margins and the measured cover radius of a fixed probe
    family (distance from probe states to the nearest extreme row), which
    is the quantity that is supposed to shrink as the tower grows. Every
    stage is identity normed (each step appends a coordinate row), so
    every row is extreme. params records SEPARATION_TAU as "tau" and the
    FUNCTION_SYSTEM modulus beside the arguments.
    """
    rng = np.random.default_rng(seed)
    system = simplex_system(2)
    stages = [system]
    connectives = []
    records = []
    probes = [rng.dirichlet(np.full(2, 0.7)) for _ in range(4)]
    for k in range(1, depth + 1):
        cur = stages[-1]
        lift = LinearMap.identity(cur)
        grown = cur
        margins = []
        for j in range(targets_per_step):
            if j % 2 == 0:
                weights = rng.dirichlet(np.full(grown.rows, 0.5))
            else:
                # every other target sits on the original edge, so the probe
                # family really does get approximated as the tower grows
                weights = np.zeros(grown.rows)
                weights[:2] = rng.dirichlet(np.full(2, 0.7))
            step = poulsen_extension_step(grown, weights)
            lift = step.phi @ lift
            grown = step.system
            margins.append(step.margin)
        connectives.append(lift)
        stages.append(grown)
        # probe states lift along the tower: their functionals pull back, and
        # the cover radius is the distance to the nearest row
        cover = 0.0
        for pw in probes:
            base = np.zeros(grown.rows)
            base[:2] = pw
            probe_func = base @ grown.norming
            best = np.inf
            for idx in range(grown.rows):
                d = grown.dual_norm(probe_func - grown.norming[idx])
                best = min(best, d)
            cover = max(cover, best)
        records.append(
            {
                "stage": k,
                "margins": [fmt_real(m) for m in margins],
                "cover_radius": fmt_real(cover),
                "dims": grown.dim,
            }
        )
    params = {
        "depth": depth,
        "targets_per_step": targets_per_step,
        "seed": seed,
        "tau": fmt_real(SEPARATION_TAU),
        "modulus": modulus_to_json(FUNCTION_SYSTEM),
    }
    chain = StageChain("poulsen", stages, connectives, records, params)
    return chain


# ---------------------------------------------------------------------------
# explicit minimality embeddings


class MinimalityResult:
    def __init__(self, phi, defect, block_mass, certificate):
        self.phi = phi
        self.defect = defect
        self.block_mass = block_mass
        self.certificate = certificate


def _minimality_defect(s, t, phi):
    """The pullback error sum |t phi - s|, the dual norm on a coordinate system."""
    return float(np.sum(np.abs(t @ phi.matrix - s)))


MINIMALITY_DEFECT = Claim("minimality_defect", 1e-9, _minimality_defect, s=VECTOR, t=VECTOR, phi=MAP)


def minimality_map(s, t, eps):
    """Unital isometry of coordinate systems pulling the state t back near s.

    s lives on d coordinates, t on m. The map replicates the functional
    x -> s(x) on the first m - d output coordinates and keeps an identity
    block on the last d, so it is exactly unital, positive, and isometric
    with no tolerance. The d lightest atoms of t ride the identity block
    (matched to the weights of s by exhausting the d! assignments), hence
    the pullback error is at most twice their mass; with
    eta = eps / (2 d) and m at least ceil(1/eta) + d, which is checked,
    that mass is under d * eta and the pullback lands within eps of s,
    the certificate's bound. The error is the dual norm of the
    difference, computed both in closed form and by LP.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    d, m = s.shape[0], t.shape[0]
    eta = eps / (2.0 * d)
    need = int(np.ceil(1.0 / eta)) + d
    if m < need:
        raise ValueError(f"need at least {need} output coordinates for eps={eps}, got {m}")
    if np.min(s) < -1e-12 or abs(np.sum(s) - 1.0) > 1e-9:
        raise ValueError("s must be a probability vector")
    if np.min(t) < -1e-12 or abs(np.sum(t) - 1.0) > 1e-9:
        raise ValueError("t must be a probability vector")

    light = list(np.argsort(t, kind="stable")[:d])
    block_mass = float(np.sum(t[light]))
    # match the light atoms to coordinates of s for the smallest pullback error
    best_perm, best_err = None, np.inf
    for perm in itertools.permutations(range(d)):
        err = sum(abs(t[light[i]] - block_mass * s[perm[i]]) for i in range(d))
        if err < best_err:
            best_err, best_perm = err, perm

    dom = simplex_system(d)
    cod = simplex_system(m)
    phi_mat = np.zeros((m, d))
    for i in range(m):
        if i in light:
            phi_mat[i, best_perm[light.index(i)]] = 1.0
        else:
            phi_mat[i, :] = s
    phi = LinearMap(dom, cod, phi_mat)

    closed = _minimality_defect(s, t, phi)
    lp_val = dom.dual_norm(t @ phi_mat - s)
    if abs(closed - lp_val) > 1e-7:
        raise RuntimeError(f"dual norm disagreement: closed {closed} vs LP {lp_val}")
    payload = {"block_mass": fmt_real(block_mass)}
    cert = MINIMALITY_DEFECT.certificate(eps, closed, payload=payload, s=s, t=t, phi=phi)
    return MinimalityResult(phi, closed, block_mass, cert)


# ---------------------------------------------------------------------------
# quotient and ideal checks


class BallCheckResult:
    def __init__(self, claim, violation, eps, inputs):
        self.claim = claim
        self.violation = violation
        self.eps = eps
        self.inputs = inputs

    @property
    def feasible(self):
        return self.violation <= 1e-9

    def certificate(self):
        return self.claim.certificate(0.0, self.violation, **self.inputs)


def _facial_violation(space, p, y, eps):
    w = space.norming
    lp = LPBuilder()
    v = lp.new_vars(space.dim)
    s = lp.new_vars()
    for l in range(w.shape[0]):
        lp.add_ub(0.0, (v, -w[l]), (s, -1.0))  # W v >= -s
        lp.add_ub(1.0, (v, w[l]), (s, -1.0))  # W v <= 1 + s
        for sign in (1.0, -1.0):
            # W(v - sign*y) >= -eps - s
            lp.add_ub(-float(w[l] @ (sign * y)) + eps, (v, -w[l]), (s, -1.0))
    for q in range(p.shape[0]):
        for sign in (1.0, -1.0):
            lp.add_ub(eps, (v, sign * p[q]), (s, -1.0))  # |P v| <= eps + s
    return max(lp.solve(s).value, 0.0)


def facial_quotient_check(system, p, y, eps):
    """Order side ideal check at one kernel sample.

    Asks for v in the order interval [0, unit] (up to slack), annihilated
    by the quotient matrix p up to eps, dominating both y and -y in the
    order up to eps. The reported violation is the smallest slack making
    the system feasible: zero for honest facial kernels, quantifiably
    positive when the kernel cannot dominate its own samples.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    y = np.asarray(y, dtype=float)
    violation = _facial_violation(system, p, y, eps)
    return BallCheckResult(FACIAL_QUOTIENT, violation, eps, {"space": system, "p": p, "y": y, "eps": eps})


FACIAL_QUOTIENT = Claim("facial_quotient", 1e-9, _facial_violation, space=SPACE, p=MATRIX, y=VECTOR, eps=REAL)


def _biface_violation(space, p, x, y, eps):
    w = space.norming
    lp = LPBuilder()
    v = lp.new_vars(space.dim)
    s = lp.new_vars()
    for shift in (x + y, x - y):
        base = w @ shift
        for l in range(w.shape[0]):
            for sign in (1.0, -1.0):
                # |W(v - shift)| <= 1 + eps + s
                lp.add_ub(1.0 + eps + sign * base[l], (v, sign * w[l]), (s, -1.0))
    for q in range(p.shape[0]):
        for sign in (1.0, -1.0):
            lp.add_ub(eps, (v, sign * p[q]), (s, -1.0))
    return max(lp.solve(s).value, 0.0)


def biface_check(space, p, x, y, eps):
    """Two sided ball intersection check for the kernel of p at (x, y).

    x is a unit ball element of the space, y a unit ball element of the
    kernel. A kernel with the ideal intersection property admits v close
    to the kernel with both x + y and x - y within the closed unit ball
    around it, up to eps. Violation zero certifies the instance; a
    positive violation is a quantified counterexample.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    violation = _biface_violation(space, p, x, y, eps)
    return BallCheckResult(BIFACE_BALL, violation, eps, {"space": space, "p": p, "x": x, "y": y, "eps": eps})


BIFACE_BALL = Claim("biface_ball", 1e-9, _biface_violation, space=SPACE, p=MATRIX, x=VECTOR, y=VECTOR, eps=REAL)


def kernel_basis(p):
    """Orthonormal basis of ker p with deterministic signs; the rank
    cutoff is RANK_TOL * max(1, s0), s0 the largest singular value."""
    return _null_basis(p, 1.0)


def _null_basis(p, floor):
    """Orthonormal basis of ker p by SVD, each column's first nonzero
    entry made positive; singular values up to RANK_TOL * max(floor, s0)
    count as zero, s0 the largest."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    _, sv, vt = np.linalg.svd(p)
    rank = int(np.sum(sv > RANK_TOL * max(floor, sv[0] if sv.size else 1.0)))
    basis = vt[rank:].T
    cols = []
    for c in basis.T:
        nz = np.nonzero(np.abs(c) > 1e-12)[0]
        if nz.size and c[nz[0]] < 0:
            c = -c
        cols.append(c)
    return np.column_stack(cols) if cols else np.zeros((p.shape[1], 0))


def find_biface_counterexample(space, p, eps):
    """Grid search for a quantified failure of the ball intersection check.

    Scans sign-pattern ball elements x and kernel combinations y scaled to
    the unit ball; returns the first (x, y, violation) with violation
    above eps, or None.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    basis = kernel_basis(p)
    if basis.shape[1] == 0:
        return None
    xs = []
    for bits in itertools.product([-1.0, 0.0, 1.0], repeat=space.dim):
        v = np.array(bits)
        nv = space.norm(v)
        if nv > 1e-12:
            xs.append(v / nv)
    ys = []
    for bits in itertools.product([-1.0, 0.0, 1.0], repeat=basis.shape[1]):
        coef = np.array(bits)
        if not np.any(coef):
            continue
        v = basis @ coef
        nv = space.norm(v)
        if nv > 1e-12:
            ys.append(v / nv)
    for y in ys:
        for x in xs:
            violation = _biface_violation(space, p, x, y, eps)
            if violation > eps:
                return x, y, violation
    return None
