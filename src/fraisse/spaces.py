"""Finite-dimensional real normed spaces presented by norming functionals.

A space is a pair (R^n, W) where the rows f_1..f_N of W are functionals
and the norm is max_i |f_i(x)|. The dual unit ball is by definition the
absolutely convex hull of the rows, which turns every norm, operator norm,
distortion and extension question below into a finite linear program.
The canonical map x -> (f_1(x), ..., f_N(x)) is then an isometry into
linf^N, and spaces with identity norming play the role of the injective
objects everything else extends into.
"""

import math

import numpy as np

from .lp import LPInfeasible, current_engine, l1_template, solve_lp

MORPHISM_TOL = 1e-7
RANK_TOL = 1e-10


class Modulus:
    """Tolerance amplification of a class: how much an extension may move.

    kind "banach" evaluates to delta itself (a normalization choice for the
    real Banach class, see README); kind "function_system" evaluates to
    2*delta, the loss of forcing a near-morphism back to an exactly unital
    positive one.
    """

    def __init__(self, kind):
        if kind not in ("banach", "function_system"):
            raise ValueError(f"unknown modulus kind {kind!r}")
        self.kind = kind

    def __call__(self, delta):
        if delta < 0:
            raise ValueError("modulus argument must be nonnegative")
        return float(delta) if self.kind == "banach" else 2.0 * float(delta)

    def __repr__(self):
        return f"Modulus({self.kind!r})"

    def __eq__(self, other):
        return isinstance(other, Modulus) and other.kind == self.kind


BANACH = Modulus("banach")
FUNCTION_SYSTEM = Modulus("function_system")


def _require_full_column_rank(a, what):
    """Raise ValueError unless the columns of a are independent: the smallest
    singular value must exceed RANK_TOL * max(1, the largest)."""
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= RANK_TOL * max(1.0, sv[0]):
        raise ValueError(f"{what}: smallest singular value {sv[-1]:.3e}")


class NormedSpace:
    """R^dim with norm max_i |f_i(x)| for the rows f_i of `norming`.

    The norming matrix must have full column rank, otherwise the formula
    only gives a seminorm and the construction is rejected.
    """

    def __init__(self, norming, label=None):
        w = np.array(norming, dtype=float)
        if w.ndim != 2:
            raise ValueError("norming must be a matrix (rows are functionals)")
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError("zero-dimensional spaces are rejected")
        if not np.all(np.isfinite(w)):
            raise ValueError("norming entries must be finite")
        _require_full_column_rank(w, f"norming matrix has rank < {w.shape[1]}, the rows only give a seminorm")
        w.setflags(write=False)
        self.norming = w
        self.dim = w.shape[1]
        self.rows = w.shape[0]
        self.label = label if label is not None else f"space{self.dim}r{self.rows}"

    @property
    def is_linf(self):
        return self.rows == self.dim and np.array_equal(self.norming, np.eye(self.dim))

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.max(np.abs(self.norming @ x)))

    def ball_constraints(self, radius=1.0):
        """(A, b) with A x <= b describing the ball of the given radius."""
        a = np.vstack([self.norming, -self.norming])
        b = np.full(2 * self.rows, float(radius))
        return a, b

    def support_value(self, g, radius=1.0):
        """max g.x over the ball, as an LP over the polytope."""
        a, b = self.ball_constraints(radius)
        return solve_lp(np.asarray(g, dtype=float), a_ub=a, b_ub=b).value

    def dual_norm(self, g):
        """Least coefficient sum representing g over the rows.

        Exact because the dual ball is the absolutely convex hull of the
        rows: g = lambda^T W with minimal sum |lambda|. Returns the value;
        `dual_representation` also returns the coefficients.
        """
        value, _ = self.dual_representation(g)
        return value

    def dual_representation(self, g):
        res = _least_coefficient_sum(self.norming.T, np.asarray(g, dtype=float))
        return res.value, res.x[: self.rows]

    def __repr__(self):
        return f"NormedSpace(dim={self.dim}, rows={self.rows}, label={self.label!r})"


def _least_coefficient_sum(a, g):
    """min sum |lambda| subject to a @ lambda = g.

    Variables (lambda, u) as in `lp.l1_template`, which gives the LP all
    but its equality rows (a, 0) = g; the columns of a are the
    functionals lambda combines.
    """
    k, nr = a.shape
    c, a_ub, b_ub = l1_template(nr)
    a_eq = np.hstack([a, np.zeros((k, nr))])
    return solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=g, maximize=False)


class LinfSpace(NormedSpace):
    """linf^n: identity norming. These are the injective targets."""

    def __init__(self, dim, label=None):
        super().__init__(np.eye(int(dim)), label=label or f"linf^{int(dim)}")


class LinearMap:
    """A matrix between two presented spaces; norms are computed lazily."""

    def __init__(self, dom, cod, matrix):
        m = np.array(matrix, dtype=float)
        if m.shape != (cod.dim, dom.dim):
            raise ValueError(f"matrix shape {m.shape} does not match cod {cod.dim} x dom {dom.dim}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        self.dom = dom
        self.cod = cod
        self.matrix = m
        self._cache = {}

    @staticmethod
    def identity(space):
        return LinearMap(space, space, np.eye(space.dim))

    def apply(self, x):
        return self.matrix @ np.asarray(x, dtype=float)

    def __matmul__(self, other):
        if other.cod is not self.dom and other.cod.dim != self.dom.dim:
            raise ValueError("maps are not composable")
        return LinearMap(other.dom, self.cod, self.matrix @ other.matrix)

    def __sub__(self, other):
        if other.dom.dim != self.dom.dim or other.cod.dim != self.cod.dim:
            raise ValueError("maps live on different spaces")
        return LinearMap(self.dom, self.cod, self.matrix - other.matrix)

    def scale(self, t):
        return LinearMap(self.dom, self.cod, float(t) * self.matrix)

    def op_norm(self):
        """max over the domain ball of the codomain norm of the image.

        One value per codomain norming row: max g.x over |f_i(x)| <= 1 for
        g = g_j T. The ball is symmetric, so the negative sign of each row
        attains the same value and a single sign per row suffices. Each
        value is an LP, except out of an identity-normed domain on the
        float engine: there the ball is the box |x_i| <= 1, whose dual is
        the l1 ball, so the value is sum |g_i|, attained at the vertex
        x_i = 1 where g_i > 0 and -1 elsewhere. That vertex is the point
        HiGHS returns for the box LP, and g @ x is how the float engine
        turns its point into the value, so the sum is the LP's value bit
        for bit. A sum that is not finite (the map overflows) raises
        ValueError, as the LP route's input check does on a non-finite g.
        """
        key = ("op_norm", current_engine())
        if key not in self._cache:
            box = self.dom.is_linf and key[1] == "float"
            ball_a, ball_b = self.dom.ball_constraints()
            best = 0.0
            for row in self.cod.norming:
                g = row @ self.matrix
                if box:
                    value = float(g @ np.where(g > 0, 1.0, -1.0))
                    if not math.isfinite(value):
                        raise ValueError(f"op_norm overflows: a codomain row sums to {value}")
                else:
                    value = solve_lp(g, a_ub=ball_a, b_ub=ball_b).value
                best = max(best, value)
            self._cache[key] = best
        return self._cache[key]

    def distortion(self):
        """Worst norm loss over the ball of radius 2.

        For each domain norming row (one sign suffices, same symmetry as
        op_norm) solve: max f_i(x) - t with t >= |g_j(Tx)| for all j and
        |f_k(x)| <= 2. At the true maximizer some signed row is active, and
        every LP value is dominated by the true maximum, so the max over
        rows is exact.
        """
        key = ("distortion", current_engine())
        if key not in self._cache:
            if self.op_norm() > 1.0 + MORPHISM_TOL:
                raise ValueError(
                    f"distortion is defined for morphisms; op_norm = {self.op_norm():.6f} > 1"
                )
            n = self.dom.dim
            wt = self.cod.norming @ self.matrix
            ball_a, ball_b = self.dom.ball_constraints(2.0)
            # Variables (x, t).
            a_ub = np.vstack(
                [
                    np.hstack([wt, -np.ones((wt.shape[0], 1))]),
                    np.hstack([-wt, -np.ones((wt.shape[0], 1))]),
                    np.hstack([ball_a, np.zeros((ball_a.shape[0], 1))]),
                ]
            )
            b_ub = np.concatenate([np.zeros(2 * wt.shape[0]), ball_b])
            best = 0.0
            for row in self.dom.norming:
                c = np.concatenate([row, [-1.0]])
                val = solve_lp(c, a_ub=a_ub, b_ub=b_ub).value
                best = max(best, val)
            self._cache[key] = best
        return self._cache[key]

    def __repr__(self):
        return f"LinearMap({self.dom.label} -> {self.cod.label}, {self.cod.dim}x{self.dom.dim})"


def morphism_distortion(t):
    """The distortion of t when t is a morphism (op norm within MORPHISM_TOL
    of one), else +inf: a ranking score for candidate maps."""
    return t.distortion() if t.op_norm() <= 1.0 + MORPHISM_TOL else math.inf


def map_dist(f, g):
    """Sup distance of two maps with the same endpoints, as an operator norm."""
    return (f - g).op_norm()


def embed_linf(space):
    """The presentation map x -> (f_1(x), ..., f_N(x)), an exact isometry."""
    return LinearMap(space, LinfSpace(space.rows), np.array(space.norming))


def hahn_banach_extend(j, g, c, check=True):
    """Extend the functional g on dom(j) through the isometry j at bound c.

    Returns (h, lam): h is a functional on cod(j) with h(j(x)) = g(x)
    exactly and h = lam^T W for the codomain rows W with sum |lam| minimal.
    Minimality makes the coefficient-sum bound structural: whenever
    c >= the dual norm of g, the returned sum is <= c up to solver noise
    (an infeasibility here would mean the tolerance is too tight, so the
    caller can retry with c * (1 + 1e-9)).
    """
    g = np.asarray(g, dtype=float)
    x_space = j.cod
    c_max = c * (1.0 + 1e-9) + 1e-9
    if check:
        if j.distortion() > 1e-6:
            raise ValueError("hahn_banach_extend needs an isometric j")
        gnorm = j.dom.dual_norm(g)
        if gnorm > c_max:
            raise ValueError(f"functional norm {gnorm:.6e} exceeds the requested bound {c:.6e}")
    # Agreement on the subspace: lambda^T W J = g, an equality per domain coord.
    try:
        res = _least_coefficient_sum((x_space.norming @ j.matrix).T, g)
    except LPInfeasible:
        raise ValueError("extension system infeasible: j does not reach the functional's domain")
    lam = res.x[: x_space.rows]
    total = res.value
    if total > c_max:
        raise ValueError(
            f"minimal representing sum {total:.9e} exceeds the bound {c:.9e}; "
            "the bound is below the functional's true norm"
        )
    h = lam @ x_space.norming
    return h, lam


def extend_morphism(phi, f, delta, check=True):
    """Extend f through the near-isometry phi into an injective target.

    phi: X -> Xhat with distortion <= delta < 1, f: X -> A a contraction
    into a space with identity norming. Returns h: Xhat -> A with
    op_norm(h) <= 1 and sup distance of h(phi(.)) from f at most
    BANACH(delta). Each coordinate of f transfers to range(phi) with norm
    at most 1 + delta and extends by hahn_banach_extend at that bound,
    and the rows are then rescaled by 1/(1+delta).
    """
    target = f.cod
    if not target.is_linf:
        raise ValueError("extend_morphism needs an injective (identity-normed) target")
    if delta >= 1.0:
        raise ValueError(f"delta = {delta} >= 1: phi is not invertible enough to extend along")
    if check:
        d_meas = phi.distortion()
        if d_meas > delta + MORPHISM_TOL:
            raise ValueError(f"phi has distortion {d_meas:.6e} > promised {delta:.6e}")
        if f.op_norm() > 1.0 + MORPHISM_TOL:
            raise ValueError("f must be a contraction")
    rows = []
    bound = 1.0 + delta
    for r in f.matrix:
        h, _ = hahn_banach_extend(phi, r, bound, check=False)
        rows.append(h)
    return LinearMap(phi.cod, target, np.array(rows) / bound)
