"""Amalgamation and approximate pushouts of presented spaces.

The near-amalgamation takes two almost-embeddings of a common space E and
reconciles them inside the sup-product of their targets; the approximate
pushout does the same one-sidedly, with a finite witness family standing
in for a product over all compatible test pairs. One witness per norming
row of the codomain is what makes the canonical map into the pushout an
exact isometry, so nothing downstream depends on a property we did not
construct. The arrow-category variant amalgamates a square of maps and
induces the connecting map by injecting the target presentation's rows as
witnesses, which makes its two commutation identities hold exactly.
"""

import numpy as np

from .certify import MAP, Claim, fmt_real, fmt_vector, map_to_json, modulus_to_json
from .spaces import (
    BANACH,
    MORPHISM_TOL,
    LinearMap,
    LinfSpace,
    NormedSpace,
    extend_morphism,
    map_dist,
)

SPAN_TOL = 1e-8


def joint_embed(x, y):
    """Embed two spaces side by side in the sup-product of their presentations."""
    z = LinfSpace(x.rows + y.rows)
    ix = LinearMap(x, z, np.vstack([x.norming, np.zeros((y.rows, x.dim))]))
    iy = LinearMap(y, z, np.vstack([np.zeros((x.rows, y.dim)), y.norming]))
    return z, ix, iy


class AmalgamResult:
    def __init__(self, z, i, j, defect, delta):
        self.z = z
        self.i = i
        self.j = j
        self.defect = defect
        self.delta = delta

    @property
    def bound(self):
        return BANACH(self.delta)

    def certificate(self, f_x, f_y):
        return NAP_DEFECT.certificate(
            self.bound, self.defect, f_x=f_x, f_y=f_y, i=self.i, j=self.j, delta=self.delta, modulus=BANACH
        )


def _nap_defect(f_x, f_y, i, j):
    return map_dist(i @ f_x, j @ f_y)


NAP_DEFECT = Claim(
    "nap_defect", 1e-7, _nap_defect,
    f_x=MAP, f_y=MAP, i=MAP, j=MAP, delta=(fmt_real, None), modulus=(modulus_to_json, None),
)


def nap_amalgamate(f_x, f_y, delta=None):
    """Amalgamate two almost-embeddings of E into injective targets.

    f_x: E -> X, f_y: E -> Y with distortion <= delta, X and Y identity
    normed. Z is the sup-product X (+) Y; the first leg keeps X and smears
    it into Y by an extension of f_y along f_x, the second symmetrically,
    so both legs are exact isometries and the reconciliation defect is at
    most BANACH(delta) = delta.
    """
    if f_x.dom.dim != f_y.dom.dim:
        raise ValueError("the two almost-embeddings must share their domain")
    if not (f_x.cod.is_linf and f_y.cod.is_linf):
        raise ValueError("amalgamation targets must be identity normed")
    if delta is None:
        delta = max(f_x.distortion(), f_y.distortion())
    if delta >= 1.0:
        raise ValueError(f"delta = {delta} >= 1 rejected")
    h_x = extend_morphism(f_x, f_y, delta=delta, check=False)
    h_y = extend_morphism(f_y, f_x, delta=delta, check=False)
    nx, ny = f_x.cod.dim, f_y.cod.dim
    z = LinfSpace(nx + ny)
    i = LinearMap(f_x.cod, z, np.vstack([np.eye(nx), h_x.matrix]))
    j = LinearMap(f_y.cod, z, np.vstack([h_y.matrix, np.eye(ny)]))
    defect = _nap_defect(f_x, f_y, i, j)
    return AmalgamResult(z, i, j, defect, delta)


class PushoutResult:
    def __init__(self, yhat, fhat, j, family, defect, delta):
        self.yhat = yhat
        self.fhat = fhat
        self.j = j
        self.family = family
        self.defect = defect
        self.delta = delta

    @property
    def bound(self):
        return BANACH(self.delta)

    def certificate(self, phi, f):
        return PUSHOUT_DEFECT.certificate(
            self.bound, self.defect, phi=phi, f=f, fhat=self.fhat, j=self.j,
            delta=self.delta, modulus=BANACH, family=self.family,
        )


def _family_to_json(family):
    return [{"tag": tag, "g": fmt_vector(g), "h": fmt_vector(h)} for tag, g, h in family]


def _pushout_defect(phi, f, fhat, j):
    return map_dist(fhat @ phi, j @ f)


PUSHOUT_DEFECT = Claim(
    "pushout_defect", 1e-7, _pushout_defect,
    phi=MAP, f=MAP, fhat=MAP, j=MAP, delta=(fmt_real, None), modulus=(modulus_to_json, None),
    family=(_family_to_json, None),
)


def _independent_columns(cols):
    """Greedy deterministic pick of a well-conditioned spanning subset."""
    picked = []
    for col in cols.T:
        trial = picked + [col]
        sv = np.linalg.svd(np.column_stack(trial), compute_uv=False)
        if sv[-1] > SPAN_TOL * max(1.0, sv[0]):
            picked = trial
    return np.column_stack(picked)


def _coords_in(basis, vectors, what):
    sol, residual, *_ = np.linalg.lstsq(basis, vectors, rcond=None)
    resid = np.max(np.abs(basis @ sol - vectors)) if vectors.size else 0.0
    if resid > 1e-6:
        raise ValueError(f"{what}: generators do not lie in the constructed span (residual {resid:.3e})")
    return sol

def approx_pushout(phi, f, delta, extra_pairs=None):
    """Push f: X -> Y out along the almost-embedding phi: X -> Xhat.

    The witness family holds one scalar pair per norming row h of Y: a
    partner g on Xhat with sup|g(phi(.)) - h(f(.))| <= BANACH(delta),
    found by extension along phi. Stacking those coordinates gives
    j: Y -> Yhat exactly isometric; when f is itself an almost-embedding
    (distortion <= delta), rows of Xhat join the family the same way and
    fhat becomes isometric too. Yhat is the linear span of both ranges in
    the sup-product of the family. extra_pairs (tag "extra") are appended
    verbatim: contraction pairs the caller wants carried as coordinates.
    """
    if phi.dom.dim != f.dom.dim:
        raise ValueError("phi and f must share their domain")
    if delta >= 1.0:
        raise ValueError(f"delta = {delta} >= 1 rejected")
    if phi.distortion() > delta + MORPHISM_TOL:
        raise ValueError("phi has more distortion than promised")
    if f.op_norm() > 1.0 + MORPHISM_TOL:
        raise ValueError("f must be a contraction")
    one = LinfSpace(1)
    family = []
    for row in f.cod.norming:
        hf = LinearMap(f.dom, one, (row @ f.matrix).reshape(1, -1))
        g = extend_morphism(phi, hf, delta=delta, check=False)
        family.append(("cod", g.matrix.ravel().copy(), row.copy()))
    if f.distortion() <= delta + MORPHISM_TOL:
        for row in phi.cod.norming:
            gp = LinearMap(phi.dom, one, (row @ phi.matrix).reshape(1, -1))
            h = extend_morphism(f, gp, delta=delta, check=False)
            family.append(("dom", row.copy(), h.matrix.ravel().copy()))
    for g, h in extra_pairs or []:
        family.append(("extra", np.asarray(g, dtype=float).copy(), np.asarray(h, dtype=float).copy()))

    g_rows = np.array([g for _, g, _ in family])
    h_rows = np.array([h for _, _, h in family])
    generators = np.hstack([g_rows, h_rows])
    basis = _independent_columns(generators)
    yhat = NormedSpace(basis, label="pushout")
    fhat = LinearMap(phi.cod, yhat, _coords_in(basis, g_rows, "pushout fhat"))
    j = LinearMap(f.cod, yhat, _coords_in(basis, h_rows, "pushout j"))
    defect = _pushout_defect(phi, f, fhat, j)
    return PushoutResult(yhat, fhat, j, family, defect, delta)


class ArrowObject:
    """An object of the arrow class: a contraction between two spaces."""

    def __init__(self, t, label=None):
        self.t = t
        self.label = label or f"arrow({t.dom.label} -> {t.cod.label})"

    @property
    def dom(self):
        return self.t.dom

    @property
    def cod(self):
        return self.t.cod

    def __repr__(self):
        return f"ArrowObject({self.label})"


class ArrowMorphism:
    """A pair of maps intertwining two arrows up to a measured defect."""

    def __init__(self, src, dst, a0, a1):
        if a0.dom.dim != src.dom.dim or a0.cod.dim != dst.dom.dim:
            raise ValueError("a0 does not connect the arrow domains")
        if a1.dom.dim != src.cod.dim or a1.cod.dim != dst.cod.dim:
            raise ValueError("a1 does not connect the arrow codomains")
        self.src = src
        self.dst = dst
        self.a0 = a0
        self.a1 = a1

    def square_defect(self):
        return map_dist(self.dst.t @ self.a0, self.a1 @ self.src.t)

    def distortion(self):
        """Arrow-level distortion: component distortions plus the square defect."""
        return max(
            self.a0.distortion(),
            self.a1.distortion(),
            self.square_defect(),
        )

    def compose(self, other):
        """self after other (other: R -> S, self: S -> T)."""
        return ArrowMorphism(other.src, self.dst, self.a0 @ other.a0, self.a1 @ other.a1)


class ArrowPushoutResult:
    def __init__(self, shat, fhat, j, defect, delta):
        self.shat = shat
        self.fhat = fhat
        self.j = j
        self.defect = defect
        self.delta = delta

    @property
    def bound(self):
        return BANACH(self.delta) + 2.0 * self.delta

    def certificate(self, phi, f):
        return ARROW_PUSHOUT_DEFECT.certificate(
            self.bound, self.defect, that=phi.dst.t, s=f.dst.t, shat=self.shat.t,
            phi0=phi.a0, phi1=phi.a1, f0=f.a0, f1=f.a1, fhat0=self.fhat.a0, fhat1=self.fhat.a1,
            j0=self.j.a0, j1=self.j.a1, delta=self.delta, modulus=BANACH,
        )


def _arrow_pushout_defect(phi0, phi1, f0, f1, fhat0, fhat1, j0, j1):
    """The worse of the two pushout squares; the build keeps the max of the
    defects its two pushouts measured instead of solving them again."""
    return max(_pushout_defect(phi0, f0, fhat0, j0), _pushout_defect(phi1, f1, fhat1, j1))


ARROW_PUSHOUT_DEFECT = Claim(
    "arrow_pushout_defect", 1e-7, _arrow_pushout_defect,
    that=(map_to_json, None), s=(map_to_json, None), shat=(map_to_json, None),
    phi0=MAP, phi1=MAP, f0=MAP, f1=MAP, fhat0=MAP, fhat1=MAP, j0=MAP, j1=MAP,
    delta=(fmt_real, None), modulus=(modulus_to_json, None),
)


def arrow_pushout(phi, f, delta):
    """Amalgamate the arrows phi.dst and f.dst over their common source arrow.

    phi: T -> That with arrow distortion <= delta, f: T -> S an exact
    intertwining pair. The codomain square is pushed out first; its
    presentation rows, composed with (fhat1 That, j1 S), ride along as
    witnesses of the domain pushout, and reading those coordinates back
    off gives the connecting contraction Shat with
    Shat fhat0 = fhat1 That and Shat j0 = j1 S exactly. The measured
    defect is the worse of the two squares, bounded by
    BANACH(delta) + 2 delta.
    """
    if phi.src is not f.src and (
        phi.src.dom.dim != f.src.dom.dim or phi.src.cod.dim != f.src.cod.dim
    ):
        raise ValueError("phi and f must start at the same arrow")
    if delta >= 1.0:
        raise ValueError(f"delta = {delta} >= 1 rejected")
    if f.square_defect() > MORPHISM_TOL:
        raise ValueError("f must intertwine exactly (up to tolerance)")

    d1 = approx_pushout(phi.a1, f.a1, delta=delta)
    u = d1.fhat @ phi.dst.t
    v = d1.j @ f.dst.t
    arrow_rows = [
        (row @ u.matrix, row @ v.matrix) for row in d1.yhat.norming
    ]
    base_d0 = approx_pushout(phi.a0, f.a0, delta=delta, extra_pairs=arrow_rows)
    # The arrow witnesses sit in the last k1 rows of the domain pushout's
    # presentation (family order is preserved by the basis pick), so reading
    # those coordinates off a point of Yhat0 gives the sup-coordinates of its
    # image in Yhat1; solving against the Yhat1 basis recovers the connecting
    # contraction exactly on the whole span.
    k1 = len(arrow_rows)
    tail = base_d0.yhat.norming[-k1:, :]
    shat_matrix = _coords_in(d1.yhat.norming, tail, "arrow connecting map")
    shat = ArrowObject(LinearMap(base_d0.yhat, d1.yhat, shat_matrix))
    fhat = ArrowMorphism(phi.dst, shat, base_d0.fhat, d1.fhat)
    j = ArrowMorphism(f.dst, shat, base_d0.j, d1.j)
    defect = max(base_d0.defect, d1.defect)
    return ArrowPushoutResult(shat, fhat, j, defect, delta)
