"""Self-contained reference computations used to cross-check the library.

Everything here is deliberately independent of the LP layer: vertices by
pairwise line intersection, norms by direct evaluation, minima of
piecewise linear functions by breakpoint enumeration. Most routines only
work in two dimensions, which is why the random cross-check instances
are pinned there.
"""

import numpy as np

from fraisse.spaces import LinearMap

FEAS_TOL = 1e-9


def ball_vertices(space, radius=1.0):
    """Vertices of {x : |Wx| <= radius} for a 2-d space, in angular order.

    Every vertex lies on two signed constraint lines; enumerate all pairs,
    solve the 2x2 systems, keep the feasible intersections, dedupe.
    """
    if space.dim != 2:
        raise ValueError("vertex enumeration oracle is 2-d only")
    rows = np.vstack([space.norming, -space.norming])
    n = rows.shape[0]
    verts = []
    for i in range(n):
        for j in range(i + 1, n):
            a = np.vstack([rows[i], rows[j]])
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            scale = np.linalg.norm(a[0]) * np.linalg.norm(a[1]) + 1.0
            if abs(det) <= 1e-12 * scale:
                continue
            v = np.linalg.solve(a, np.array([radius, radius]))
            if np.max(np.abs(space.norming @ v)) <= radius * (1.0 + FEAS_TOL) + FEAS_TOL:
                verts.append(v)
    out = []
    for v in verts:
        if not any(np.linalg.norm(v - u) <= 1e-8 * (1.0 + np.linalg.norm(v)) for u in out):
            out.append(v)
    out.sort(key=lambda v: np.arctan2(v[1], v[0]))
    return out


def support_oracle(space, g, radius=1.0):
    """max g.x over the ball, evaluated at the enumerated vertices.

    At radius 1 this equals the dual norm of g: the polar of the ball is
    the absolutely convex hull of the rows, so the least representing
    coefficient sum and the support value coincide.
    """
    g = np.asarray(g, dtype=float)
    return max(float(g @ v) for v in ball_vertices(space, radius))


def op_norm_oracle(t):
    """max over the enumerated domain ball vertices of the image norm."""
    return max(
        float(np.max(np.abs(t.cod.norming @ (t.matrix @ v))))
        for v in ball_vertices(t.dom, 1.0)
    )


def _edge_min_linf(a, b):
    """Exact min over s in [0, 1] of max_j |a_j + s b_j|.

    The function is convex piecewise linear in s; its minimum sits at an
    endpoint or at a crossing of two of the affine pieces, so evaluating
    at the endpoints, the component zeros and all signed pairwise
    crossings is exhaustive.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cands = {0.0, 1.0}
    m = len(a)
    for j in range(m):
        if abs(b[j]) > 1e-14:
            cands.add(-a[j] / b[j])
        for k in range(j + 1, m):
            for sg in (1.0, -1.0):
                db = b[j] - sg * b[k]
                if abs(db) > 1e-14:
                    cands.add(-(a[j] - sg * a[k]) / db)
    best = np.inf
    for s in cands:
        if -1e-12 <= s <= 1.0 + 1e-12:
            s = min(max(s, 0.0), 1.0)
            best = min(best, float(np.max(np.abs(a + s * b))))
    return best


def distortion_oracle(t):
    """Worst norm loss of a 2-d domain contraction, by edge minimization.

    The loss x -> |x| - |Tx| is positively homogeneous, so over the ball
    of radius 2 its maximum is attained on the boundary polygon (or is
    zero). On the boundary |x| = 2, leaving 2 minus the minimum of |Tx|
    over the polygon edges, each edge an exact piecewise linear problem.
    """
    verts = ball_vertices(t.dom, 2.0)
    wt = t.cod.norming @ t.matrix
    best = np.inf
    k = len(verts)
    for i in range(k):
        v0 = verts[i]
        v1 = verts[(i + 1) % k]
        best = min(best, _edge_min_linf(wt @ v0, wt @ (v1 - v0)))
    return max(0.0, 2.0 - best)


def random_norming(rng, max_rows=8, dim=2, min_rows=None):
    """A full-rank norming matrix with rows of moderate, varied length."""
    lo = dim if min_rows is None else min_rows
    while True:
        nr = int(rng.integers(lo, max_rows + 1))
        w = rng.normal(size=(nr, dim))
        lens = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-3)
        w = w / lens * rng.uniform(0.5, 1.5, size=(nr, 1))
        sv = np.linalg.svd(w, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            return w


def scaled(t, s):
    """The map s * t between the same two spaces."""
    return LinearMap(t.dom, t.cod, float(s) * t.matrix)
