"""Correctness checks that do not reuse the code path under test.

Nothing here calls `fraisse.lp` or the library's norm routines. Operator
norms out of a space of dimension at most two are recomputed by
enumerating the vertices of its unit ball (every vertex lies on two signed
norming lines); maps between identity-normed spaces are judged by their
absolute row sums; state and simplex quantities by their closed forms.
Each `*_problems` function returns (operation, message) pairs, none when
the output is right.
"""

import itertools

import numpy as np

REL_TOL = 1e-7


def ball_vertices(norming):
    """Vertices of {x : |W x| <= 1} for W with one or two columns."""
    w = np.asarray(norming, dtype=float)
    if w.shape[1] == 1:
        r = 1.0 / float(np.max(np.abs(w)))
        return [np.array([r]), np.array([-r])]
    if w.shape[1] != 2:
        raise ValueError("vertex enumeration is implemented for dimension <= 2")
    rows = np.vstack([w, -w])
    verts = []
    for a, b in itertools.combinations(rows, 2):
        m = np.vstack([a, b])
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(b) + 1.0):
            continue
        v = np.linalg.solve(m, np.ones(2))
        if np.max(np.abs(w @ v)) <= 1.0 + 1e-9:
            verts.append(v)
    return verts


def op_norm_small(dom_norming, cod_norming, matrix):
    """Operator norm of `matrix` out of a space of dimension <= 2."""
    wm = np.asarray(cod_norming, dtype=float) @ np.asarray(matrix, dtype=float)
    return max(float(np.max(np.abs(wm @ v))) for v in ball_vertices(dom_norming))


def linf_row_sum(matrix):
    """Operator norm of a map between identity-normed spaces."""
    return float(np.max(np.sum(np.abs(np.asarray(matrix, dtype=float)), axis=1)))


def agree(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * (1.0 + abs(b))


def is_identity_normed(space):
    w = space.norming
    return w.shape[0] == w.shape[1] and np.array_equal(w, np.eye(w.shape[1]))


def linf_isometry_problems(op, what, matrix, tol=1e-9):
    """An l-infinity isometry: rows of absolute sum <= 1, and for every
    domain coordinate a row that is (up to tol) a signed unit vector."""
    m = np.asarray(matrix, dtype=float)
    out = []
    if linf_row_sum(m) > 1.0 + tol:
        out.append((op, f"{what}: absolute row sum {linf_row_sum(m):.3e} > 1"))
    for j in range(m.shape[1]):
        if not np.any(np.abs(np.abs(m[:, j]) - 1.0) <= tol):
            out.append((op, f"{what}: domain coordinate {j} has no signed unit row"))
    return out


def defect_problems(op, measured, bound, indep, tol=REL_TOL):
    """A measured defect must match its independent recomputation and bound."""
    out = []
    if not agree(measured, indep):
        out.append((op, f"{op}: measured {measured:.9e} but the independent route gives {indep:.9e}"))
    if indep > bound + tol:
        out.append((op, f"{op}: defect {indep:.6e} exceeds its bound {bound:.6e}"))
    return out


def verify_problems(op, faithful):
    return [] if faithful else [(op, f"{op}: verify_certificate reports unfaithful")]


def contraction_problems(op, name, matrix):
    """A map between identity-normed spaces must have absolute row sums <= 1."""
    total = linf_row_sum(matrix)
    return [(op, f"{op}: {name} has absolute row sum {total:.9e} > 1")] if total > 1.0 + REL_TOL else []


def qubit_projectors():
    """The lightness test family, rebuilt here: identity, half identity,
    the six octahedral and the four tetrahedral rank-one projectors."""
    eye = np.eye(2, dtype=complex)
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    fam = [eye, eye / 2.0]
    for p in paulis:
        fam += [(eye + p) / 2.0, (eye - p) / 2.0]
    r = 1.0 / np.sqrt(3.0)
    for v in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        fam.append((eye + r * sum(c * p for c, p in zip(v, paulis))) / 2.0)
    return fam
