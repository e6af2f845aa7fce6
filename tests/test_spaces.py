"""Presented normed spaces against the vertex-enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fraisse.spaces import (
    BANACH,
    FUNCTION_SYSTEM,
    LinearMap,
    LinfSpace,
    Modulus,
    NormedSpace,
    embed_linf,
    map_dist,
    morphism_distortion,
)


def diamond():
    # the 1-norm square: |x| + |y| <= 1 presented by the four diagonals
    return NormedSpace([[1.0, 1.0], [1.0, -1.0]])


def test_norm_formula():
    sp = diamond()
    assert sp.norm([1.0, 0.0]) == pytest.approx(1.0)
    assert sp.norm([0.5, 0.5]) == pytest.approx(1.0)
    assert sp.norm([-0.25, 0.0]) == pytest.approx(0.25)


def test_linf_flag():
    assert LinfSpace(3).is_linf
    assert not diamond().is_linf
    # identity rows in the wrong count do not qualify
    assert not NormedSpace(np.vstack([np.eye(2), [[1.0, 1.0]]])).is_linf


def test_rank_deficient_rejected():
    with pytest.raises(ValueError, match="seminorm"):
        NormedSpace([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        NormedSpace(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        NormedSpace([[np.inf, 0.0], [0.0, 1.0]])


def test_ball_constraints_shape():
    sp = diamond()
    a, b = sp.ball_constraints(1.5)
    assert a.shape == (4, 2)
    assert np.all(b == 1.5)
    x = np.array([0.7, 0.7])
    assert np.all(a @ x <= b + 1e-12)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_norm_axioms(seed, t):
    rng = np.random.default_rng(seed)
    sp = NormedSpace(oracles.random_norming(rng, max_rows=6))
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    assert sp.norm(t * x) == pytest.approx(abs(t) * sp.norm(x), abs=1e-9, rel=1e-9)
    assert sp.norm(x + y) <= sp.norm(x) + sp.norm(y) + 1e-9
    if sp.norm(x) < 1e-12:
        assert np.allclose(x, 0.0)


def test_dual_norm_against_vertex_support():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sp = NormedSpace(oracles.random_norming(rng))
        g = rng.normal(size=2)
        assert sp.dual_norm(g) == pytest.approx(
            oracles.support_oracle(sp, g), abs=1e-7, rel=1e-7
        )


def test_dual_representation_reconstructs():
    rng = np.random.default_rng(13)
    for _ in range(20):
        sp = NormedSpace(oracles.random_norming(rng))
        g = rng.normal(size=2)
        value, lam = sp.dual_representation(g)
        assert np.max(np.abs(lam @ sp.norming - g)) <= 1e-8
        assert np.sum(np.abs(lam)) == pytest.approx(value, abs=1e-8)


def test_support_value_is_dual_norm_at_radius_one():
    sp = diamond()
    g = np.array([1.0, 0.0])
    assert sp.support_value(g) == pytest.approx(sp.dual_norm(g), abs=1e-9)
    assert sp.support_value(g, radius=2.0) == pytest.approx(2.0 * sp.dual_norm(g), abs=1e-9)


def test_op_norm_against_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dom = NormedSpace(oracles.random_norming(rng))
        cod = NormedSpace(oracles.random_norming(rng))
        t = LinearMap(dom, cod, rng.normal(size=(2, 2)))
        assert t.op_norm() == pytest.approx(oracles.op_norm_oracle(t), abs=1e-7, rel=1e-7)


def test_distortion_against_oracle():
    rng = np.random.default_rng(19)
    for _ in range(30):
        dom = NormedSpace(oracles.random_norming(rng))
        cod = NormedSpace(oracles.random_norming(rng))
        m = rng.normal(size=(2, 2))
        t0 = LinearMap(dom, cod, m)
        t = LinearMap(dom, cod, m / max(1.0, t0.op_norm() * (1.0 + 1e-12)))
        assert t.distortion() == pytest.approx(oracles.distortion_oracle(t), abs=1e-7)


def test_distortion_requires_contraction():
    sp = LinfSpace(2)
    t = LinearMap(sp, sp, 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="op_norm"):
        t.distortion()


def test_identity_is_isometry():
    sp = diamond()
    ident = LinearMap.identity(sp)
    assert ident.op_norm() == pytest.approx(1.0, abs=1e-9)
    assert ident.distortion() <= 1e-9


def test_embed_linf_exact_isometry():
    rng = np.random.default_rng(23)
    three_rows = NormedSpace([[1.0, 1.0], [1.0, -1.0], [0.2, 0.9]])
    for k in range(11):
        sp = NormedSpace(oracles.random_norming(rng)) if k < 10 else three_rows
        j = embed_linf(sp)
        assert j.cod.is_linf and j.cod.dim == sp.rows
        assert j.op_norm() <= 1.0 + 1e-9
        assert j.distortion() <= 1e-9
        x = rng.normal(size=2)
        assert j.cod.norm(j.apply(x)) == pytest.approx(sp.norm(x), abs=1e-12)


def test_morphism_distortion_scores_only_contractions():
    j = embed_linf(NormedSpace([[1.0, 1.0], [1.0, -1.0], [0.2, 0.9]]))
    assert morphism_distortion(j.scale(1.5)) == np.inf
    assert morphism_distortion(j.scale(0.9)) == pytest.approx(0.2, abs=1e-9)


def test_map_algebra_shape_checks():
    a, b = LinfSpace(2), LinfSpace(3)
    f = LinearMap(a, b, np.zeros((3, 2)))
    g = LinearMap(b, a, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="composable"):
        _ = f @ f
    assert (g @ f).matrix.shape == (2, 2)
    with pytest.raises(ValueError, match="different spaces"):
        _ = f - g
    with pytest.raises(ValueError, match="shape"):
        LinearMap(a, b, np.zeros((2, 3)))


def test_map_dist_zero_on_equal():
    sp = diamond()
    f = LinearMap(sp, sp, [[0.3, 0.1], [0.0, 0.2]])
    assert map_dist(f, f) == pytest.approx(0.0, abs=1e-12)
    g = f.scale(0.5)
    assert map_dist(f, g) == pytest.approx((f - g).op_norm(), abs=1e-12)


def test_modulus_values():
    assert BANACH(0.2) == pytest.approx(0.2)
    assert FUNCTION_SYSTEM(0.2) == pytest.approx(0.4)
    assert BANACH == Modulus("banach")
    with pytest.raises(ValueError):
        Modulus("projective")
    with pytest.raises(ValueError):
        BANACH(-0.1)
