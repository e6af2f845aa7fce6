"""Functional and morphism extension through near-isometries."""

import numpy as np
import pytest

import oracles
from fraisse.spaces import (
    BANACH,
    LinearMap,
    LinfSpace,
    NormedSpace,
    embed_linf,
    extend_morphism,
    hahn_banach_extend,
    map_dist,
)


def test_hahn_banach_agreement_and_minimality():
    rng = np.random.default_rng(29)
    for _ in range(40):
        dom = NormedSpace(oracles.random_norming(rng))
        j = embed_linf(dom)
        g = rng.normal(size=2)
        gnorm = oracles.support_oracle(dom, g)
        h, lam = hahn_banach_extend(j, g, gnorm * (1.0 + 1e-9) + 1e-9)
        # exact agreement on the range of j
        assert np.max(np.abs(h @ j.matrix - g)) <= 1e-8
        # minimal representing sum equals the functional's dual norm
        assert np.sum(np.abs(lam)) == pytest.approx(gnorm, abs=1e-7, rel=1e-7)
        assert np.max(np.abs(lam @ j.cod.norming - h)) <= 1e-10


def test_hahn_banach_bound_too_small():
    dom = NormedSpace([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    j = embed_linf(dom)
    g = np.array([1.0, 1.0])
    c = 0.5 * dom.dual_norm(g)
    with pytest.raises(ValueError, match="exceeds the requested bound"):
        hahn_banach_extend(j, g, c)
    # the LP route reports the same failure when the pre-check is skipped
    with pytest.raises(ValueError, match="exceeds the bound"):
        hahn_banach_extend(j, g, c, check=False)


def test_hahn_banach_checks_isometry():
    sp = LinfSpace(2)
    squash = LinearMap(sp, sp, [[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="isometric"):
        hahn_banach_extend(squash, np.array([1.0, 0.0]), 10.0)


def test_extend_morphism_exact_at_zero_delta():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dom = NormedSpace(oracles.random_norming(rng))
        phi = embed_linf(dom)
        f_mat = rng.normal(size=(2, 2))
        f = LinearMap(dom, LinfSpace(2), f_mat)
        f = oracles.scaled(f, 1.0 / max(1.0, f.op_norm() * (1 + 1e-12)))
        h = extend_morphism(phi, f, delta=0.0)
        assert map_dist(h @ phi, f) <= 1e-9
        assert h.op_norm() <= 1.0 + 1e-9


def test_extend_morphism_defect_bound():
    rng = np.random.default_rng(37)
    for delta in (0.05, 0.2):
        for _ in range(8):
            dom = NormedSpace(oracles.random_norming(rng))
            base = embed_linf(dom)
            # shrink the embedding a touch: distortion becomes exactly delta
            phi = oracles.scaled(base, 1.0 - delta)
            # loss over the radius-2 ball: 2 - 2 (1 - delta) exactly
            d = phi.distortion()
            assert d == pytest.approx(2.0 * delta, abs=1e-9)
            f = LinearMap(dom, LinfSpace(3), rng.normal(size=(3, 2)))
            f = oracles.scaled(f, 1.0 / max(1.0, f.op_norm() * (1 + 1e-12)))
            h = extend_morphism(phi, f, delta=d)
            assert map_dist(h @ phi, f) <= BANACH(d) + 1e-7
            assert h.op_norm() <= 1.0 + 1e-9


def test_extend_morphism_rejects_bad_inputs():
    dom = LinfSpace(2)
    phi = LinearMap.identity(dom)
    fat = LinearMap(dom, dom, 3.0 * np.eye(2))
    with pytest.raises(ValueError, match="contraction"):
        extend_morphism(phi, fat, delta=0.0)
    crooked = NormedSpace([[1.0, 1.0], [1.0, -1.0]])
    f = LinearMap(dom, crooked, 0.1 * np.eye(2))
    with pytest.raises(ValueError, match="identity-normed"):
        extend_morphism(phi, f, delta=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        extend_morphism(phi, LinearMap.identity(dom), delta=1.0)
    squash = LinearMap(dom, dom, 0.4 * np.eye(2))
    with pytest.raises(ValueError, match="distortion"):
        extend_morphism(squash, LinearMap.identity(dom), delta=0.01)
