"""Function systems: states, dense-boundary tower, checks."""

import itertools

import numpy as np
import pytest

from fraisse.certify import parse_real, verify_certificate
from fraisse.spaces import LinfSpace
from fraisse.unital import (
    FunctionSystem,
    StateVector,
    biface_check,
    build_poulsen_chain,
    facial_quotient_check,
    find_biface_counterexample,
    kernel_basis,
    minimality_map,
    poulsen_extension_step,
    simplex_system,
)

# build_poulsen_chain(depth=5, seed=0), whose params record tau and the
# function-system modulus
POULSEN_HASH = "c69d731475db6452d89f2d3503e473fcb3f87d96d03f622d1de1348458e9e728"


def test_function_system_unit_validation():
    with pytest.raises(ValueError, match="value 1 at the unit"):
        FunctionSystem(np.eye(2), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="vector of the space dimension"):
        FunctionSystem(np.eye(2), np.ones(3))
    sys2 = simplex_system(2)
    assert np.array_equal(sys2.unit, np.ones(2))
    assert sys2.norm(sys2.unit) == pytest.approx(1.0)


def test_state_vector_validation_and_evaluation():
    sys3 = simplex_system(3)
    with pytest.raises(ValueError, match="one weight per"):
        StateVector(sys3, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="negative"):
        StateVector(sys3, np.array([-0.2, 0.6, 0.6]))
    with pytest.raises(ValueError, match="sum"):
        StateVector(sys3, np.array([0.5, 0.5, 0.5]))
    s = StateVector(sys3, np.array([0.2, 0.3, 0.5]))
    assert s.functional @ sys3.unit == pytest.approx(1.0)
    assert s.functional @ np.array([1.0, 0.0, 0.0]) == pytest.approx(0.2)


def test_poulsen_step_structure():
    sys2 = simplex_system(2)
    step = poulsen_extension_step(sys2, np.array([0.4, 0.6]))
    grown = step.system
    assert grown.dim == 3 and grown.rows == 3
    phi = step.phi
    # exactly unital and isometric
    assert np.max(np.abs(phi.apply(sys2.unit) - grown.unit)) <= 1e-12
    assert phi.op_norm() <= 1.0 + 1e-9
    assert phi.distortion() <= 1e-9
    # the new row restricts to the chosen state on the image
    assert np.max(np.abs(grown.norming[-1] @ phi.matrix - np.array([0.4, 0.6]))) <= 1e-12
    assert step.margin >= 0.5 - 1e-9
    assert step.certificate.passed
    ok, _ = verify_certificate(step.certificate)
    assert ok


def test_poulsen_chain_growth_and_margins():
    chain = build_poulsen_chain(depth=3, targets_per_step=1, seed=0)
    assert [s.dim for s in chain.stages] == [2, 3, 4, 5]
    for conn in chain.connectives:
        assert conn.op_norm() <= 1.0 + 1e-9
        assert conn.distortion() <= 1e-9
    for rec in chain.records:
        assert all(parse_real(v) >= 0.5 - 1e-9 for v in rec["margins"])
        assert parse_real(rec["cover_radius"]) >= 0.0
    again = build_poulsen_chain(depth=3, targets_per_step=1, seed=0)
    assert again.content_hash() == chain.content_hash()


def test_poulsen_stages_are_identity_normed():
    # the cover radius counts every row as extreme, which holds because each
    # step appends one coordinate row to an identity-normed stage
    for targets in (1, 3):
        chain = build_poulsen_chain(depth=4, targets_per_step=targets, seed=0)
        assert all(stage.is_linf for stage in chain.stages)


def test_poulsen_chain_frozen():
    assert build_poulsen_chain(depth=5, seed=0).content_hash() == POULSEN_HASH


def test_poulsen_cover_radius_trend():
    # growing the tower with boundary-edge targets shrinks the probe cover
    chain = build_poulsen_chain(depth=4, targets_per_step=2, seed=0)
    radii = [parse_real(rec["cover_radius"]) for rec in chain.records]
    assert min(radii[1:]) <= radii[0] + 1e-9


def test_minimality_map_exactness():
    rng = np.random.default_rng(59)
    d, eps = 2, 0.5
    eta = eps / (2 * d)
    m = int(np.ceil(1.0 / eta)) + d
    for _ in range(20):
        s = rng.dirichlet(np.ones(d))
        t = rng.dirichlet(np.ones(m))
        res = minimality_map(s, t, eps=eps)
        phi = res.phi
        assert np.max(np.abs(phi.matrix @ np.ones(d) - np.ones(m))) <= 1e-12
        assert np.min(phi.matrix) >= 0.0
        assert phi.op_norm() <= 1.0 + 1e-9
        assert phi.distortion() <= 1e-9
        assert res.defect <= eps + 1e-9
        assert res.defect <= 2.0 * res.block_mass + 1e-9
        assert res.certificate.passed
        ok, _ = verify_certificate(res.certificate)
        assert ok


@pytest.mark.parametrize("d", range(2, 7))
def test_minimality_map_finds_the_best_assignment(d):
    # the sorted matching of the light atoms to the weights of s, against
    # the best of all d! assignments
    rng = np.random.default_rng(60 + d)
    eps = 0.5
    m = int(np.ceil(2 * d / eps)) + d
    for _ in range(5):
        s = rng.dirichlet(np.ones(d))
        t = rng.dirichlet(np.ones(m))
        light = np.sort(t)[:d]
        perms = itertools.permutations(range(d))
        best = min(np.sum(np.abs(light - light.sum() * s[list(perm)])) for perm in perms)
        assert minimality_map(s, t, eps=eps).defect == pytest.approx(best, rel=1e-12, abs=1e-15)


def test_minimality_map_at_twelve_coordinates():
    # 12! = 479001600 assignments, none of them tried
    rng = np.random.default_rng(72)
    d, eps = 12, 0.5
    m = int(np.ceil(2 * d / eps)) + d
    res = minimality_map(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(m)), eps=eps)
    assert res.certificate.passed and res.defect <= 2.0 * res.block_mass + 1e-12


def test_minimality_map_validation():
    with pytest.raises(ValueError, match="at least"):
        minimality_map(np.array([0.5, 0.5]), np.ones(4) / 4.0, eps=0.5)
    with pytest.raises(ValueError, match="probability"):
        minimality_map(np.array([0.7, 0.5]), np.ones(10) / 10.0, eps=0.5)


def test_facial_check_passes_on_coordinate_projection():
    sys3 = simplex_system(3)
    p = np.array([[1.0, 0.0, 0.0]])
    y = np.array([0.0, 1.0, 0.0])
    res = facial_quotient_check(sys3, p, y, eps=1e-6)
    assert res.feasible
    cert = res.certificate()
    assert cert.passed
    ok, _ = verify_certificate(cert)
    assert ok


def test_biface_check_passes_on_coordinate_projection():
    space = LinfSpace(4)
    p = np.hstack([np.eye(2), np.zeros((2, 2))])
    x = np.array([0.3, -0.2, 1.0, 0.0])
    y = np.array([0.0, 0.0, 0.4, -1.0])
    res = biface_check(space, p, x, y, eps=1e-6)
    assert res.feasible
    assert res.certificate().passed


def test_kernel_basis_shapes_and_signs():
    p = np.array([[1.0, -1.0, 0.0]])
    b = kernel_basis(p)
    assert b.shape == (3, 2)
    assert np.max(np.abs(p @ b)) <= 1e-10
    # first nonzero entry of each column is positive
    for c in b.T:
        nz = np.nonzero(np.abs(c) > 1e-12)[0]
        assert c[nz[0]] > 0
    assert kernel_basis(np.eye(3)).shape == (3, 0)
    # here the SVD's first kernel vector leads with a negative entry
    s = np.sqrt(0.5)
    assert np.allclose(kernel_basis(np.array([[1.0, 1.0, 0.0]])), [[s, 0.0], [-s, 0.0], [0.0, 1.0]])


def test_biface_counterexample_on_skew_kernel():
    # x1 = x2 is not a coordinate kernel, so the two-ball property fails
    space = LinfSpace(3)
    p = np.array([[1.0, -1.0, 0.0]])
    found = find_biface_counterexample(space, p, eps=0.1)
    assert found is not None
    x, y, violation = found
    assert violation > 0.1
    res = biface_check(space, p, x, y, eps=0.1)
    assert not res.feasible
    cert = res.certificate()
    assert not cert.passed
    # the failed certificate still verifies faithfully
    ok, again = verify_certificate(cert)
    assert ok
    assert again == pytest.approx(violation, abs=1e-7)


def test_biface_counterexample_absent_for_coordinate_kernel():
    space = LinfSpace(2)
    p = np.array([[1.0, 0.0]])
    assert find_biface_counterexample(space, p, eps=0.25) is None
    # a trivial kernel has nothing to test
    assert find_biface_counterexample(space, np.eye(2), eps=0.25) is None
