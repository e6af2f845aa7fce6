"""The absorbing operator tower and the compatible state tower."""

import numpy as np
import pytest

from fraisse.certify import canonical_dumps, parse_real, verify_certificate
from fraisse.chains import ResourceLimitError
from fraisse.spaces import BANACH, LinearMap, LinfSpace, NormedSpace
from fraisse.universal import (
    SQUARE_TOL,
    ArrowChain,
    battery_from_json,
    battery_to_json,
    build_universal_operator_chain,
    build_universal_state_chain,
    check_universal_operator_property,
    check_universal_state_property,
    generate_operator_battery,
    image_distance,
    prune_redundant_rows,
    surjectivity_defect,
)
from fraisse.unital import kernel_basis, simplex_system

# build_universal_state_chain(depth=4, seed=0): the Poulsen tower with two
# targets per step and the states pulled back along it
STATE_HASH = "69c74149f4fd086cadffd2610bf71348ece8531ab964e4eee6a80f5376d0e539"


@pytest.fixture(scope="module")
def chain2():
    return build_universal_operator_chain(depth=2, seed=0)


def test_prune_redundant_rows():
    sp = NormedSpace([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    pruned, kept = prune_redundant_rows(sp)
    assert pruned.rows == 2
    assert kept == [0, 1]
    rng = np.random.default_rng(61)
    for _ in range(10):
        x = rng.normal(size=2)
        assert pruned.norm(x) == pytest.approx(sp.norm(x), abs=1e-9)


def test_prune_keeps_essential_rows():
    sp = NormedSpace([[1.0, 1.0], [1.0, -1.0]])
    pruned, kept = prune_redundant_rows(sp)
    assert pruned.rows == 2
    assert kept == [0, 1]
    # a lone row has nothing to be represented by
    assert prune_redundant_rows(LinfSpace(1))[1] == [0]


def test_operator_chain_exact_squares(chain2):
    chain = chain2
    assert chain.depth == 2
    for conn in chain.connectives:
        assert conn.square_defect() <= SQUARE_TOL
        for leg in (conn.a0, conn.a1):
            assert leg.op_norm() <= 1.0 + 1e-9
            assert leg.distortion() <= 1e-9
    for stage in chain.stages:
        assert stage.dom.is_linf and stage.cod.is_linf
        assert stage.t.op_norm() <= 1.0 + 1e-9


def test_operator_chain_records_and_bounds(chain2):
    delta = parse_real(chain2.params["delta"])
    assert len(chain2.records) == 2
    for rec in chain2.records:
        assert rec["mode"] in ("amalgam", "extend")
        assert parse_real(rec["square_defect"]) <= SQUARE_TOL
        if rec["mode"] == "amalgam":
            assert parse_real(rec["defect"]) <= BANACH(delta) + 2 * delta + 1e-7
        assert parse_real(rec["scale"]) >= 0.4


def test_operator_chain_caps():
    chain = build_universal_operator_chain(depth=4, dom_cap=6, cod_cap=6, seed=0)
    # the gate is pre-step: a stage already at or over a cap never grows again
    for prev, nxt in zip(chain.stages, chain.stages[1:]):
        if prev.dom.dim >= 6 or prev.cod.dim >= 6:
            assert nxt.dom.dim == prev.dom.dim
            assert nxt.cod.dim == prev.cod.dim
    assert any(rec["mode"] == "extend" for rec in chain.records)


def test_battery_of_a_tower_that_never_grows_its_codomain():
    # at cod_cap 1 every record is an in-place extension without gamma,
    # so only its 1 x 1 scaling item can be replayed
    chain = build_universal_operator_chain(depth=1, cod_cap=1, seed=0)
    assert [rec["gamma"] for rec in chain.records] == [None]
    assert [it["tag"] for it in generate_operator_battery(chain, count=1, eps=0.2)] == ["scale@1"]
    with pytest.raises(ResourceLimitError, match="only 1 of 2"):
        generate_operator_battery(chain, count=2, eps=0.2)


def test_operator_chain_determinism_and_roundtrip(chain2):
    again = build_universal_operator_chain(depth=2, seed=0)
    assert again.content_hash() == chain2.content_hash()
    other = build_universal_operator_chain(depth=2, seed=5)
    assert other.content_hash() != chain2.content_hash()
    back = ArrowChain.from_json(chain2.to_json())
    assert back.content_hash() == chain2.content_hash()


def test_connecting_composition(chain2):
    conn = chain2.connecting(0, 2)
    step = chain2.connectives[1].a0.matrix @ chain2.connectives[0].a0.matrix
    assert np.max(np.abs(conn.a0.matrix - step)) <= 1e-12
    assert conn.square_defect() <= SQUARE_TOL
    ident = chain2.connecting(1, 1)
    assert np.array_equal(ident.a0.matrix, np.eye(chain2.stages[1].dom.dim))


def test_image_distance_basics():
    t = LinearMap(LinfSpace(2), LinfSpace(1), [[0.5, 0.0]])
    # reachable point
    assert image_distance(t, np.array([0.4])) <= 1e-9
    # out of reach by 0.5
    assert image_distance(t, np.array([1.0])) == pytest.approx(0.5, abs=1e-8)


def test_surjectivity_defect_monotone(chain2):
    seq = surjectivity_defect(chain2, probes=10, base_stage=0, seed=1)
    assert len(seq) == chain2.depth + 1
    assert all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))


def test_operator_battery_and_absorption(chain2):
    items = generate_operator_battery(chain2, count=4, eps=0.2)
    assert len(items) == 4
    for it in items:
        res = check_universal_operator_property(chain2, it["l"], 0.2, hints=[it["hint"]])
        assert res.passed
        assert res.via in ("hint", "search")
        assert res.defect <= 0.2 + 1e-9
        cert = res.certificate(it["l"], chain2.top.t)
        assert cert.passed
        ok, again = verify_certificate(cert)
        assert ok
        assert again == pytest.approx(res.defect, abs=1e-9)


def test_battery_json_roundtrip(chain2):
    items = generate_operator_battery(chain2, count=3, eps=0.2)
    data = battery_to_json(items)
    back = battery_from_json(data)
    assert canonical_dumps(battery_to_json(back)) == canonical_dumps(data)
    assert [it["tag"] for it in back] == [it["tag"] for it in items]


def test_battery_generation_is_deterministic(chain2):
    a = battery_to_json(generate_operator_battery(chain2, count=3, eps=0.2))
    b = battery_to_json(generate_operator_battery(chain2, count=3, eps=0.2))
    assert canonical_dumps(a) == canonical_dumps(b)


def test_null_space_rank_cutoffs():
    # kernel_basis cuts at 1e-10 * max(1, s0) and drops 1e-12
    p = np.diag([1e-3, 1e-12])
    assert kernel_basis(p).shape == (2, 1)


def test_state_chain_exact_compatibility():
    sc = build_universal_state_chain(depth=3, seed=0)
    assert sc.depth == 3
    for k in range(sc.depth):
        assert sc.compatibility_defect(k) == 0.0
    for s in sc.states:
        assert np.min(s) >= 0.0
        assert np.sum(s) == pytest.approx(1.0, abs=1e-12)
    again = build_universal_state_chain(depth=3, seed=0)
    assert again.content_hash() == sc.content_hash()


def test_state_chain_frozen():
    assert build_universal_state_chain(depth=4, seed=0).content_hash() == STATE_HASH


def test_state_absorption_exact_on_simplices():
    sc = build_universal_state_chain(depth=3, seed=0)
    rng = np.random.default_rng(67)
    for n in (2, 3):
        sigma = rng.dirichlet(np.ones(n))
        res = check_universal_state_property(sc, simplex_system(n), sigma, eps=0.05)
        assert res.passed
        assert res.defect <= 1e-9
        assert res.dist0 <= 1e-9
        cert = res.state_certificate
        assert cert.passed
        ok, again = verify_certificate(cert)
        assert ok
        assert again == pytest.approx(res.defect, abs=1e-9)


def test_state_absorption_certificate_claims_registered():
    from fraisse.certify import CLAIM_REGISTRY

    for tag in ("operator_absorption", "state_absorption", "matrix_state_defect"):
        assert tag in CLAIM_REGISTRY
