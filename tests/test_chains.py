"""Stage towers: nets, growth, certified extension, coupling, factorization."""

import itertools
from collections import Counter

import numpy as np
import pytest

from fraisse import chains
from fraisse.certify import parse_real, verify_certificate
from fraisse.chains import (
    StageChain,
    back_and_forth,
    build_gurarij_chain,
    build_morphism_net,
    certify_extension,
    nuclearity_witness,
)
from fraisse.lp import LPError, solve_lp, use_engine
from fraisse.spaces import BANACH, LinearMap, LinfSpace, NormedSpace, map_dist

# A build whose walk filters later sources in the middle of a step: its
# folds and extensions reach linf^2 and a polytope2 source, whose
# extensions solve two-row least-coefficient-sum LPs in closed form.
RESUMPTION_HASH = "f05875dd7726b97196940c6faa470b22fae045de6a74a003d16687b5541012ea"


@pytest.fixture(scope="module")
def small_chain():
    return build_gurarij_chain(depth=3, dim_cap=12, net_resolution=0.25, seed=0)


def test_net_members_are_near_contractions():
    # the whole grid: 13 admissible rows per target row, 169 <= NET_CAP
    net = build_morphism_net(LinfSpace(1), LinfSpace(2), resolution=0.5, seed=0)
    assert len(net) == 13**2
    for t in net:
        assert t.op_norm() <= 1.0 + 0.5 + 1e-9


def test_net_covers_a_given_contraction():
    res = 0.5
    net = build_morphism_net(LinfSpace(1), LinfSpace(1), resolution=res, seed=0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = LinearMap(LinfSpace(1), LinfSpace(1), [[float(rng.uniform(-1, 1))]])
        best = min(map_dist(t, u) for u in net)
        assert best <= res / 2.0 + 1e-9


def test_net_sampling_fallback(monkeypatch):
    monkeypatch.setattr(chains, "NET_CAP", 50)
    net = build_morphism_net(LinfSpace(2), LinfSpace(2), resolution=0.25, seed=0)
    assert len(net) <= 50


def test_net_sampling_skips_repeated_draws(monkeypatch):
    # 60 of the 81 grid maps linf^1 -> linf^2, drawn with repeats
    monkeypatch.setattr(chains, "NET_CAP", 60)
    net = build_morphism_net(LinfSpace(1), LinfSpace(2), resolution=1.0, seed=0)
    assert len(net) == 60
    assert len({m.matrix.tobytes() for m in net}) == 60


def test_net_bad_resolution():
    with pytest.raises(ValueError, match="positive"):
        build_morphism_net(LinfSpace(1), LinfSpace(1), resolution=0.0, seed=0)


def test_chain_growth_and_isometric_connectives(small_chain):
    chain = small_chain
    assert chain.depth == 3
    dims = [s.dim for s in chain.stages]
    assert dims[0] == 1
    assert all(a <= b for a, b in zip(dims, dims[1:]))
    for conn in chain.connectives:
        assert conn.op_norm() <= 1.0 + 1e-9
        assert conn.distortion() <= 1e-9


def test_chain_records_within_bounds(small_chain):
    assert len(small_chain.records) >= 3
    for rec in small_chain.records:
        delta = parse_real(rec["delta"])
        defect = parse_real(rec["defect"])
        assert defect <= BANACH(delta) + 1e-7
        assert rec["mode"] in ("amalgam", "extend")
        assert 0 <= rec["stage"] <= rec["resolved_stage"] <= small_chain.depth


def test_chain_connecting_identities(small_chain):
    chain = small_chain
    ident = chain.connecting(1, 1)
    assert np.array_equal(ident.matrix, np.eye(chain.stages[1].dim))
    via = chain.connecting(1, 3)
    step = chain.connecting(2, 3) @ chain.connecting(1, 2)
    assert np.max(np.abs(via.matrix - step.matrix)) <= 1e-12


def test_chain_determinism_and_roundtrip(small_chain):
    again = build_gurarij_chain(depth=3, dim_cap=12, net_resolution=0.25, seed=0)
    assert again.content_hash() == small_chain.content_hash()
    other = build_gurarij_chain(depth=3, dim_cap=12, net_resolution=0.25, seed=1)
    assert other.content_hash() != small_chain.content_hash()
    back = StageChain.from_json(small_chain.to_json())
    assert back.content_hash() == small_chain.content_hash()
    assert [s.dim for s in back.stages] == [s.dim for s in small_chain.stages]


def _sources(chain):
    return Counter(rec["source"]["label"] for rec in chain.records)


def test_build_skips_faults_in_pools_it_never_reaches(monkeypatch, small_chain):
    # every pool thunk of a source other than linf^1 raises; the walk
    # reaches only linf^1, so only a build that filters every pool up
    # front would stop, and the tower must not depend on the others
    assert set(_sources(small_chain)) == {"linf^1"}
    faulty = []

    def fault():
        raise LPError("fault injected into a pool the walk never reaches")

    def inject(draw):
        def drawn(source, *args):
            thunk = draw(source, *args)  # the rng draws happen as before
            if source.label == "linf^1":
                return thunk
            faulty.append(source.label)
            return fault

        return drawn

    monkeypatch.setattr(chains, "_phi_catalog", inject(chains._phi_catalog))
    monkeypatch.setattr(chains, "_f_pool", inject(chains._f_pool))
    chain = build_gurarij_chain(depth=3, dim_cap=12, net_resolution=0.25, seed=0)
    assert len(faulty) == 2 * 3 * 3  # two thunks of three sources per step
    assert chain.content_hash() == small_chain.content_hash()


def test_walk_resumes_into_later_sources_frozen():
    chain = build_gurarij_chain(
        depth=2, dim_cap=20, net_resolution=0.25, seed=3, extend_per_step=12
    )
    assert _sources(chain) == {"linf^1": 21, "linf^2": 9, "polytope2": 3}
    for rec in chain.records:
        assert parse_real(rec["defect"]) <= BANACH(parse_real(rec["delta"])) + 1e-7
    assert chain.content_hash() == RESUMPTION_HASH


def test_exact_build_filters_only_reached_pools(solves):
    with use_engine("exact"):
        chain = build_gurarij_chain(depth=1, dim_cap=2, seed=0)
    assert chain.content_hash().startswith("1a79a3669eb9")
    assert solves["float"] == 0
    assert solves["exact"] <= 83


def test_quota_met_at_a_source_boundary_filters_no_further(solves):
    # the twelve extensions use up every linf^1 obligation; the walk must
    # stop there, before it filters the other three sources' pools (about
    # 5000 LPs, and not one obligation into a 1-dimensional stage)
    chain = build_gurarij_chain(depth=1, dim_cap=1, seed=0, extend_per_step=12)
    assert chain.content_hash().startswith("126fb3de987f")
    assert _sources(chain) == {"linf^1": 12}
    assert solves["float"] <= 100


def test_fold_skips_a_source_too_large_for_the_step(monkeypatch):
    # from linf^2, a linf^2 source needs two new dimensions; dim_cap 3 grants one
    monkeypatch.setattr(chains, "START_DIM", 2)
    monkeypatch.setattr(chains, "_source_pool", lambda rng: [LinfSpace(2)])
    chain = build_gurarij_chain(depth=1, dim_cap=3, seed=0)
    assert [s.dim for s in chain.stages] == [2, 2]
    assert {rec["mode"] for rec in chain.records} == {"extend"}


def test_certify_extension_and_certificate(small_chain):
    chain = small_chain
    k = 1
    src = LinfSpace(1)
    phi = LinearMap(src, LinfSpace(2), [[1.0], [0.0]])
    f = LinearMap(src, chain.stages[k], np.eye(chain.stages[k].dim)[:, :1])
    res = certify_extension(chain, phi, f, k, delta=0.05)
    assert res.defect <= res.bound + 1e-9
    assert res.g.op_norm() <= 1.0 + 1e-7
    f_top = chain.connecting(k, res.stage) @ f
    cert = res.certificate(phi, f_top)
    assert cert.passed
    ok, again = verify_certificate(cert)
    assert ok
    assert again == pytest.approx(res.defect, abs=1e-9)


def test_back_and_forth_trace(small_chain):
    chain = small_chain
    delta = 0.05
    src = LinfSpace(1)
    e0 = np.zeros((chain.stages[1].dim, 1))
    e0[0, 0] = 1.0 - delta / 2.0
    e1 = np.zeros((chain.stages[1].dim, 1))
    e1[min(1, chain.stages[1].dim - 1), 0] = 1.0
    f = LinearMap(src, chain.stages[1], e0)
    g = LinearMap(src, chain.stages[1], e1)
    res = back_and_forth(chain, f, 1, g, 1, delta=delta, rounds=4)
    assert res.defect <= res.bound + 1e-7
    assert all(b <= a + 1e-12 for a, b in zip(res.trace, res.trace[1:]))
    f_top = chain.connecting(1, chain.depth) @ f
    g_top = chain.connecting(1, chain.depth) @ g
    cert = res.certificate(f_top, g_top, BANACH, delta)
    assert cert.passed
    ok, _ = verify_certificate(cert)
    assert ok


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_extreme_directions_of_linf_are_the_lp_points(dim, monkeypatch):
    # the sign vectors, bit for bit what supporting the box by LP gives
    box = LinfSpace(dim)
    lp_points = [
        solve_lp(sigma, *box.ball_constraints(1.0), maximize=True).x
        for sigma in (np.array((1.0,) + bits) for bits in itertools.product([1.0, -1.0], repeat=dim - 1))
    ]
    monkeypatch.setattr(chains, "solve_lp", None)  # no LP on an identity-normed space
    directions = chains._extreme_directions(box)
    assert [x.tobytes() for x in directions] == [x.tobytes() for x in lp_points]


def test_extreme_directions_of_a_polytope_support_the_ball():
    space = NormedSpace([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    directions = chains._extreme_directions(space)
    for sigma, x in zip(([1.0, 1.0], [1.0, -1.0]), directions):
        assert space.norm(x) == pytest.approx(1.0, abs=1e-9)
        assert np.dot(sigma, x) == pytest.approx(space.support_value(sigma), abs=1e-9)
    assert len(directions) == 2


def test_nuclearity_witness_linf_exact():
    w = nuclearity_witness(LinfSpace(3))
    assert w.defect == 0.0
    assert w.norm_bound == pytest.approx(1.0)
    assert w.through_dim == 3


def test_nuclearity_witness_presented_space():
    sp = NormedSpace([[1.0, 1.0], [1.0, -1.0], [0.3, 0.9]])
    w = nuclearity_witness(sp)
    assert w.through_dim == sp.rows
    ident = LinearMap.identity(sp)
    assert map_dist(w.rho @ w.gamma, ident) <= w.defect + 1e-9
    cert = w.certificate(sp)
    assert cert.passed
    ok, _ = verify_certificate(cert)
    assert ok


def test_nuclearity_witness_contraction_fallback():
    # every left inverse of the presentation has norm above one, so rho is
    # the contraction nearest to one, with its measured norm as the bound
    r = 1.0 / 1.5
    sp = NormedSpace([[1.0, 0.0], [0.0, 1.0], [r, r], [r, -r]])
    w = nuclearity_witness(sp)
    assert w.through_dim == 4
    assert w.norm_bound == pytest.approx(1.0, abs=1e-9)
    assert w.defect == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert w.rho.op_norm() <= 1.0 + 1e-9
    ok, again = verify_certificate(w.certificate(sp))
    assert ok
    assert again == pytest.approx(w.defect, abs=1e-12)
