"""End-to-end acceptance battery.

One test per criterion, each printing a single pass/fail line through the
criterion_report fixture. The lines are replayed in the terminal summary so
the run ends with a readable scoreboard. Frozen hashes and sequences were
captured once from seeded builds and pin the construction down to the bit.
"""

import json
import pathlib
import time

import numpy as np
import pytest

import oracles
from fraisse.amalgam import ArrowMorphism, ArrowObject, arrow_pushout, nap_amalgamate
from fraisse.certify import content_hash, parse_real, verify_certificate
from fraisse.chains import back_and_forth, build_gurarij_chain
from fraisse.lp import solve_lp, use_engine
from fraisse.spaces import (
    BANACH,
    LinearMap,
    LinfSpace,
    NormedSpace,
    embed_linf,
    hahn_banach_extend,
    map_dist,
)
from fraisse.trace_states import (
    MatrixState,
    minimal_embedding,
    projector_family,
    random_density,
)
from fraisse.unital import (
    biface_check,
    facial_quotient_check,
    find_biface_counterexample,
    kernel_basis,
    minimality_map,
    simplex_system,
)
from fraisse.universal import (
    battery_from_json,
    check_universal_operator_property,
    surjectivity_defect,
)

DATA = pathlib.Path(__file__).parent / "data"

GURARIJ_HASH = "a7081317b397a852bbff07f2d893250957f9d38bc352d02dd829f8695d5ba4da"
OPERATOR_HASH = "a64dc5521edc55b379c3cb422c62c8ae2d5086c60a05bddcd06c9c8d5c0576e3"
SURJECTIVITY = [0.365107, 0.273741, 0.235097, 0.235097]
MATRIX_CERT_HASH = "5187684c579876e19925d4ed654fbae5fd8c5e4d78cf6dd25de23b97407486f0"


def _report(sink, num, ok, msg):
    sink(f"criterion {num:02d} [{'pass' if ok else 'FAIL'}] {msg}")


def _near_isometry(rng, dom, cod_dim, delta):
    base = embed_linf(dom)
    cod = LinfSpace(cod_dim)
    if cod_dim < base.matrix.shape[0]:
        cod = LinfSpace(base.matrix.shape[0])
        rows = base.matrix
    else:
        rows = np.zeros((cod_dim, dom.dim))
        rows[: base.matrix.shape[0], :] = base.matrix
        extra = rng.normal(size=(cod_dim - base.matrix.shape[0], dom.dim))
        for i, r in enumerate(extra):
            rows[base.matrix.shape[0] + i] = r / max(1.0, dom.dual_norm(r) + 1e-12)
    f = LinearMap(dom, cod, rows)
    # distortion over the radius-2 ball: scale 1 - s costs 2 s
    shrink = 1.0 - rng.uniform(0.0, delta / 2.0) if delta > 0 else 1.0
    return oracles.scaled(f, shrink)


def test_criterion_01_norm_oracle_agreement(criterion_report):
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        dom = NormedSpace(oracles.random_norming(rng, max_rows=8))
        cod = NormedSpace(oracles.random_norming(rng, max_rows=8))
        m = rng.normal(size=(2, 2))
        t = LinearMap(dom, cod, m)
        got = t.op_norm()
        worst = max(worst, abs(got - oracles.op_norm_oracle(t)))
        # distortion is only defined for contractions; normalize first
        tc = oracles.scaled(t, 1.0 / max(got, 1e-12)) if got > 1.0 else t
        worst = max(worst, abs(tc.distortion() - oracles.distortion_oracle(tc)))
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    _report(criterion_report, 1, ok, f"operator norm and distortion vs vertex oracle: 200 random planes, "
        f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-7
    assert elapsed < 30.0


def test_criterion_02_amalgamation_bound(criterion_report):
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    legs = 0.0
    n = 0
    while n < 100:
        for delta in (0.0, 0.05, 0.1):
            dim = int(rng.integers(1, 3))
            dom = NormedSpace(oracles.random_norming(rng, max_rows=6, dim=dim))
            f_x = _near_isometry(rng, dom, int(rng.integers(dim, 5)), delta)
            f_y = _near_isometry(rng, dom, int(rng.integers(dim, 5)), delta)
            d = max(delta, f_x.distortion(), f_y.distortion())
            res = nap_amalgamate(f_x, f_y, delta=d)
            worst = max(worst, res.defect - BANACH(d))
            legs = max(legs, res.i.distortion(), res.j.distortion())
            n += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and legs <= 1e-9 and elapsed < 60.0
    _report(criterion_report, 2, ok, f"near-amalgamation: 102 instances, defect excess {worst:.2e}, "
        f"leg distortion {legs:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-7
    assert legs <= 1e-9
    assert elapsed < 60.0


def test_criterion_03_arrow_pushout_bound(criterion_report):
    rng = np.random.default_rng(3)
    delta = 0.05
    worst = 0.0
    squares = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 3))
        e = LinfSpace(dim)
        c = rng.uniform(-0.9, 0.9, size=(dim, dim))
        c *= 0.9 / max(np.abs(c).sum(axis=1).max(), 1e-9)
        src = ArrowObject(LinearMap(e, e, c))
        s = rng.uniform(0.0, delta / 2.0)
        shrink = LinearMap(e, e, (1.0 - s) * np.eye(dim))
        phi = ArrowMorphism(src, src, shrink, shrink)
        big_dim = dim + int(rng.integers(1, 3))
        bmat = np.zeros((big_dim, big_dim))
        bmat[:dim, :dim] = c
        tail = rng.uniform(-0.9, 0.9, size=(big_dim - dim, big_dim - dim))
        tail *= 0.9 / max(np.abs(tail).sum(axis=1).max(), 1e-9)
        bmat[dim:, dim:] = tail
        big = ArrowObject(LinearMap(LinfSpace(big_dim), LinfSpace(big_dim), bmat))
        inj = LinearMap(e, LinfSpace(big_dim), np.eye(big_dim)[:, :dim])
        f = ArrowMorphism(src, big, inj, inj)
        po = arrow_pushout(phi, f, delta=delta)
        worst = max(worst, po.defect - po.bound)
        squares = max(
            squares,
            map_dist(po.shat.t @ po.fhat.a0, po.fhat.a1 @ src.t),
            map_dist(po.shat.t @ po.j.a0, po.j.a1 @ big.t),
        )
    ok = worst <= 1e-7 and squares <= 1e-9
    _report(criterion_report, 3, ok, f"arrow pushouts: 50 instances at delta=0.05, defect excess {worst:.2e}, "
        f"square residual {squares:.2e}")
    assert worst <= 1e-7
    assert squares <= 1e-9


def test_criterion_04_gurarij_chain_obligations(criterion_report, gurarij_chain):
    t0 = time.time()
    chain = gurarij_chain
    n = len(chain.records)
    worst = 0.0
    for rec in chain.records:
        delta = parse_real(rec["delta"])
        defect = parse_real(rec["defect"])
        worst = max(worst, defect - (BANACH(delta) + 0.1))
    rebuilt = build_gurarij_chain(
        depth=5, dim_cap=12, net_resolution=0.25, seed=0
    )
    same = rebuilt.content_hash() == chain.content_hash()
    frozen = chain.content_hash() == GURARIJ_HASH
    elapsed = time.time() - t0
    ok = n >= 20 and worst <= 0.0 and same and frozen and elapsed < 600.0
    _report(criterion_report, 4, ok, f"approximation tower: {n} recorded obligations within bound "
        f"(excess {worst:.2e}), rebuild hash match {same}, frozen hash match "
        f"{frozen}, {elapsed:.0f}s")
    assert n >= 20
    assert worst <= 0.0
    assert same and frozen
    assert elapsed < 600.0


def test_criterion_05_back_and_forth(criterion_report, gurarij_chain):
    chain = gurarij_chain
    rng = np.random.default_rng(5)
    delta = 0.05
    k = chain.depth
    top = chain.top
    worst = 0.0
    rounds_used = 0
    monotone = True
    for _ in range(20):
        # orthonormal plane keeps the pullback ball well conditioned; a raw
        # gaussian frame can be near collinear and starve the LPs of digits
        a = np.linalg.qr(rng.normal(size=(top.dim, 2)))[0]
        w = top.norming @ a
        dom = NormedSpace(w)
        f = LinearMap(dom, top, a)
        # second embedding of the same plane: perturb, renormalize, and halve
        # the noise until the distortion promise is genuine
        noise = rng.normal(size=a.shape)
        scale = delta / 4.0
        while True:
            b = a + scale * noise
            g = LinearMap(dom, top, b)
            nrm = g.op_norm()
            if nrm > 1.0:
                g = oracles.scaled(g, 1.0 / nrm)
            if scale == 0.0 or g.distortion() <= 0.9 * delta:
                break
            scale /= 2.0
        res = back_and_forth(chain, f, k, g, k, delta=delta, rounds=8)
        worst = max(worst, res.defect - (BANACH(delta) + 0.1))
        rounds_used = max(rounds_used, len(res.trace))
        tr = res.trace
        monotone = monotone and all(
            tr[i + 1] <= tr[i] + 1e-12 for i in range(1, len(tr) - 1)
        )
    ok = worst <= 0.0 and rounds_used <= 8 and monotone
    _report(criterion_report, 5, ok, f"back-and-forth: 20 plane pairs, defect excess {worst:.2e}, "
        f"max rounds {rounds_used}, trace monotone {monotone}")
    assert worst <= 0.0
    assert rounds_used <= 8
    assert monotone


def test_criterion_06_state_minimality(criterion_report):
    rng = np.random.default_rng(6)
    d, eps = 2, 0.5
    eta = eps / (2 * d)
    m = int(np.ceil(1.0 / eta)) + d
    worst = 0.0
    exact = True
    for _ in range(100):
        s = rng.dirichlet(np.ones(d))
        t = rng.dirichlet(np.ones(m))
        res = minimality_map(s, t, eps=eps)
        worst = max(worst, res.defect - eps)
        phi = res.phi
        exact = exact and (
            np.max(np.abs(phi.matrix @ np.ones(d) - np.ones(m))) <= 1e-12
            and np.min(phi.matrix) >= 0.0
            and phi.distortion() <= 1e-9
            and res.certificate.passed
        )
    ok = worst <= 1e-9 and exact
    _report(criterion_report, 6, ok, f"simplex minimality: 100 trials at eps=0.5 (d=2, m={m}), "
        f"defect excess {worst:.2e}, maps exactly unital positive isometric "
        f"{exact}")
    assert worst <= 1e-9
    assert exact


def test_criterion_07_matrix_minimality(criterion_report):
    t0 = time.time()
    ell = 16
    fam = projector_family(2)
    k = ell * len(fam) + 1
    rng = np.random.default_rng(7)
    s = MatrixState(random_density(2 * k, rng))
    t = MatrixState(random_density(2, rng))
    res = minimal_embedding(s, t, ell=ell, seed=0, samples=1000)
    ok_norm = res.block_norm <= 8.0 / ell + 1e-12
    ok_trace = res.block_trace <= 8.0 / ell + 1e-12
    defect = res.certificate.measured
    ok_defect = defect <= 16.0 / ell
    faithful, _ = verify_certificate(res.certificate)
    frozen = content_hash(res.certificate.to_json()) == MATRIX_CERT_HASH
    elapsed = time.time() - t0
    ok = ok_norm and ok_trace and ok_defect and faithful and frozen and elapsed < 60.0
    _report(criterion_report, 7, ok, f"matrix state pullback: k={k} blocks, light block norm "
        f"{res.block_norm:.4f} and trace {res.block_trace:.4f} <= {8.0/ell}, "
        f"sampled defect {defect:.4f} <= {16.0/ell}, certificate faithful "
        f"{faithful}, frozen hash match {frozen}, {elapsed:.0f}s")
    assert ok_norm and ok_trace and ok_defect
    assert faithful and frozen
    assert elapsed < 60.0


def test_criterion_08_faces_and_bifaces(criterion_report):
    rng = np.random.default_rng(8)
    sys3 = simplex_system(3)
    p_face = np.array([[1.0, 0.0, 0.0]])
    ker_face = kernel_basis(p_face)
    face_ok = True
    for _ in range(20):
        y = ker_face @ rng.normal(size=ker_face.shape[1])
        y /= max(np.max(np.abs(y)), 1e-12)
        face_ok = face_ok and facial_quotient_check(sys3, p_face, y, eps=1e-6).feasible
    space4 = LinfSpace(4)
    p_bi = np.hstack([np.eye(2), np.zeros((2, 2))])
    ker_bi = kernel_basis(p_bi)
    bi_ok = True
    for _ in range(20):
        x = ker_bi @ rng.normal(size=2)
        y = ker_bi @ rng.normal(size=2)
        x /= max(np.max(np.abs(x)), 1e-12)
        y /= max(np.max(np.abs(y)), 1e-12)
        bi_ok = bi_ok and biface_check(space4, p_bi, x, y, eps=1e-6).feasible
    # negative control: a skew kernel is not a coordinate quotient and the
    # two-ball property must fail on a constructed witness
    skew = np.array([[1.0, -1.0, 0.0]])
    found = find_biface_counterexample(LinfSpace(3), skew, eps=0.1)
    neg_ok = found is not None and found[2] > 0.1
    ok = face_ok and bi_ok and neg_ok
    _report(criterion_report, 8, ok, f"facial and biface quotients: 20+20 kernel samples pass at eps=1e-6 "
        f"({face_ok}, {bi_ok}), skew kernel fails with violation "
        f"{found[2]:.3f} > 0.1" if found else "facial/biface: no counterexample found")
    assert face_ok and bi_ok
    assert neg_ok


def test_criterion_09_operator_battery(criterion_report, operator_chain):
    chain = operator_chain
    frozen = chain.content_hash() == OPERATOR_HASH
    battery = battery_from_json(json.loads((DATA / "battery.json").read_text()))
    passed = 0
    for item in battery:
        res = check_universal_operator_property(
            chain, item["l"], eps=0.2, hints=[item["hint"]]
        )
        passed += int(res.passed)
    sj = surjectivity_defect(chain, probes=20, base_stage=1, seed=3)
    mono = all(sj[i + 1] <= sj[i] + 1e-12 for i in range(len(sj) - 1))
    seq_ok = all(abs(a - b) <= 1e-6 for a, b in zip(sj, SURJECTIVITY))
    ok = frozen and passed == len(battery) == 10 and mono and seq_ok
    _report(criterion_report, 9, ok, f"universal operator: frozen tower hash match {frozen}, battery "
        f"{passed}/{len(battery)} absorbed at eps=0.2, surjectivity defect "
        f"nonincreasing {mono}")
    assert frozen
    assert passed == len(battery) == 10
    assert mono and seq_ok


def test_criterion_10_hahn_banach_routes(criterion_report):
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    worst_sum = 0.0
    worst_engine = 0.0
    for i in range(200):
        cod = NormedSpace(oracles.random_norming(rng, max_rows=6))
        a = rng.normal(size=(2, 1))
        dom = NormedSpace(cod.norming @ a)
        j = LinearMap(dom, cod, a)
        g = rng.normal(size=1)
        c = dom.dual_norm(g) * (1.0 + 1e-9)
        h1, lam1 = hahn_banach_extend(j, g, c, check=True)
        h2, lam2 = hahn_banach_extend(j, g, c, check=False)
        worst_gap = max(worst_gap, float(np.max(np.abs(h1 - h2))))
        worst_sum = max(
            worst_sum, np.abs(lam1).sum() - c, np.abs(lam2).sum() - c
        )
        if i % 10 == 0:
            with use_engine("exact"):
                h3, _ = hahn_banach_extend(j, g, c, check=False)
            worst_engine = max(worst_engine, float(np.max(np.abs(h2 - h3))))
    ok = worst_gap <= 1e-9 and worst_sum <= 1e-9 and worst_engine <= 1e-7
    _report(criterion_report, 10, ok, f"functional extension: 200 instances, route gap {worst_gap:.2e}, "
        f"coefficient sum excess {worst_sum:.2e}, exact engine gap "
        f"{worst_engine:.2e}")
    assert worst_gap <= 1e-9
    assert worst_sum <= 1e-9
    assert worst_engine <= 1e-7
