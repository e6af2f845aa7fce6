"""Near-amalgamation, pushouts, and their arrow-category lift."""

import numpy as np
import pytest

import oracles
from fraisse.amalgam import (
    ArrowMorphism,
    ArrowObject,
    approx_pushout,
    arrow_pushout,
    nap_amalgamate,
)
from fraisse.certify import verify_certificate
from fraisse.spaces import BANACH, LinearMap, LinfSpace, NormedSpace, embed_linf, map_dist


def _near_isometry(rng, dom, cod_dim, delta):
    """A map dom -> linf^cod_dim with distortion <= delta, by shrinking."""
    base = embed_linf(dom)
    cod = LinfSpace(cod_dim)
    rows = np.zeros((cod_dim, dom.dim))
    rows[: base.matrix.shape[0], :] = base.matrix[:cod_dim, :]
    if cod_dim >= base.matrix.shape[0]:
        extra = rng.normal(size=(cod_dim - base.matrix.shape[0], dom.dim))
        for i, r in enumerate(extra):
            nrm = dom.dual_norm(r)
            rows[base.matrix.shape[0] + i] = r / max(1.0, nrm + 1e-12)
        f = LinearMap(dom, cod, rows)
    else:
        # truncation may lose the norm; rescue by keeping the full embedding
        f = LinearMap(dom, LinfSpace(base.matrix.shape[0]), base.matrix)
    # the loss is measured over the radius-2 ball, so a scale factor 1 - s
    # produces distortion 2 s; stay within delta by capping s at delta / 2
    shrink = 1.0 - rng.uniform(0.0, delta / 2.0) if delta > 0 else 1.0
    f = oracles.scaled(f, shrink)
    assert f.distortion() <= delta + 1e-9
    return f


def test_nap_defect_bound_and_isometric_legs():
    rng = np.random.default_rng(41)
    for delta in (0.0, 0.05):
        for _ in range(6):
            dom = NormedSpace(oracles.random_norming(rng, max_rows=4))
            f_x = _near_isometry(rng, dom, 3, delta)
            f_y = _near_isometry(rng, dom, 4, delta)
            d = max(f_x.distortion(), f_y.distortion())
            res = nap_amalgamate(f_x, f_y, delta=max(d, delta))
            assert res.defect <= BANACH(max(d, delta)) + 1e-7
            assert res.i.op_norm() <= 1.0 + 1e-9 and res.i.distortion() <= 1e-9
            assert res.j.op_norm() <= 1.0 + 1e-9 and res.j.distortion() <= 1e-9
            assert res.defect == pytest.approx(
                map_dist(res.i @ f_x, res.j @ f_y), abs=1e-12
            )


def test_nap_validation():
    a = LinfSpace(2)
    b = LinfSpace(3)
    f_x = LinearMap(a, b, np.vstack([np.eye(2), np.zeros((1, 2))]))
    f_bad_dom = LinearMap(LinfSpace(3), b, np.eye(3))
    with pytest.raises(ValueError, match="share their domain"):
        nap_amalgamate(f_x, f_bad_dom)
    crooked = NormedSpace([[1.0, 1.0], [1.0, -1.0]])
    f_bad_cod = LinearMap(a, crooked, 0.5 * np.eye(2))
    with pytest.raises(ValueError, match="identity normed"):
        nap_amalgamate(f_x, f_bad_cod)


def test_nap_certificate_roundtrip():
    rng = np.random.default_rng(43)
    dom = NormedSpace(oracles.random_norming(rng, max_rows=3))
    f_x = _near_isometry(rng, dom, 3, 0.05)
    f_y = _near_isometry(rng, dom, 3, 0.05)
    res = nap_amalgamate(f_x, f_y, delta=0.05)
    cert = res.certificate(f_x, f_y)
    assert cert.passed
    faithful, again = verify_certificate(cert)
    assert faithful
    assert again == pytest.approx(res.defect, abs=1e-9)


def test_pushout_connective_exactly_isometric():
    rng = np.random.default_rng(47)
    for _ in range(5):
        dom = NormedSpace(oracles.random_norming(rng, max_rows=4))
        phi = _near_isometry(rng, dom, 3, 0.05)
        f = _near_isometry(rng, dom, 3, 0.05)
        d = max(phi.distortion(), f.distortion(), 1e-9)
        po = approx_pushout(phi, f, delta=d)
        assert po.j.op_norm() <= 1.0 + 1e-9
        assert po.j.distortion() <= 1e-9
        assert po.defect <= BANACH(d) + 1e-7
        assert po.defect == pytest.approx(
            map_dist(po.fhat @ phi, po.j @ f), abs=1e-12
        )
        cert = po.certificate(phi, f)
        assert cert.passed
        ok, _ = verify_certificate(cert)
        assert ok


def test_arrow_morphism_validation_and_defect():
    t = ArrowObject(LinearMap(LinfSpace(2), LinfSpace(2), 0.5 * np.eye(2)))
    s = ArrowObject(LinearMap(LinfSpace(2), LinfSpace(2), 0.5 * np.eye(2)))
    ident = LinearMap.identity(LinfSpace(2))
    m = ArrowMorphism(t, s, ident, ident)
    assert m.square_defect() <= 1e-12
    assert m.distortion() <= 1e-9
    wrong = LinearMap(LinfSpace(3), LinfSpace(2), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="arrow domains"):
        ArrowMorphism(t, s, wrong, ident)
    with pytest.raises(ValueError, match="arrow codomains"):
        ArrowMorphism(t, s, ident, wrong)


def _scaling_arrow(c):
    return ArrowObject(LinearMap(LinfSpace(1), LinfSpace(1), [[c]]))


def test_arrow_pushout_exact_squares_and_bound():
    # source arrow: scaling by c; phi shrinks it slightly, f maps it into
    # a two dimensional extension exactly
    c = 0.6
    src = _scaling_arrow(c)
    that = _scaling_arrow(c)
    delta = 0.05
    e1 = LinfSpace(1)
    phi = ArrowMorphism(
        src,
        that,
        LinearMap(e1, e1, [[1.0 - delta]]),
        LinearMap(e1, e1, [[1.0 - delta]]),
    )
    big = ArrowObject(LinearMap(LinfSpace(2), LinfSpace(2), [[c, 0.3], [0.0, 0.7]]))
    inj = LinearMap(e1, LinfSpace(2), [[1.0], [0.0]])
    f = ArrowMorphism(src, big, inj, inj)
    assert f.square_defect() <= 1e-12
    po = arrow_pushout(phi, f, delta=phi.distortion())
    # both commutation identities hold exactly
    assert map_dist(po.shat.t @ po.fhat.a0, po.fhat.a1 @ that.t) <= 1e-9
    assert map_dist(po.shat.t @ po.j.a0, po.j.a1 @ big.t) <= 1e-9
    assert po.defect <= po.bound + 1e-7
    assert po.bound == pytest.approx(BANACH(po.delta) + 2 * po.delta)
    assert po.shat.t.op_norm() <= 1.0 + 1e-9
    cert = po.certificate(phi, f)
    assert cert.passed
    ok, _ = verify_certificate(cert)
    assert ok


def test_arrow_pushout_requires_exact_intertwining():
    src = _scaling_arrow(0.6)
    that = _scaling_arrow(0.6)
    e1 = LinfSpace(1)
    ident = LinearMap.identity(e1)
    phi = ArrowMorphism(src, that, ident, ident)
    crooked = ArrowMorphism(
        src,
        _scaling_arrow(0.9),
        ident,
        ident,
    )
    assert crooked.square_defect() > 1e-7
    with pytest.raises(ValueError, match="intertwine exactly"):
        arrow_pushout(phi, crooked, delta=0.05)
