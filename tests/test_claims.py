"""The claim registry: one frozen certificate per claim, and each claim's
measure taking exactly the input fields the registry decodes."""

import hashlib
import inspect

import numpy as np

from fraisse.amalgam import ArrowMorphism, ArrowObject, approx_pushout, arrow_pushout, nap_amalgamate
from fraisse.certify import CLAIM_REGISTRY, canonical_dumps, verify_certificate
from fraisse.chains import back_and_forth, build_gurarij_chain, certify_extension, nuclearity_witness
from fraisse.spaces import BANACH, LinearMap, LinfSpace, NormedSpace
from fraisse.trace_states import MatrixState, minimal_embedding
from fraisse.unital import (
    biface_check,
    facial_quotient_check,
    minimality_map,
    poulsen_extension_step,
    simplex_system,
)
from fraisse.universal import (
    build_universal_operator_chain,
    build_universal_state_chain,
    check_universal_operator_property,
    check_universal_state_property,
)

# sha256 of canonical_dumps(cert.to_json()) for each certificate below; the
# same under one and two BLAS threads (every product in them is tiny)
FROZEN = {
    "nap_defect": "6e3c2e112d2dba2635e237fbd1982ea64d74da6d59fef5014f3ea2fb182aee60",
    "pushout_defect": "f56b36a6593a0f177cd08e8e55418dae183391ed7e7b08cc6b90a02c1f1619d9",
    "arrow_pushout_defect": "5b539b224f2a42068ebba39930517c9b57715fa43cab126bab49284e98dd52cd",
    "extension_defect": "e7c5606727f2f9bf50c490ce950ad818ac5e2399e29d18a62802adeaf19692b8",
    "back_and_forth_defect": "b29e19e4c5c7f6ae1962ef07f0807c5fea693a25f47df310c37ea1f1238d4ed2",
    "factorization_defect": "2b6d2ce0b03e07464789a73fbcd48efdb7c0e47f04cdc46542a9e5bdca339b59",
    "poulsen_separation_gap": "68a4490087875716a5fa98f2fab95b125b6828520574b495503c1de952c70ee6",
    "minimality_defect": "dba8d9bb5b55a5b166898fffac330dee4353343051f4ef61f9172dcba9dd77c6",
    "facial_quotient": "751dc01b4a84e289c221c1527b7bb3614a1690e753ff46b0640f9d13317c21af",
    "biface_ball": "ef384a3798fd96fc7ea8403878f3b32b3eb0f7bfb1707b0a36881148a7c737ae",
    "operator_absorption": "da2751b45244f87aed9f447d6fc2893dbe351898c29bb4d568f7d44942c717c7",
    "state_absorption": "e48d9281a1cac48dadd90e0eaaf1d3a5398c1bd0a2646946bf5d72e719a7986b",
    "matrix_state_defect": "bc84068271d048c93be081409c376a1debf265b4456c9f09c4bafc77b816c5af",
}


def _certificates():
    """One certificate per claim, each from a small deterministic construction."""
    e1, e2 = LinfSpace(1), LinfSpace(2)
    out = {}
    f_x = LinearMap(e1, e2, [[1.0], [0.5]])
    f_y = LinearMap(e1, e2, [[0.95], [-0.25]])
    out["nap_defect"] = nap_amalgamate(f_x, f_y, max(f_x.distortion(), f_y.distortion())).certificate(f_x, f_y)
    phi = LinearMap(e1, e2, [[0.96], [0.3]])
    f = LinearMap(e1, e2, [[0.5], [-0.8]])
    out["pushout_defect"] = approx_pushout(phi, f, delta=0.1).certificate(phi, f)
    src = ArrowObject(LinearMap(e1, e1, [[0.6]]))
    shrink = LinearMap(e1, e1, [[0.95]])
    arrow_phi = ArrowMorphism(src, ArrowObject(LinearMap(e1, e1, [[0.6]])), shrink, shrink)
    inj = LinearMap(e1, e2, [[1.0], [0.0]])
    arrow_f = ArrowMorphism(src, ArrowObject(LinearMap(e2, e2, [[0.6, 0.3], [0.0, 0.7]])), inj, inj)
    out["arrow_pushout_defect"] = arrow_pushout(arrow_phi, arrow_f, delta=0.1).certificate(arrow_phi, arrow_f)

    chain = build_gurarij_chain(depth=2, dim_cap=4, net_resolution=0.25, seed=0)
    first = np.eye(chain.stages[1].dim)
    ext_phi = LinearMap(e1, e2, [[0.95], [0.4]])
    ext_f = LinearMap(e1, chain.stages[1], first[:, :1])
    ext = certify_extension(chain, ext_phi, ext_f, 1, delta=0.1)
    out["extension_defect"] = ext.certificate(ext_phi, chain.connecting(1, ext.stage) @ ext_f)
    bf_f = LinearMap(e1, chain.stages[1], first[:, :1] * 0.975)
    bf_g = LinearMap(e1, chain.stages[1], first[:, -1:])
    baf = back_and_forth(chain, bf_f, 1, bf_g, 1, delta=0.05, rounds=3)
    lift = chain.connecting(1, chain.depth)
    out["back_and_forth_defect"] = baf.certificate(lift @ bf_f, lift @ bf_g, BANACH, 0.05)
    r = 1.0 / 1.5
    space = NormedSpace([[1.0, 0.0], [0.0, 1.0], [r, r], [r, -r]])
    out["factorization_defect"] = nuclearity_witness(space).certificate(space)

    s2, s3 = simplex_system(2), simplex_system(3)
    out["poulsen_separation_gap"] = poulsen_extension_step(s2, [0.25, 0.75]).certificate
    out["minimality_defect"] = minimality_map([0.3, 0.7], np.arange(1.0, 11.0) / 55.0, eps=0.8).certificate
    out["facial_quotient"] = facial_quotient_check(s3, [[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0], eps=0.01).certificate()
    out["biface_ball"] = biface_check(
        LinfSpace(3), [[1.0, -1.0, 0.0]], [1.0, -1.0, 0.0], [0.5, 0.5, 0.0], eps=0.01
    ).certificate()

    op_chain = build_universal_operator_chain(depth=1, seed=0)
    l_map = LinearMap(e1, e1, [[0.5]])
    absorbed = check_universal_operator_property(op_chain, l_map, 0.2)
    out["operator_absorption"] = absorbed.certificate(l_map, op_chain.top.t)
    states = build_universal_state_chain(1, seed=0)
    out["state_absorption"] = check_universal_state_property(states, s3, [0.2, 0.3, 0.5], eps=0.05).state_certificate
    # a diagonal density, so no matrix product of the build depends on the BLAS threads
    weights = np.arange(1.0, 27.0)
    s_big = MatrixState(np.diag(weights / weights.sum()).astype(complex))
    t_small = MatrixState(np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]]))
    out["matrix_state_defect"] = minimal_embedding(s_big, t_small, ell=1, seed=0, samples=50).certificate
    return out


def test_every_claim_has_a_frozen_faithful_certificate():
    certs = _certificates()
    assert set(certs) == set(CLAIM_REGISTRY) == set(FROZEN)
    for tag, cert in certs.items():
        assert cert.claim == tag
        assert hashlib.sha256(canonical_dumps(cert.to_json()).encode()).hexdigest() == FROZEN[tag], tag
        faithful, again = verify_certificate(cert)
        assert faithful, (tag, cert.measured, again)


def test_every_measure_takes_the_decodable_fields():
    for tag, claim in CLAIM_REGISTRY.items():
        params = set(inspect.signature(claim.measure).parameters)
        decodable = {key for key, (_, decode) in claim.fields.items() if decode is not None}
        assert params == decodable, tag
