"""Checks and handlers that ordinary runs never trigger, each made to fire.

Input checks are one table of (call, error type, message fragment).
Handlers of errors a callee can raise, and internal consistency checks,
are reached by making the callee fail or the invariant break.
"""

import numpy as np
import pytest

from fraisse import amalgam, chains, trace_states, unital, universal
from fraisse.amalgam import ArrowMorphism, ArrowObject, approx_pushout, arrow_pushout, nap_amalgamate
from fraisse.certify import Certificate
from fraisse.chains import (
    ResourceLimitError,
    StageChain,
    back_and_forth,
    build_gurarij_chain,
    build_morphism_net,
    certify_extension,
)
from fraisse.lp import LPInfeasible, LPResult
from fraisse.spaces import BANACH, LinearMap, LinfSpace, NormedSpace, hahn_banach_extend
from fraisse.trace_states import MatrixState, embedding_checks, minimal_embedding, projector_family, random_density
from fraisse.unital import minimality_map, poulsen_extension_step
from fraisse.universal import ArrowChain, build_universal_operator_chain, check_universal_operator_property

ID1 = LinearMap.identity(LinfSpace(1))
ID2 = LinearMap.identity(LinfSpace(2))
E1 = LinearMap(LinfSpace(1), LinfSpace(2), [[1.0], [0.0]])
ARROW1 = ArrowObject(ID1)
ARROW2 = ArrowObject(ID2)
SELF1 = ArrowMorphism(ARROW1, ARROW1, ID1, ID1)
SELF2 = ArrowMorphism(ARROW2, ARROW2, ID2, ID2)


INPUT_CHECKS = {
    "nap delta": (lambda: nap_amalgamate(E1, E1, delta=1.0), ValueError, ">= 1 rejected"),
    "pushout span": (
        lambda: amalgam._coords_in(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), "probe"),
        ValueError,
        "probe: generators do not lie in the constructed span",
    ),
    "pushout domains": (lambda: approx_pushout(E1, ID2, delta=0.0), ValueError, "share their domain"),
    "pushout delta": (lambda: approx_pushout(E1, ID1, delta=1.0), ValueError, ">= 1 rejected"),
    "pushout promise": (
        lambda: approx_pushout(ID1.scale(0.5), ID1, delta=0.0),
        ValueError,
        "more distortion than promised",
    ),
    "pushout contraction": (lambda: approx_pushout(ID1, ID1.scale(2.0), delta=0.0), ValueError, "contraction"),
    "arrow sources": (lambda: arrow_pushout(SELF1, SELF2, delta=0.0), ValueError, "start at the same arrow"),
    "arrow delta": (lambda: arrow_pushout(SELF1, SELF1, delta=1.0), ValueError, ">= 1 rejected"),
    "norming vector": (lambda: NormedSpace([1.0, 2.0]), ValueError, "must be a matrix"),
    "norming empty": (lambda: NormedSpace(np.zeros((0, 2))), ValueError, "zero-dimensional"),
    "map not finite": (lambda: LinearMap(LinfSpace(1), LinfSpace(1), [[np.nan]]), ValueError, "must be finite"),
    "extension unreachable": (
        lambda: hahn_banach_extend(LinearMap(LinfSpace(2), LinfSpace(1), [[1.0, 0.0]]), [0.0, 1.0], 1.0, check=False),
        ValueError,
        "extension system infeasible",
    ),
    "certified net cap": (
        lambda: build_morphism_net(LinfSpace(1), LinfSpace(2), resolution=1.0, cap=60, require_certified=True),
        ResourceLimitError,
        "certified net needs 81 members, cap is 60",
    ),
    "stage connectives": (
        lambda: StageChain("gurarij", [LinfSpace(1)], [ID1], [], {}),
        ValueError,
        "exactly one connective",
    ),
    "stage pair": (
        lambda: StageChain("gurarij", [LinfSpace(1)], [], [], {}).connecting(0, 1),
        ValueError,
        "bad stage pair (0, 1)",
    ),
    "arrow connectives": (lambda: ArrowChain([ARROW1], [SELF1], [], {}), ValueError, "one connective per"),
    "arrow pair": (lambda: ArrowChain([ARROW1], [], [], {}).connecting(1, 0), ValueError, "bad stage pair (1, 0)"),
    "absorb a wider operator": (
        lambda: check_universal_operator_property(ArrowChain([ARROW1], [], [], {}), ID2, 0.2),
        RuntimeError,
        "no candidate embedding",
    ),
    "poulsen step space": (
        lambda: poulsen_extension_step(LinfSpace(2), [0.5, 0.5]),
        ValueError,
        "needs a function system",
    ),
    "minimality t": (
        lambda: minimality_map([0.5, 0.5], np.full(10, 0.2), eps=0.5),
        ValueError,
        "t must be a probability vector",
    ),
    "gurarij depth": (lambda: build_gurarij_chain(-2, seed=0), ValueError, "depth must be nonnegative, got -2"),
    "poulsen depth": (lambda: unital.build_poulsen_chain(-1, seed=0), ValueError, "depth must be nonnegative, got -1"),
    "poulsen targets": (
        lambda: unital.build_poulsen_chain(1, 0, seed=0),
        ValueError,
        "targets_per_step must be at least 1, got 0",
    ),
    "operator depth": (
        lambda: build_universal_operator_chain(-1, seed=0),
        ValueError,
        "depth must be nonnegative, got -1",
    ),
}


@pytest.mark.parametrize("name", INPUT_CHECKS)
def test_input_checks(name):
    call, error, fragment = INPUT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_reprs():
    assert repr(LPResult(1.5, np.zeros(1), "float")) == "LPResult(value=1.5, engine='float')"
    assert repr(Certificate("c", {}, 1.0, 0.5)) == "Certificate('c', measured=0.5, bound=1.0, passed=True)"
    assert repr(BANACH) == "Modulus('banach')"
    assert repr(LinfSpace(2)) == "NormedSpace(dim=2, rows=2, label='linf^2')"
    assert repr(E1) == "LinearMap(linf^1 -> linf^2, 2x1)"
    assert repr(ARROW1) == "ArrowObject(arrow(linf^1 -> linf^1))"


def _fail_first(monkeypatch, module, name, error, when=lambda *args, **kwargs: True):
    """Make module.name raise error on its first call that `when` accepts;
    returns the list of calls seen, with True for the one that raised."""
    orig = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        fail = when(*args, **kwargs) and not any(calls)
        calls.append(fail)
        if fail:
            raise error("injected")
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)
    return calls


class _RankOneFirst:
    """A generator whose first normal draw gives four parallel rows."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.draws = 0

    def normal(self, size):
        self.draws += 1
        return np.ones(size) if self.draws == 1 else self.rng.normal(size=size)


def test_source_pool_redraws_a_seminorm():
    rng = _RankOneFirst()
    pool = chains._source_pool(rng)
    assert [s.label for s in pool] == ["linf^1", "linf^2", "polytope2", "polytope2"]
    assert rng.draws == 1 + chains.POLYTOPE_SOURCES


def test_build_skips_an_obligation_whose_fold_fails(monkeypatch):
    calls = _fail_first(monkeypatch, chains, "nap_amalgamate", ValueError)
    chain = build_gurarij_chain(depth=1, dim_cap=2, seed=0)
    assert calls[:2] == [True, False]
    assert [s.dim for s in chain.stages] == [1, 2]
    assert [rec["mode"] for rec in chain.records].count("amalgam") == 1


def test_build_skips_an_obligation_whose_extension_fails(monkeypatch):
    calls = _fail_first(monkeypatch, chains, "extend_morphism", LPInfeasible)
    chain = build_gurarij_chain(depth=1, dim_cap=1, seed=0, extend_per_step=2)
    assert calls == [True, False, False]
    assert [rec["mode"] for rec in chain.records] == ["extend", "extend"]


@pytest.fixture(scope="module")
def tiny_chain():
    return build_gurarij_chain(depth=1, dim_cap=2, seed=0)


def _extension_problem(chain):
    f = LinearMap(LinfSpace(1), chain.stages[0], [[1.0]])
    return E1, f


def test_certify_extension_needs_neither_extension_nor_pushout(tiny_chain, monkeypatch):
    # the joint LP is at least as good as any contraction, so the extension
    # along phi and the pushout retraction are never worth building
    def unused(*args, **kwargs):
        raise AssertionError("certify_extension should not call this")

    monkeypatch.setattr(chains, "extend_morphism", unused)
    monkeypatch.setattr(amalgam, "approx_pushout", unused)
    res = certify_extension(tiny_chain, *_extension_problem(tiny_chain), 0, delta=0.05)
    assert res.mode in ("joint_lp", "pattern_lp")
    assert res.defect <= res.bound


def _with_pattern(*args, pattern=None):
    return pattern is not None


def test_certify_extension_survives_a_failed_pattern_lp(monkeypatch, tiny_chain):
    calls = _fail_first(monkeypatch, chains, "_best_contraction_lp", LPInfeasible, when=_with_pattern)
    res = certify_extension(tiny_chain, *_extension_problem(tiny_chain), 0, delta=0.05)
    assert calls == [False, True]
    assert res.mode == "joint_lp"


def test_back_and_forth_keeps_its_maps_when_a_round_fails(monkeypatch, tiny_chain):
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise LPInfeasible("injected")

    monkeypatch.setattr(chains, "_best_contraction_lp", failing)
    top = tiny_chain.top
    f = LinearMap(LinfSpace(1), top, [[1.0], [0.0]])
    g = LinearMap(LinfSpace(1), top, [[0.0], [0.95]])
    res = back_and_forth(tiny_chain, f, 1, g, 1, delta=0.1, rounds=3)
    # each round tries u, then v, and keeps the old pair when both fail
    assert len(calls) == 2 * (res.rounds - 1) >= 2
    assert res.trace == [res.trace[0]] * res.rounds


def test_absorption_check_skips_an_unsolvable_candidate(monkeypatch):
    chain = build_universal_operator_chain(depth=1, seed=0)
    calls = _fail_first(monkeypatch, universal, "_best_contraction_lp", LPInfeasible)
    res = check_universal_operator_property(chain, ID1.scale(0.5), 0.2, hints=[np.eye(chain.top.dom.dim)[:, :1]])
    assert calls[:2] == [True, False]
    assert res.via == "search"


def test_operator_build_refuses_a_degenerate_operator(monkeypatch):
    monkeypatch.setattr(universal, "ANCHOR_THRESHOLD", 2.0)
    with pytest.raises(RuntimeError, match="no usable anchor direction"):
        build_universal_operator_chain(depth=1, seed=0)


def test_operator_build_checks_its_connective_square(monkeypatch):
    monkeypatch.setattr(universal, "SQUARE_TOL", -1.0)
    with pytest.raises(RuntimeError, match="connective square defect"):
        build_universal_operator_chain(depth=1, seed=0)


def test_minimality_map_checks_its_closed_form(monkeypatch):
    monkeypatch.setattr(unital.FunctionSystem, "dual_norm", lambda self, g: -1.0)
    with pytest.raises(RuntimeError, match="dual norm disagreement"):
        minimality_map([0.5, 0.5], np.full(10, 0.1), eps=0.5)


def _not_unital(big, x):
    return 2.0 * big


def _not_self_adjoint(big, x):
    return big if np.array_equal(x, np.eye(x.shape[0])) else big + np.triu(np.ones_like(big), 1)


def _not_isometric(big, x):
    return big if np.array_equal(x, np.eye(x.shape[0])) else 2.0 * big


@pytest.mark.parametrize(
    "breaker, message",
    [(_not_unital, "not unital"), (_not_self_adjoint, "self-adjointness"), (_not_isometric, "not isometric")],
)
def test_embedding_checks_catch_a_broken_embedding(monkeypatch, breaker, message):
    rng = np.random.default_rng(103)
    s = MatrixState(random_density(2 * (2 * len(projector_family(2)) + 1), rng))
    t = MatrixState(random_density(2, rng))
    res = minimal_embedding(s, t, ell=2, samples=10)
    assert embedding_checks(res, s) <= 1e-12
    apply = trace_states.MatrixEmbedding.apply
    monkeypatch.setattr(trace_states.MatrixEmbedding, "apply", lambda self, x: breaker(apply(self, x), x))
    with pytest.raises(RuntimeError, match=message):
        embedding_checks(res, s)
