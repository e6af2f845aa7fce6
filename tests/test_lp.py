"""The two LP engines against each other and against closed forms."""

import numpy as np
import pytest

from fraisse import lp
from fraisse.amalgam import nap_amalgamate
from fraisse.chains import build_morphism_net
from fraisse.cli import main
from fraisse.lp import (
    LPError,
    LPInfeasible,
    LPUnbounded,
    current_engine,
    solve_lp,
    use_engine,
)
from fraisse.spaces import LinearMap, LinfSpace, NormedSpace
from fraisse.universal import prune_redundant_rows


def test_box_maximum_closed_form():
    # max x + 2y over the unit box: attained at (1, 1)
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    res = solve_lp(np.array([1.0, 2.0]), a_ub=a, b_ub=b)
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_equality_constraint():
    # min x + y with x - y = 1 on the box [-1, 1]^2: (0, -1)
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    res = solve_lp(
        np.array([1.0, 1.0]),
        a_ub=a,
        b_ub=b,
        a_eq=np.array([[1.0, -1.0]]),
        b_eq=np.array([1.0]),
        maximize=False,
    )
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_infeasible_raises():
    a = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])  # x <= 0 and x >= 1
    with pytest.raises(LPInfeasible):
        solve_lp(np.array([1.0]), a_ub=a, b_ub=b)


def test_unbounded_raises():
    with pytest.raises(LPUnbounded):
        solve_lp(np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))


def test_unknown_engine_rejected():
    with pytest.raises(LPError):
        solve_lp(np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([1.0]), engine="sympy")


def test_engine_env_var(monkeypatch):
    monkeypatch.setenv("FRAISSE_LP_ENGINE", "exact")
    assert current_engine() == "exact"
    assert current_engine("float") == "float"
    monkeypatch.setenv("FRAISSE_LP_ENGINE", "nonsense")
    with pytest.raises(LPError):
        current_engine()


def test_use_engine_scope_precedence_and_restore(monkeypatch):
    monkeypatch.delenv("FRAISSE_LP_ENGINE", raising=False)
    assert current_engine() == "float"
    with use_engine("exact"):
        assert current_engine() == "exact"
        assert current_engine("float") == "float"
        with use_engine(None):
            assert current_engine() == "exact"
        with pytest.raises(RuntimeError):
            with use_engine("float"):
                assert current_engine() == "float"
                raise RuntimeError
        assert current_engine() == "exact"
    assert current_engine() == "float"
    monkeypatch.setenv("FRAISSE_LP_ENGINE", "exact")
    with use_engine("float"):
        assert current_engine() == "float"
    with pytest.raises(LPError):
        with use_engine("sympy"):
            pass
    assert current_engine() == "exact"


@pytest.fixture
def solves(monkeypatch):
    """Count the LPs each engine solves."""
    counts = {"float": 0, "exact": 0}
    for name in counts:

        def spy(*args, _name=name, _orig=getattr(lp, f"_solve_{name}")):
            counts[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(lp, f"_solve_{name}", spy)
    return counts


def test_engine_scope_reaches_every_solve(solves, tmp_path):
    space = NormedSpace([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, -1.0]])
    with use_engine("exact"):
        net = build_morphism_net(LinfSpace(1), LinfSpace(1), 0.5)
        _, kept = prune_redundant_rows(space)
    assert solves["float"] == 0 and solves["exact"] > 0
    assert net.certified
    assert kept == prune_redundant_rows(space)[1] == [0, 1, 3]

    f = LinearMap(LinfSpace(1), LinfSpace(1), [[1.0]])
    path = tmp_path / "nap.json"
    nap_amalgamate(f, f).certificate(f, f).write(path)
    solves["float"] = 0
    assert main(["--engine", "exact", "verify", str(path)]) == 0
    assert solves["float"] == 0


def test_cached_norms_follow_the_engine(solves):
    t = LinearMap(LinfSpace(1), LinfSpace(1), [[0.5]])
    assert t.op_norm() == 0.5
    with use_engine("exact"):
        assert t.op_norm() == 0.5
    assert t.op_norm() == 0.5
    assert solves == {"float": 1, "exact": 1}


def test_shape_mismatch_raises():
    with pytest.raises(LPError):
        solve_lp(np.array([1.0, 2.0]), a_ub=np.eye(3), b_ub=np.ones(3))


def test_exact_engine_returns_fractions():
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    res = solve_lp(np.array([1.0, 2.0]), a_ub=a, b_ub=b, engine="exact")
    assert res.engine == "exact"
    assert res.exact_value is not None
    assert float(res.exact_value) == res.value
    assert res.value == pytest.approx(3.0, abs=0.0)


def test_exact_matches_float_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 6))
        a = rng.normal(size=(m, n))
        # keep the feasible region bounded with an explicit box
        a = np.vstack([a, np.eye(n), -np.eye(n)])
        b = np.concatenate([rng.uniform(0.5, 2.0, size=m), np.full(2 * n, 3.0)])
        c = rng.normal(size=n)
        f = solve_lp(c, a_ub=a, b_ub=b, engine="float")
        e = solve_lp(c, a_ub=a, b_ub=b, engine="exact")
        assert f.value == pytest.approx(e.value, abs=1e-7)


def test_residual_check_passes_on_solution():
    # the returned point must satisfy the constraints to working precision
    rng = np.random.default_rng(3)
    a = np.vstack([rng.normal(size=(5, 2)), np.eye(2), -np.eye(2)])
    b = np.concatenate([rng.uniform(1.0, 2.0, size=5), np.full(4, 2.0)])
    res = solve_lp(rng.normal(size=2), a_ub=a, b_ub=b)
    assert np.max(a @ res.x - b) <= 1e-8
