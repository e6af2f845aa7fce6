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
        with use_engine("sympy"):
            solve_lp(np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([1.0]))


def test_engine_env_var(monkeypatch):
    monkeypatch.setenv("FRAISSE_LP_ENGINE", "exact")
    assert current_engine() == "exact"
    monkeypatch.setenv("FRAISSE_LP_ENGINE", "nonsense")
    with pytest.raises(LPError):
        current_engine()


def test_use_engine_scope_precedence_and_restore(monkeypatch):
    monkeypatch.delenv("FRAISSE_LP_ENGINE", raising=False)
    assert current_engine() == "float"
    with use_engine("exact"):
        assert current_engine() == "exact"
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
    with use_engine("exact"):
        res = solve_lp(np.array([1.0, 2.0]), a_ub=a, b_ub=b)
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
        with use_engine("float"):
            f = solve_lp(c, a_ub=a, b_ub=b)
        with use_engine("exact"):
            e = solve_lp(c, a_ub=a, b_ub=b)
        assert f.value == pytest.approx(e.value, abs=1e-7)


def test_residual_check_passes_on_solution():
    # the returned point must satisfy the constraints to working precision
    rng = np.random.default_rng(3)
    a = np.vstack([rng.normal(size=(5, 2)), np.eye(2), -np.eye(2)])
    b = np.concatenate([rng.uniform(1.0, 2.0, size=5), np.full(4, 2.0)])
    res = solve_lp(rng.normal(size=2), a_ub=a, b_ub=b)
    assert np.max(a @ res.x - b) <= 1e-8


@pytest.mark.parametrize("bad", ["x", "fun", "y_ub", "y_eq"])
def test_check_float_solution_rejects_non_finite(bad):
    # x = 1 is the optimum of min x subject to -x <= -1 and x = 1, with
    # duals that close the gap; one NaN anywhere must still fail the check
    lp_data = {"a_ub": [[-1.0]], "b_ub": [-1.0], "a_eq": [[1.0]], "b_eq": [1.0]}
    lp_data = {k: np.array(v) for k, v in lp_data.items()}
    parts = {"x": np.array([1.0]), "fun": 1.0, "y_ub": np.array([0.0]), "y_eq": np.array([1.0])}
    lp._check_float_solution(**parts, **lp_data)
    parts[bad] = parts[bad] * np.nan
    with pytest.raises(LPError):
        lp._check_float_solution(**parts, **lp_data)


def _lp_battery(seed):
    """Seeded (c, a_ub, b_ub, a_eq, b_eq, maximize): solvable, infeasible, unbounded, bad input."""
    rng = np.random.default_rng(seed)

    def sparse(m, n):
        a = rng.normal(size=(m, n))
        a[rng.random((m, n)) < 0.3] = 0.0
        a[rng.random((m, n)) < 0.1] = -0.0
        return a

    for _ in range(12):
        n = int(rng.integers(1, 6))
        box = np.vstack([np.eye(n), -np.eye(n)])
        r = rng.uniform(0.5, 2.0, size=2 * n)
        c = rng.normal(size=n)
        maximize = bool(rng.integers(2))
        # box LPs, alone and with a few more rows
        yield c, box, r, None, None, maximize
        m = int(rng.integers(1, 6))
        yield c, np.vstack([sparse(m, n), box]), np.concatenate([rng.uniform(0.5, 2.0, m), r]), None, None, maximize
        # one variable
        yield rng.normal(size=1), rng.normal(size=(3, 1)), rng.uniform(-1.0, 1.0, 3), None, None, maximize
        # equality rows only: bounded exactly when c lies in their row space
        a_eq = sparse(min(n, int(rng.integers(1, 4))), n)
        b_eq = rng.normal(size=a_eq.shape[0])
        yield rng.normal(size=a_eq.shape[0]) @ a_eq, None, None, a_eq, b_eq, maximize
        yield c, None, None, a_eq, b_eq, maximize
        # a rank-deficient equality block: consistent, then inconsistent
        dup = np.vstack([a_eq, 2.0 * a_eq[:1]])
        yield c, box, r, dup, np.concatenate([b_eq, 2.0 * b_eq[:1]]), maximize
        yield c, box, r, dup, np.concatenate([b_eq, 2.0 * b_eq[:1] + 1.0]), maximize
        # infeasible (x_0 <= -1 and x_0 >= 1) and unbounded (nothing bounds c.x)
        infeasible = np.zeros((2, n))
        infeasible[:, 0] = [1.0, -1.0]
        yield c, np.vstack([infeasible, box]), np.concatenate([[-1.0, -1.0], r]), None, None, maximize
        yield c, -np.eye(n), np.zeros(n), None, None, True
        yield c, None, None, None, None, maximize
    # non-finite input: ValueError from either path
    c, box, r = np.ones(2), np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    yield np.array([np.nan, 1.0]), box, r, None, None, True
    yield c, np.where(box == 1.0, np.inf, box), r, None, None, True
    yield c, box, np.array([1.0, 1.0, -np.inf, 1.0]), None, None, True
    yield c, box, r, np.array([[1.0, 1.0]]), np.array([np.nan]), True
    yield c, box, r, np.array([[np.nan, 1.0]]), np.array([0.0]), False


def _outcome(args):
    c, a_ub, b_ub, a_eq, b_eq, maximize = args
    try:
        with use_engine("float"):
            res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
    except (LPError, ValueError) as exc:
        return type(exc)
    return res.value, res.x.tobytes()


def test_direct_highs_matches_linprog(monkeypatch):
    if lp._highs is None:
        pytest.skip("this scipy has no HiGHS bindings, so linprog is the only path")
    battery = list(_lp_battery(11))
    direct = [_outcome(args) for args in battery]
    monkeypatch.setattr(lp, "_highs", None)
    via_linprog = [_outcome(args) for args in battery]
    for args, d, v in zip(battery, direct, via_linprog):
        assert d == v, args
    kinds = {o if isinstance(o, type) else "solved" for o in direct}
    assert kinds == {"solved", LPInfeasible, LPUnbounded, ValueError}
