"""The two LP engines against each other and against closed forms."""

import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fraisse import lp
from fraisse.amalgam import nap_amalgamate
from fraisse.chains import _best_contraction_lp, build_morphism_net
from fraisse.cli import main
from fraisse.lp import (
    LPError,
    LPInfeasible,
    LPUnbounded,
    current_engine,
    solve_lp,
    use_engine,
)
from fraisse.spaces import LinearMap, LinfSpace, NormedSpace, extend_morphism
from fraisse.universal import prune_redundant_rows

LINPROG_OUTCOMES = Path(__file__).parent / "data" / "linprog_lp_battery_11.json"
EXACT_OUTCOMES = Path(__file__).parent / "data" / "exact_lp_battery_0.json"


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


def test_environment_does_not_select_the_engine(monkeypatch):
    monkeypatch.setenv("FRAISSE_LP_ENGINE", "exact")
    assert current_engine() == "float"
    assert solve_lp(np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([1.0])).engine == "float"


def test_use_engine_scope_precedence_and_restore():
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
    with pytest.raises(LPError):
        with use_engine("sympy"):
            pass
    assert current_engine() == "float"


def test_engine_scope_reaches_every_solve(solves, tmp_path):
    space = NormedSpace([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, -1.0]])
    with use_engine("exact"):
        net = build_morphism_net(LinfSpace(1), LinfSpace(1), 0.5, 0)
        _, kept = prune_redundant_rows(space)
    assert solves["float"] == 0 and solves["exact"] > 0
    assert len(net) == 7  # the whole grid, so a certified net
    assert kept == prune_redundant_rows(space)[1] == [0, 1, 3]

    f = LinearMap(LinfSpace(1), LinfSpace(1), [[1.0]])
    path = tmp_path / "nap.json"
    path.write_text(json.dumps(nap_amalgamate(f, f, f.distortion()).certificate(f, f).to_json()))
    solves["float"] = 0
    assert main(["--engine", "exact", "verify", str(path)]) == 0
    assert solves["float"] == 0


def test_cached_norms_follow_the_engine(solves):
    # out of a domain that is not linf^n, so the float engine solves an LP too
    t = LinearMap(NormedSpace([[2.0]]), LinfSpace(1), [[0.5]])
    assert t.op_norm() == 0.25
    with use_engine("exact"):
        assert t.op_norm() == 0.25
    assert t.op_norm() == 0.25
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


def _engine_outcomes(*args, maximize=True):
    """solve_lp's value and x, or its exception type and message, on each engine."""
    outcomes = []
    for engine in ("float", "exact"):
        try:
            with use_engine(engine):
                res = solve_lp(*args, maximize=maximize)
        except (LPError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((res.value, res.x.tolist()))
    return outcomes


def test_exact_engine_without_rows_answers_as_float():
    # the old simplex raised IndexError here: no rows, or none left after phase 1 (0.x = 0)
    zero_row = (None, None, np.zeros((1, 2)), np.zeros(1))
    for rows in [(), zero_row]:
        assert _engine_outcomes(np.zeros(2), *rows) == [(0.0, [0.0, 0.0])] * 2
        unbounded = _engine_outcomes(np.array([0.0, -1.0]), *rows, maximize=False)
        assert unbounded == [(LPUnbounded, "LP unbounded"), (LPUnbounded, "exact LP unbounded")]


def test_engines_refuse_the_same_input():
    box, ones = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    for args, message in [
        ((np.zeros(0),), "LP has no variables"),
        ((np.array([np.inf, 1.0]), box, ones), "LP input c must not contain inf or nan"),
        ((np.array([np.nan, 1.0]), box, ones), "LP input c must not contain inf or nan"),
        ((np.ones(2), box, np.array([1.0, -np.inf, 1.0, 1.0])), "LP input b_ub must not contain inf or nan"),
        ((np.ones(2), box, ones, [[1.0, np.inf]], [0.0]), "LP input a_eq must not contain inf or nan"),
        ((np.ones(2), None, None, [[1.0, 1.0]], [np.nan]), "LP input b_eq must not contain inf or nan"),
    ]:
        assert _engine_outcomes(*args) == [(ValueError, message)] * 2, message


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


def _check_float_solution(c, a_ub, b_ub, a_eq, b_eq, x, y_ub, y_eq):
    """`lp._check_float_solution` on the rows in each form, dense and as nonzeros;
    both must pass, or both raise the same message."""
    outcomes = []
    for rows in (lp._DenseRows(a_ub, a_eq), lp._DenseRows(a_ub, a_eq).nonzeros()):
        try:
            lp._check_float_solution(c, rows, b_ub, b_eq, x, y_ub, y_eq)
        except LPError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1], outcomes
    if outcomes[0] is not None:
        raise LPError(outcomes[0])


@pytest.mark.parametrize("bad", ["x", "c", "y_ub", "y_eq"])
def test_check_float_solution_rejects_non_finite(bad):
    # x = 1 is the optimum of min x subject to -x <= -1 and x = 1, with
    # duals that close the gap; one NaN anywhere must still fail the check
    lp_data = {"a_ub": [[-1.0]], "b_ub": [-1.0], "a_eq": [[1.0]], "b_eq": [1.0]}
    lp_data = {k: np.array(v) for k, v in lp_data.items()}
    parts = {"c": np.array([1.0]), "x": np.array([1.0]), "y_ub": np.array([0.0]), "y_eq": np.array([1.0])}
    _check_float_solution(**parts, **lp_data)
    parts[bad] = parts[bad] * np.nan
    with pytest.raises(LPError, match="not finite"):
        _check_float_solution(**parts, **lp_data)


@pytest.mark.parametrize(
    "bad, message",
    [({"x": np.array([1.0, 1.5])}, "equality residual"), ({"x": np.array([2.0, 1.0])}, "duality gap")],
)
def test_check_float_solution_rejects_infeasible_or_suboptimal(bad, message):
    # min x_0 over 1 <= x_0 <= 5 and x_1 = 1: x = (1.5, 1) misses the
    # equality row, and x = (2, 1) is feasible but a gap of 1 from the dual
    # objective of the optimal, dual feasible y
    lp_data = {"c": [1.0, 0.0], "a_ub": [[-1.0, 0.0], [1.0, 0.0]], "b_ub": [-1.0, 5.0], "a_eq": [[0.0, 1.0]], "b_eq": [1.0]}
    lp_data = {k: np.array(v) for k, v in lp_data.items()}
    parts = {"x": np.array([1.0, 1.0]), "y_ub": np.array([-1.0, 0.0]), "y_eq": np.array([0.0])}
    _check_float_solution(**parts, **lp_data)
    with pytest.raises(LPError, match=message):
        _check_float_solution(**{**parts, **bad}, **lp_data)


@pytest.mark.parametrize(
    "b_ub, x, y_ub, message",
    [
        # x = 1 is feasible but not optimal, and y_ub has the wrong sign and
        # leaves a residual: c - a_ub^T y_ub = 1.2
        ([5.0, 0.0], 1.0, [0.0, 0.2], "dual residual"),
        # the optimum x = 0 with a y that closes the gap but not c = a_ub^T y
        ([5.0, 0.0], 0.0, [0.0, -0.5], "dual residual"),
        # over -1 <= x <= 1 the maximizer x = 1, with c = a_ub^T y and no gap,
        # but y_ub = (1, 0) is the dual of a maximization
        ([1.0, 1.0], 1.0, [1.0, 0.0], "wrong sign"),
    ],
)
def test_check_float_solution_demands_dual_feasibility(b_ub, x, y_ub, message):
    # min x subject to x <= b_0 and -x <= b_1: each x is primal feasible
    lp_data = {"c": [1.0], "a_ub": [[1.0], [-1.0]], "b_ub": b_ub, "a_eq": np.zeros((0, 1)), "b_eq": np.zeros(0)}
    lp_data = {k: np.array(v) for k, v in lp_data.items()}
    with pytest.raises(LPError, match=message):
        _check_float_solution(**lp_data, x=np.array([x]), y_ub=np.array(y_ub), y_eq=np.zeros(0))


class _ShiftedRows:
    """A HiGHS instance whose solutions report every row activity 1 too high."""

    def __init__(self, highs):
        self._highs = highs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getSolution(self):
        sol = self._highs.getSolution()
        sol.row_value = list(np.array(sol.row_value) + 1.0)
        return sol


def _run_highs_dense(c, a_ub, b_ub, a_eq, b_eq):
    """`lp._run_highs` on dense blocks, scanned for their nonzeros as `solve_lp` scans them."""
    return lp._run_highs(c, lp._DenseRows(a_ub, a_eq).nonzeros(), b_ub, b_eq)


def test_run_highs_checks_the_rows_it_reports(monkeypatch):
    # linprog's _check_result: a solution whose rows break their bounds is refused
    box = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    none = np.zeros((0, 2)), np.zeros(0)
    assert _run_highs_dense(-np.ones(2), *box, *none)[0].tolist() == [1.0, 1.0]
    highs = lp._thread_highs()
    monkeypatch.setattr(lp, "_thread_highs", lambda: _ShiftedRows(highs))
    with pytest.raises(LPError, match="beyond linprog's tolerance"):
        _run_highs_dense(-np.ones(2), *box, *none)


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


def _battery_digest(battery):
    h = hashlib.sha256()
    for *arrays, maximize in battery:
        for arr in arrays:
            arr = np.zeros(0) if arr is None else np.asarray(arr, dtype=float)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        h.update(b"max" if maximize else b"min")
    return h.hexdigest()


def _thawed(frozen):
    if "raises" in frozen:
        return {"LPInfeasible": LPInfeasible, "LPUnbounded": LPUnbounded, "ValueError": ValueError}[frozen["raises"]]
    return float.fromhex(frozen["value"]), np.array([float.fromhex(v) for v in frozen["x"]]).tobytes()


def test_direct_highs_matches_linprog():
    # linprog(method="highs")'s outcomes, frozen while the float engine could still call it
    frozen = json.loads(LINPROG_OUTCOMES.read_text())
    battery = list(_lp_battery(11))
    assert _battery_digest(battery) == frozen["battery_sha256"]
    direct = [_outcome(args) for args in battery]
    for args, d, v in zip(battery, direct, frozen["outcomes"], strict=True):
        assert d == _thawed(v), args
    kinds = {o if isinstance(o, type) else "solved" for o in direct}
    assert kinds == {"solved", LPInfeasible, LPUnbounded, ValueError}


def _exact_battery(seed):
    """`_lp_battery(seed)`, then small-integer LPs for the exact engine.

    The integer LPs are degenerate on purpose: entries in {-1, 0, 1} and
    mostly zero right-hand sides give ties in the ratio test, zero,
    repeated and redundant rows, and LPs with no rows at all, where
    Bland's rule and the removal of artificials decide the answer.
    """
    yield from _lp_battery(seed)
    rng = np.random.default_rng(seed)

    def ints(*shape):
        return rng.integers(-1, 2, size=shape).astype(float)

    def rhs(m):
        return rng.choice([0.0, 0.0, 1.0, -1.0], size=m)

    for _ in range(1000):
        n, m_ub, m_eq = int(rng.integers(1, 6)), int(rng.integers(0, 9)), int(rng.integers(0, 3))
        yield ints(n), ints(m_ub, n), rhs(m_ub), ints(m_eq, n), rhs(m_eq), bool(rng.integers(2))
    yield np.zeros(2), None, None, None, None, True  # no rows: optimal at 0
    yield np.zeros(2), None, None, np.zeros((1, 2)), np.zeros(1), False  # phase 1 drops 0.x = 0
    yield np.array([1.0, 0.0]), None, None, np.zeros((1, 2)), np.zeros(1), True  # ... unbounded
    yield np.array([np.inf]), np.ones((1, 1)), np.ones(1), None, None, True


def _exact_outcomes(battery, monkeypatch):
    """What the exact engine gives on each LP: the exact value and x, or the exception name."""
    simplex, points = lp._exact_simplex, []

    def spy(*args):
        value, x = simplex(*args)
        points.append(x)
        return value, x

    monkeypatch.setattr(lp, "_exact_simplex", spy)
    out = []
    for c, a_ub, b_ub, a_eq, b_eq, maximize in battery:
        try:
            with use_engine("exact"):
                res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
        except (LPError, ValueError, IndexError, OverflowError) as exc:  # the old simplex's too
            out.append({"raises": type(exc).__name__})
        else:
            out.append({"value": str(res.exact_value), "x": [str(v) for v in points[-1]]})
    return out


def test_exact_simplex_matches_its_frozen_outcomes(monkeypatch):
    frozen = json.loads(EXACT_OUTCOMES.read_text())
    battery = list(_exact_battery(0))
    assert _battery_digest(battery) == frozen["battery_sha256"]
    new = _exact_outcomes(battery, monkeypatch)
    for args, mine, old in zip(battery, new, frozen["outcomes"], strict=True):
        if old.get("raises") in ("IndexError", "OverflowError"):
            # the old simplex failed on no rows and non-finite input: now the float engine's outcome type
            fl = _outcome(args)
            assert mine.get("raises", "solved") == (fl.__name__ if isinstance(fl, type) else "solved"), args
        else:
            assert mine == old, args
    kinds = {o.get("raises", "solved") for o in frozen["outcomes"]}
    assert kinds == {"solved", "LPInfeasible", "LPUnbounded", "IndexError", "ValueError", "OverflowError"}


def _separable_battery(seed):
    """Seeded (cost, a_ub, b_ub) to minimize, each row with one nonzero.

    One-variable LPs and boxes, symmetric and not; unit, non-unit and
    badly scaled coefficients; -0.0 entries; tied and nearly tied rows;
    zero costs; and LPs that are infeasible, unbounded, non-finite or
    have a row without a nonzero.
    """
    rng = np.random.default_rng(seed)

    def lp_of(n, sides, near_tie):
        rows, rhs = [], []
        for j in range(n):
            scale = 10.0 ** rng.uniform(-4, 4) if rng.random() < 0.3 else 1.0
            for sign in sides:
                a = sign * scale * rng.choice([1.0, rng.uniform(0.1, 10.0)])
                b = rng.choice([1.0, 2.0, 0.0, -0.0, rng.uniform(-1.0, 3.0)])
                for copy in range(int(rng.integers(1, 3))):
                    row = np.full(n, rng.choice([0.0, -0.0]))
                    row[j] = a
                    rows.append(row)
                    rhs.append(b * (1.0 + near_tie * copy))
        order = rng.permutation(len(rhs))
        return np.array(rows)[order], np.array(rhs)[order]

    for _ in range(150):
        n = int(rng.integers(1, 5))
        cost = rng.normal(size=n) * rng.choice([1.0, 1e-13, 1e4], size=n)
        cost[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
        near_tie = rng.choice([0.0, 0.0, 1e-12, 1e-9, 1e-8, 1e-6])
        yield (cost, *lp_of(n, (1.0, -1.0), near_tie))
        # one side only: bounded when the cost points at it (or is zero)
        yield (cost, *lp_of(n, (rng.choice([1.0, -1.0]),), near_tie))
    yield np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])  # infeasible
    yield np.array([1.0, 0.0]), np.eye(2), np.ones(2)  # unbounded
    yield np.array([0.0]), np.array([[1.0], [0.0]]), np.array([1.0, 1.0])  # a row without a nonzero
    yield np.array([0.0]), np.array([[1.0], [-0.0]]), np.array([1.0, -1.0])  # ... infeasible
    yield np.array([np.nan]), np.array([[1.0], [-1.0]]), np.ones(2)
    yield np.array([1.0]), np.array([[1.0], [-np.inf]]), np.ones(2)
    yield np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, np.inf])
    yield np.array([-1.0]), np.array([[1e-12], [-1.0]]), np.ones(2)  # HiGHS drops 1e-12
    # HiGHS reports x = 1e-20 as -0.0, and fixes this column at its lower bound
    yield np.array([-1.0]), np.array([[1.0], [-1.0]]), np.array([1e-20, 1.0])
    b = np.array([0.0, 2.8131098533270517e-05, 0.0])
    yield np.array([0.0]), np.array([[1.0], [-828.0], [1.0]]), b
    # as many nonzeros as rows, but a zero row beside one with two
    yield np.array([-1.0, -1.0]), np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.ones(4)
    # coefficients and right-hand sides in range, their bounds b / a from 5e6 up to 1e12 not
    yield np.array([-1.0]), np.array([[2e-6], [-1.0]]), np.array([10.0, 1.0])
    for a, b in ((2e-6, 10.0), (1e-6, 1e6), (3e-5, -7e5)):
        for cost in (-1e6, -1.0, 0.0, -0.0, 1.0, 1e6):
            yield np.array([cost]), np.array([[a], [-1e-6]]), np.array([b, 1e6])
    two = np.array([[1e-6, 0.0], [0.0, -4e-6], [-1.0, 0.0], [0.0, 1.0]])
    yield np.array([-1.0, 1e6]), two, np.array([1e6, 1e6, 1.0, 1.0])


def _linf_map_battery(seed):
    """Seeded maps out of linf^n (n <= 6) into linf^m or a random polytope norm (m <= 6).

    Entries are normal draws scaled by 1e-13 up to 1e15, some of them
    +-0.0, and some rows or whole maps zero.
    """
    rng = np.random.default_rng(seed)
    for _ in range(400):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if rng.random() < 0.5:
            cod = LinfSpace(m)
        else:
            w = rng.normal(size=(m + int(rng.integers(0, 4)), m))
            cod = NormedSpace(w * 10.0 ** rng.uniform(-2, 2, size=(w.shape[0], 1)))
        t = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-13, 15, size=(m, n))
        t[rng.random((m, n)) < 0.2] = rng.choice([0.0, -0.0])
        t[rng.random(m) < 0.1] = -0.0
        yield LinearMap(LinfSpace(n), cod, t * (rng.random() > 0.02))


def test_linf_op_norm_matches_the_highs_route_bit_for_bit():
    for t in _linf_map_battery(20):
        ball_a, ball_b = t.dom.ball_constraints()
        best = 0.0
        for row in t.cod.norming:
            best = max(best, solve_lp(row @ t.matrix, a_ub=ball_a, b_ub=ball_b).value)
        assert np.float64(t.op_norm()).tobytes() == np.float64(best).tobytes(), t.matrix


def test_linf_op_norm_that_overflows_raises():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        LinearMap(LinfSpace(2), LinfSpace(1), [[1e308, -1e308]]).op_norm()


def test_linf1_op_norm_never_calls_highs(monkeypatch):
    calls = []
    run_highs = lp._run_highs
    monkeypatch.setattr(lp, "_run_highs", lambda *args: calls.append(1) or run_highs(*args))
    m = np.random.default_rng(0).normal(size=(12, 1))
    assert LinearMap(LinfSpace(1), LinfSpace(12), m).op_norm() == np.max(np.abs(m))
    assert calls == []


def _l1_pivot_battery(seed):
    """Seeded one-row LPs of `spaces._least_coefficient_sum`, as `_run_highs` takes them.

    Unit pivots of either sign, alone (n = 1) or among smaller entries,
    some just under 1 in magnitude, tiny or zero; ties at |a| = 1 and
    largest entries other than 1; g at +-0, tiny, normal and up to 1e5;
    an all-zero row and non-finite a or g.
    """
    rng = np.random.default_rng(seed)
    near = lp.L1_PIVOT_MARGIN * lp._HIGHS_OPTIONS.primal_feasibility_tolerance

    def lp_of(a, g):
        nr = len(a)
        c, a_ub, b_ub = lp.l1_template(nr)
        return c, a_ub, b_ub, np.hstack([a, np.zeros(nr)])[None, :], np.array([g])

    for _ in range(600):
        nr = int(rng.integers(1, 15))
        a = rng.uniform(-1.0, 1.0, size=nr)
        for j in range(nr):
            kind = rng.random()
            if kind < 0.05:  # just under 1: inside and outside the margin
                a[j] = rng.choice([-1.0, 1.0]) * (1.0 - near * rng.uniform(0.5, 3.0))
            elif kind < 0.15:
                a[j] = rng.choice([0.0, -0.0, 1e-12, 1e-8])
            elif kind < 0.17:  # a tie with the pivot
                a[j] = rng.choice([-1.0, 1.0])
        a[rng.integers(nr)] = rng.choice([1.0, -1.0] * 3 + [1.0 + 1e-12, 0.5, 2.0])
        size = rng.choice([0.0, 1e-12, 1e-8, near / 2, 1e-5, 1.0, 1e5] + [10.0 ** rng.uniform(-3.0, 5.0)] * 3)
        yield lp_of(a, rng.choice([1.0, -1.0]) * size)
    yield lp_of(np.zeros(3), 1.0)  # infeasible
    yield lp_of(np.array([np.nan, 1.0]), 1.0)
    yield lp_of(np.array([0.5, -np.inf]), 1.0)
    yield lp_of(np.array([0.5, -1.0]), np.nan)
    yield lp_of(np.array([0.5, -1.0]), np.inf)


def test_l1_pivot_matches_highs_bit_for_bit(monkeypatch):
    battery = list(_l1_pivot_battery(7))
    served = 0
    for args in battery:
        closed = lp._solve_l1_closed_form(*args)
        if closed is not None:
            served += 1
            highs = _run_highs_dense(*args)[0]
            assert closed[0].tobytes() == highs.tobytes(), (args, closed[0], highs)
    assert served >= 150  # exercised, not only bypassed (234 of 605 at seed 7)
    # what solve_lp makes of each LP, value, x or exception type, is what HiGHS alone gives
    lps = [(*args, False) for args in battery]
    with_closed_form = [_outcome(a) for a in lps]
    monkeypatch.setattr(lp, "_solve_l1_closed_form", lambda *args: None)
    for a, mine, highs in zip(lps, with_closed_form, [_outcome(a) for a in lps]):
        assert mine == highs, a
    kinds = {o if isinstance(o, type) else "solved" for o in with_closed_form}
    assert kinds == {"solved", LPError, LPInfeasible, ValueError}


def test_l1_pivot_leaves_other_shapes_and_near_cases_to_highs():
    near = lp.L1_PIVOT_MARGIN * lp._HIGHS_OPTIONS.primal_feasibility_tolerance
    c, a_ub, b_ub = lp.l1_template(3)

    def pivot(a, g, c=c, a_ub=a_ub, b_ub=b_ub):
        a = np.atleast_2d(a)
        a_eq = np.hstack([a, np.zeros_like(a)])
        return lp._solve_l1_closed_form(c, a_ub, b_ub, a_eq, np.full(a.shape[0], g))

    x = pivot([0.5, -1.0, 1.0 - 2 * near], 0.75)[0]
    assert x.tobytes() == np.array([-0.0, -0.75, -0.0, -0.0, 0.75, -0.0]).tobytes()
    assert pivot([0.5, -1.0, 0.25], 0.0)[0].tobytes() == np.full(6, -0.0).tobytes()
    assert pivot([0.5, -1.0, 1.0 - near / 2], 0.75) is None  # a near tie
    assert pivot([0.5, -1.0, 1.0], 0.75) is None  # a tie
    assert pivot([0.5, -1.0 + 1e-12, 0.25], 0.75) is None  # no unit pivot
    assert pivot([0.5, -2.0, 0.25], 0.75) is None
    assert pivot([np.nan, -1.0, 0.25], 0.75) is None
    assert pivot([0.5, -1.0, 0.25], near / 2) is None  # tiny g
    assert pivot([0.5, -1.0, 0.25], 2 / near) is None  # huge g
    assert pivot([0.5, -1.0, 0.25], np.nan) is None
    assert pivot(np.eye(3), 0.75) is None  # three equality rows: no closed form
    assert lp._solve_l1_closed_form(np.zeros(0), np.zeros((0, 0)), np.zeros(0), np.zeros((1, 0)), np.ones(1)) is None
    # not the template: a maximization, a scaled or loosened sign row, a u column in the row
    assert pivot([0.5, -1.0, 0.25], 0.75, c=-c) is None
    assert pivot([0.5, -1.0, 0.25], 0.75, a_ub=a_ub * np.arange(1, 7)[:, None]) is None
    assert pivot([0.5, -1.0, 0.25], 0.75, b_ub=np.eye(6)[0]) is None
    u_in_row = np.array([[0.5, -1.0, 0.25, 0.0, 1e-3, 0.0]])
    assert lp._solve_l1_closed_form(c, a_ub, b_ub, u_in_row, np.array([0.75])) is None
    # at g = 1e-8 HiGHS's point misses the residual check, and solve_lp must still say so
    with pytest.raises(LPError, match="residual"):
        solve_lp(c, a_ub, b_ub, np.hstack([[0.5, -1.0, 0.25], np.zeros(3)])[None, :], [1e-8], maximize=False)


def _l1_two_row_lp(a, g):
    a = np.array(a, dtype=float)
    c, a_ub, b_ub = lp.l1_template(a.shape[1])
    return c, a_ub, b_ub, np.hstack([a, np.zeros_like(a)]), np.array(g, dtype=float)


def _l1_two_row_battery(seed):
    """Seeded two-row LPs of `spaces._least_coefficient_sum`, as `_run_highs` takes them.

    Columns of mixed scale, some zero, repeated, negated, rescaled or
    nearly parallel to another, or with one zero entry; g at 0, tiny,
    normal, large or on a column's ray.
    """
    rng = np.random.default_rng(seed)
    for _ in range(400):
        nr = int(rng.integers(2, 15))
        a = rng.normal(size=(2, nr)) * 10.0 ** rng.uniform(-2.0, 2.0)
        for j in range(nr):
            kind, k = rng.random(), rng.integers(nr)
            if kind < 0.04:
                a[:, j] = 0.0
            elif kind < 0.08:
                a[:, j] = a[:, k] * rng.choice([1.0, -1.0, 0.5, 2.0])
            elif kind < 0.1:
                a[:, j] = a[:, k] * (1.0 + 1e-8 * rng.normal())
            elif kind < 0.13:
                a[rng.integers(2), j] = 0.0
        g = rng.normal(size=2) * rng.choice([0.0, 1e-8, 1.0, 1.0, 1.0, 1e3, 10.0 ** rng.uniform(-3.0, 5.0)])
        if rng.random() < 0.1:
            g = a[:, rng.integers(nr)] * rng.uniform(0.5, 2.0)
        yield _l1_two_row_lp(a, g)


def test_l1_two_row_finds_the_highs_vertex(monkeypatch):
    battery = list(_l1_two_row_battery(3))
    served = 0
    for args in battery:
        closed = lp._solve_l1_closed_form(*args)
        if closed is None:
            continue
        served += 1
        nr = args[0].shape[0] // 2
        x = _run_highs_dense(*args)[0]
        assert set(np.flatnonzero(closed[0][:nr])) == set(np.flatnonzero(x[:nr])), args
        value, highs = closed[0][nr:].sum(), x[nr:].sum()
        assert abs(value - highs) <= lp.GAP_TOL * (1.0 + highs), args
        assert np.array_equal(closed[0][nr:], abs(closed[0][:nr]))
    assert served >= 150  # exercised, not only bypassed (240 of 400 at seed 3)
    # what solve_lp makes of each LP, a value or an exception type, is what HiGHS alone gives
    lps = [(*args, False) for args in battery]
    with_closed_form = [_outcome(a) for a in lps]
    monkeypatch.setattr(lp, "_solve_l1_closed_form", lambda *args: None)
    for a, mine, highs in zip(lps, with_closed_form, [_outcome(a) for a in lps]):
        if isinstance(highs, type):
            assert mine is highs, a
        else:
            assert mine[0] == pytest.approx(highs[0], rel=lp.GAP_TOL, abs=lp.GAP_TOL), a
    kinds = {o if isinstance(o, type) else "solved" for o in with_closed_form}
    # LPError: HiGHS's answer, at its own 1e-7 tolerances, fails a check
    # (tiny g, or a tie between repeated columns with a dual off by 7e-9)
    assert kinds == {"solved", LPError, LPInfeasible}


_NEAR = lp.L1_PIVOT_MARGIN * lp._HIGHS_OPTIONS.primal_feasibility_tolerance


@pytest.mark.parametrize(
    "a, g, outcome",
    [
        pytest.param([[1.0, np.nan, 0.0], [0.0, 1.0, 1.0]], [1.0, 0.5], ValueError, id="non-finite a"),
        pytest.param([[1.0, 0.0, 0.5], [0.0, 1.0, 1.0]], [np.inf, 0.5], ValueError, id="non-finite g"),
        pytest.param([[1.0, -2.0, 0.5], [2.0, -4.0, 1.0]], [1.0, 0.5], LPInfeasible, id="rank 1, g off its span"),
        pytest.param([[1.0, -2.0, 0.5], [2.0, -4.0, 1.0]], [1.0, 2.0], 0.5, id="rank 1, g on its span"),
        pytest.param([[1.0, 0.0, 0.5], [0.0, 1.0, 1.0]], [0.0, -0.0], 0.0, id="g = 0"),
        pytest.param([[1.0, 0.0, 0.5], [0.0, 1.0, 1.0]], [_NEAR / 2, 0.0], _NEAR / 2, id="tiny g"),
        pytest.param([[1.0, 0.0, 0.5], [0.0, 1.0, 1.0]], [1.0, 2 / _NEAR], 2 / _NEAR, id="huge g"),
        # pairs (0, 1) and (0, 2) sum to 2 and 2 - 1e-7
        pytest.param([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0 + 1e-7]], [1.0, 1.0], 2.0 - 1e-7, id="near tie"),
        # the best pair (1, 2) has mu_1 = 0, and the other pair with column 2 is singular
        pytest.param([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]], [1.0, 0.0], 0.5, id="degenerate vertex"),
        # the optimum 0.7 a_0 + 0.3 a_1 = g rests on a pair skipped as
        # near-singular; the best other pair (0, 2) sums to 1 + 3e-5 and its
        # y has a_1.y = 1 + 1e-4
        pytest.param([[1.0, 1.0, 0.0], [0.0, 1e-7, 1e-3]], [1.0, 0.3e-7], 1.0, id="near-singular optimum"),
    ],
)
def test_l1_two_row_leaves_to_highs(a, g, outcome):
    args = _l1_two_row_lp(a, g)
    assert lp._solve_l1_closed_form(*args) is None
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            solve_lp(*args, maximize=False)
    else:
        assert solve_lp(*args, maximize=False).value == pytest.approx(outcome, rel=1e-12)


def test_exact_engine_never_takes_a_closed_form(monkeypatch):
    served = []
    monkeypatch.setattr(lp, "_solve_l1_closed_form", lambda *args: served.append(1))
    one_row = _l1_two_row_lp([[0.5, -1.0, 0.25]], [0.75])
    two_row = _l1_two_row_lp([[1.0, 0.0, 0.5], [0.0, 1.0, 1.0]], [1.0, 0.5])
    for args, value in ((one_row, 0.75), (two_row, 1.25)):
        with use_engine("exact"):
            res = solve_lp(*args, maximize=False)
        assert res.engine == "exact" and res.exact_value == value
    assert served == []
    assert solve_lp(*two_row, maximize=False).value == 1.25 and served == [1]


def test_extension_along_a_coordinate_injection_makes_no_highs_call(monkeypatch):
    calls = []
    run_highs = lp._run_highs
    monkeypatch.setattr(lp, "_run_highs", lambda *args: calls.append(1) or run_highs(*args))
    phi = LinearMap(LinfSpace(1), LinfSpace(2), [[1.0], [0.0]])
    f = LinearMap(LinfSpace(1), LinfSpace(3), [[0.5], [-1.0], [0.0]])
    h = extend_morphism(phi, f, delta=0.05, check=False)
    assert h.matrix.tolist() == [[0.5 / 1.05, -0.0], [-1.0 / 1.05, -0.0], [-0.0, -0.0]]
    assert calls == []


def _highs_battery():
    """Both batteries as `_run_highs` takes them, plus a model HiGHS rejects and one it cannot settle."""
    lps = [((-1.0 if maximize else 1.0) * c, *rows) for c, *rows, maximize in _lp_battery(11)]
    lps += [(cost, a_ub, b_ub, None, None) for cost, a_ub, b_ub in _separable_battery(5)]
    box = np.vstack([np.eye(2), -np.eye(2)])
    lps.append((np.ones(2), np.vstack([[1e16, 1.0], box]), np.ones(5), None, None))
    lps.append((np.array([1e25, 1.0]), box, np.ones(4), None, None))
    out = []
    for c, a_ub, b_ub, a_eq, b_eq in lps:
        n = c.shape[0]
        out.append((c, *lp._normalize_block(a_ub, b_ub, n), *lp._normalize_block(a_eq, b_eq, n)))
    return out


def _highs_outcome(args):
    try:
        x, y_ub, y_eq = _run_highs_dense(*args)
    except (LPError, ValueError) as exc:
        return type(exc)
    return x.tobytes(), y_ub.tobytes(), y_eq.tobytes()


def test_reused_instance_answers_as_a_fresh_one():
    battery = _highs_battery()
    fresh = []
    for args in battery:
        vars(lp._THREAD).clear()  # the next solve makes a new HiGHS instance
        fresh.append(_highs_outcome(args))
    kinds = {o if isinstance(o, type) else "solved" for o in fresh}
    assert kinds == {"solved", LPError, LPInfeasible, LPUnbounded, ValueError}
    assert fresh[-2] is LPInfeasible  # rejected by passModel
    # shuffled, so every kind of outcome runs after every other on one instance
    for seed in range(4):
        for i in np.random.default_rng(seed).permutation(len(battery)):
            assert _highs_outcome(battery[i]) == fresh[i], (seed, i)


def test_threads_solve_on_their_own_instance():
    battery = _highs_battery()
    serial = [_highs_outcome(args) for args in battery]
    both_in_scope = threading.Barrier(2, timeout=60)
    results, errors = {}, []
    one_var = np.array([1.0]), np.array([[1.0], [-1.0]]), np.ones(2)

    def work(engine):
        try:
            with use_engine(engine):
                both_in_scope.wait()
                solved_on = solve_lp(*one_var).engine
                outcomes = [_highs_outcome(args) for args in battery]
                both_in_scope.wait()
            results[engine] = lp._thread_highs(), solved_on, outcomes
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(engine,)) for engine in ("exact", None)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    (mine, exact_on, exact_outcomes), (theirs, float_on, float_outcomes) = results["exact"], results[None]
    assert mine is not theirs and lp._thread_highs() not in (mine, theirs)
    assert (exact_on, float_on) == ("exact", "float")
    assert exact_outcomes == serial and float_outcomes == serial


def _dense_reference(builder):
    """(a_ub, b_ub, a_eq, b_eq) that `+=` into dense blocks makes of a builder's terms."""
    out = []
    for blocks in (builder._ub, builder._eq):
        b = np.concatenate([np.zeros(0)] + [rhs for rhs, _ in blocks])
        a = np.zeros((b.shape[0], builder.n))
        start = 0
        for rhs, terms in blocks:
            rows = np.arange(start, start + rhs.shape[0])[:, None]
            for idx, coef in terms:
                idx = np.asarray(idx)
                a[rows, idx.ravel() if idx.ndim < 2 else idx] += coef
            start += rhs.shape[0]
        out += [a, b]
    return out


# Sums of these depend on their order, (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3),
# and some cancel exactly.
_COEFS = [0.1, 0.2, 0.3, -0.3, 1.0, -1.0, 1e16, -1e16, 0.0, -0.0]


def _random_builder(rng, blocks):
    """A builder whose row blocks, each "ub" or "eq", hold terms of all three
    index kinds that overlap, cancel and carry zeros and -0.0."""
    b = lp.LPBuilder()
    n = int(rng.integers(2, 6))
    v = b.new_vars(n)
    single = b.new_vars()  # a 0-d index
    for kind in blocks:
        r = int(rng.integers(1, 4))
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            shape = int(rng.integers(4))
            if shape == 0:
                idx = single if rng.integers(2) else v[rng.integers(n)]
            elif shape == 1:  # a vector shared by every row
                idx = rng.permutation(v)[: rng.integers(1, n + 1)]
            else:  # each row its own variables
                k = rng.integers(1, n + 1)
                idx = np.array([rng.permutation(v)[:k] for _ in range(r)])
            k = idx.shape[-1] if np.ndim(idx) else 1
            coef_shape = [(), (k,), (r, k), (r, 1)][rng.integers(4)]
            coef = rng.choice(_COEFS, size=coef_shape)
            terms.append((idx, coef))
            if rng.random() < 0.3:
                terms.append((idx, -coef))
        # x = 0 is feasible
        (b.add_ub if kind == "ub" else b.add_eq)(abs(rng.normal(size=r)) if kind == "ub" else np.zeros(r), *terms)
    return b


def _builder_battery():
    yield from (_random_builder(np.random.default_rng(seed), ["ub", "eq", "ub", "eq"]) for seed in range(150))
    yield from (_random_builder(np.random.default_rng(seed), ["ub", "ub"]) for seed in range(150, 175))
    yield from (_random_builder(np.random.default_rng(seed), ["eq", "eq"]) for seed in range(175, 200))
    # one entry reached in three orders: only a fold in the order added gives these bits
    for coefs in ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [1e16, 1.0, -1e16], [1.0, 1e16, -1e16], [-0.0, 0.0, -0.0]):
        b = lp.LPBuilder()
        x = b.new_vars(2)
        b.add_eq([1.0], *[(x[0], c) for c in coefs], (x, 1.0))
        yield b


def test_builder_nonzeros_are_the_dense_scan_bit_for_bit():
    seen = {"repeat": 0, "cancel": 0, "signed zero": 0, "no ub": 0, "no eq": 0}
    for b in _builder_battery():
        a, b_ub, b_eq = b._nonzeros()
        a_ub, ref_b_ub, a_eq, ref_b_eq = _dense_reference(b)
        ref = lp._DenseRows(a_ub, a_eq).nonzeros()
        for field in ("cols", "rows", "values"):
            mine, theirs = getattr(a, field), getattr(ref, field)
            assert (mine.dtype, mine.tobytes()) == (theirs.dtype, theirs.tobytes()), field
        assert (a.n, a.m_ub, a.m) == (ref.n, ref.m_ub, ref.m)
        assert (b_ub.tobytes(), b_eq.tobytes()) == (ref_b_ub.tobytes(), ref_b_eq.tobytes())
        assert [arr.tobytes() for arr in a.dense()] == [a_ub.tobytes(), a_eq.tobytes()]
        rows, cols, values = b._entries()
        touched, counts = np.unique(np.stack([rows, cols])[:, values != 0], axis=1, return_counts=True)
        seen["repeat"] += int((counts > 1).sum())
        seen["cancel"] += int(np.stack([a.rows, a.cols]).shape[1] < touched.shape[1])
        seen["signed zero"] += int((np.signbit(values) & (values == 0)).any())
        seen["no ub"] += not b_ub.size
        seen["no eq"] += not b_eq.size
    assert min(seen.values()) > 0, seen


def _contraction_lp_spaces():
    """Small spaces for `chains._best_contraction_lp`: g from a hexagon-normed
    plane into l-infinity^3 against phi and a target out of l-infinity^2
    that no contraction reaches."""
    dom = NormedSpace([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    phi = np.array([[0.5, 0.25], [0.0, 0.75]])
    target = np.array([[2.0, 0.25], [0.25, -1.5], [1.0, 1.0]])
    return dom, LinfSpace(3), phi, target, LinfSpace(2)


def test_builder_lps_reach_highs_without_the_dense_scan(monkeypatch):
    # the coupling LPs of a back-and-forth, without and with a pattern
    solved = []
    solve = lp.LPBuilder.solve

    def record(self, objective, maximize=False):
        solved.append((self, objective, maximize, solve(self, objective, maximize)))
        return solved[-1][-1]

    monkeypatch.setattr(lp.LPBuilder, "solve", record)
    calls = []
    run_highs = lp._run_highs
    monkeypatch.setattr(lp, "_run_highs", lambda *args: calls.append(1) or run_highs(*args))
    spaces = _contraction_lp_spaces()
    with monkeypatch.context() as scan:
        scan.setattr(lp._DenseRows, "nonzeros", None)  # the dense scan
        _, value = _best_contraction_lp(*spaces)
        _best_contraction_lp(*spaces, ([(0, np.array([1.0, 0.0]), 1.0)], value + 0.1))
    assert len(solved) == len(calls) == 2
    # HiGHS gets what the dense scan would give it, so it answers the same bits
    for b, objective, maximize, res in solved:
        a_ub, b_ub, a_eq, b_eq = _dense_reference(b)
        c = np.zeros(b.n)
        c[np.ravel(objective)] = 1.0
        dense = solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
        assert (res.value, res.x.tobytes()) == (dense.value, dense.x.tobytes())


def _exact_builder_outcomes():
    """The exact value, or the exception's name, of builder LPs on the exact engine."""
    outcomes = []
    solve = lp.LPBuilder.solve

    def record(self, objective, maximize=False):
        try:
            res = solve(self, objective, maximize)
        except LPError as exc:
            outcomes.append(type(exc).__name__)
            raise
        outcomes.append(f"{res.engine} {res.exact_value}")
        return res

    with use_engine("exact"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp.LPBuilder, "solve", record)
        _best_contraction_lp(*_contraction_lp_spaces())
        for seed in range(8):
            b = _random_builder(np.random.default_rng(seed), ["ub", "eq", "ub"])
            box = np.arange(b.n)[:, None]
            b.add_ub(np.ones(b.n), (box, 1.0))
            b.add_ub(np.ones(b.n), (box, -1.0))
            with contextlib.suppress(LPError):
                b.solve(np.arange(b.n), maximize=True)
    return outcomes


# The sha256 of `_exact_builder_outcomes`, one per line, as the exact engine
# gave them when the builder still assembled dense blocks with `+=`: nine
# exact values, the first 3/2.
EXACT_BUILDER_OUTCOMES = "a987ac57af2177554bbcf2ca74f633691c975f28c5ab0c46e6c27b6127cb47af"


def test_builder_lps_on_the_exact_engine_keep_their_values():
    outcomes = _exact_builder_outcomes()
    assert len(outcomes) == 9 and outcomes[0] == "exact 3/2"
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == EXACT_BUILDER_OUTCOMES


@pytest.mark.parametrize(
    "bad, name",
    [("ub coefficient", "a_ub"), ("eq coefficient", "a_eq"), ("inf - inf", "a_ub"), ("ub rhs", "b_ub"), ("eq rhs", "b_eq")],
)
@pytest.mark.parametrize("engine", ["float", "exact"])
@pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")  # inf - inf, as `+=` warns
def test_builder_non_finite_input_raises_the_dense_message(bad, name, engine):
    b = lp.LPBuilder()
    x = b.new_vars(2)
    nan, inf = float("nan"), float("inf")
    b.add_ub([1.0, nan if bad == "ub rhs" else 1.0], (x[:, None], [[nan if bad == "ub coefficient" else 1.0], [1.0]]))
    if bad == "inf - inf":
        b.add_ub([1.0], (x, [inf, 0.0]), (x, [-inf, 1.0]))
    b.add_eq([inf if bad == "eq rhs" else 0.5], (x, [1.0, inf if bad == "eq coefficient" else -1.0]))
    # the non-finite entry reaches the nonzeros or the right-hand sides, for the input check to find
    a, b_ub, b_eq = b._nonzeros()
    assert not np.isfinite(np.concatenate([a.values, b_ub, b_eq])).all()
    with use_engine(engine), pytest.raises(ValueError, match=f"^LP input {name} must not contain inf or nan$"):
        b.solve(x, True)


def _fresh_interpreter(code):
    """The standard output of `code` run in a new interpreter that imports this fraisse."""
    paths = [str(Path(lp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_only_the_highs_bindings_of_scipy_optimize():
    # scipy.optimize/__init__ never runs, nor the linalg and sparse stacks it
    # imports, and a first solve of each form loads none of them either
    out = _fresh_interpreter(
        "import sys\n"
        "import fraisse, fraisse.cli\n"
        "from fraisse.lp import LPBuilder, solve_lp\n"
        "b = LPBuilder()\n"
        "x = b.new_vars(2)\n"
        "b.add_ub([1.0, 1.0], (x[:, None], 1.0))\n"
        "b.add_eq(1.0, (x, [1.0, -1.0]))\n"
        "print(b.solve(x, maximize=True).value, solve_lp([1.0, 2.0], [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0]).value)\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse') if m in sys.modules))\n"
        "print(fraisse.lp._highs is sys.modules['scipy.optimize._highspy._core'])\n"
    )
    assert out == ["1.0 2.0", "[]", "True"]


_INTEROP = """
import json, sys
{before}
import fraisse
{after}
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
a_ub = [[1.0, 1.0, 0.5], [1.0, -1.0, 0.0], [0.0, 1.0, 2.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
b_ub = [4.0, 1.0, 3.0, 0.0, 0.0, 0.0]
c = [1.0, 2.0, 1.5]
ours = fraisse.solve_lp(c, a_ub, b_ub)
theirs = linprog([-v for v in c], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * 3, method="highs")
print(json.dumps([
    fraisse.lp._highs is _core is sys.modules["scipy.optimize._highspy._core"],
    theirs.status, -theirs.fun == ours.value, theirs.x.tolist() == ours.x.tolist(),
]))
"""


@pytest.mark.parametrize(
    "before, after", [("import scipy.optimize", ""), ("", "import scipy.optimize")], ids=["scipy_first", "fraisse_first"]
)
def test_scipy_optimize_shares_the_bindings_in_either_import_order(before, after):
    # one module object, so pybind11 registers its types once, and linprog still solves
    (line,) = _fresh_interpreter(_INTEROP.format(before=before, after=after))
    assert json.loads(line) == [True, 0, True, True]


def test_missing_highs_bindings_raise_import_error_naming_the_path(tmp_path):
    where = tmp_path / "optimize" / "_highspy"
    with pytest.raises(ImportError, match=re.escape(str(where))):
        lp._load_highs(str(tmp_path))
    assert sys.modules[lp.HIGHS_MODULE] is lp._highs
