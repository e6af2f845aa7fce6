"""Linear-programming backends.

Two interchangeable engines behind one call: a floating-point engine
whose answers are re-checked against primal residuals and the dual gap,
and an exact two-phase simplex over Fractions (Bland's rule) for small
instances where the certificate must be arithmetic-exact.

The float engine calls the dual simplex of the HiGHS build bundled with
scipy (1.15 and later) directly through its bindings
(`scipy.optimize._highspy._core`), with the options, input checks and
solution checks of `scipy.optimize.linprog(method="highs")` but without
its per-call overhead, which dominates the tiny LPs of this library.
The bindings are loaded from their file in the scipy package and
registered under their own name, without running `scipy.optimize`'s
`__init__` and the linalg, sparse and special stacks it imports, which
would take most of the time and memory of `import fraisse`; a later
`import scipy.optimize` reuses the same module. Each thread keeps one
HiGHS instance, given the options once, and hands it one model per
solve. In front of HiGHS sits one closed form, giving HiGHS's point
bit for bit and passing the same solution checks: least-coefficient-sum
LPs with one equality row a.lam = g whose largest |a_i| is exactly 1
and unique (the Hahn-Banach extensions into l-infinity stages along
signed coordinate injections), matched against the `l1_template` they
are built from. Everything else falls through to HiGHS, as does every
such LP that is non-finite or near one of HiGHS's tolerances (a near
tie for the pivot, or g near 0 or huge), so exceptions keep HiGHS's
types. (The op_norm LPs over l-infinity balls are not posed at all:
`spaces.LinearMap.op_norm` sums them in closed form.)

The `use_engine` scope is the only engine selector: the innermost scope
decides, "float" runs outside every scope, and `fraisse --engine` opens
one around a command. A caller that wants exact arithmetic opens a
scope around the whole computation, so every LP solved inside it,
however deep, runs on the chosen engine. Both engines refuse the same
inputs (no variables, inf or nan) with the same ValueError.

`LPBuilder` assembles the block LPs of the library from blocks of
variables and rows; its `dual_ball_rep` is the motif behind most of
them: a functional lam^T W with sum |lam| bounded, which ranges over a
dual ball because that ball is the absolutely convex hull of the norming
rows W.
"""

import contextlib
import contextvars
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np

HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs(scipy_dir):
    """Load and register scipy's HiGHS bindings from the scipy package at `scipy_dir`.

    Only the one extension module runs; registered under its own name,
    it is the module a later `import scipy.optimize` finds.
    """
    where = os.path.join(scipy_dir, "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(HIGHS_MODULE, [where])
    if spec is None:
        raise ImportError(f"scipy's HiGHS bindings {HIGHS_MODULE} not found in {where}", name=HIGHS_MODULE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


# Once scipy.optimize has loaded the bindings, take its module: a second
# load of the binary would register its pybind11 types twice.
_highs = sys.modules.get(HIGHS_MODULE) or _load_highs(importlib.util.find_spec("scipy").submodule_search_locations[0])

RESIDUAL_TOL = 1e-9
GAP_TOL = 1e-7


class LPError(Exception):
    """Solver failure that the caller did not ask for."""


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


class LPResult:
    """Optimal value and one optimal point.

    `exact_value` is a Fraction when the exact engine ran, else None.
    `value` and `x` are always floats.
    """

    def __init__(self, value, x, engine, exact_value=None):
        self.value = value
        self.x = x
        self.engine = engine
        self.exact_value = exact_value

    def __repr__(self):
        return f"LPResult(value={self.value!r}, engine={self.engine!r})"


_SCOPE = contextvars.ContextVar("fraisse_lp_engine", default="float")


def current_engine():
    """The engine a solve would use now."""
    return _SCOPE.get()


@contextlib.contextmanager
def use_engine(name):
    """Solve every LP in the block on engine `name`; None keeps the current choice.

    The previous selection is restored on exit; an unknown name raises
    LPError on entry.
    """
    if name not in (None, "float", "exact"):
        raise LPError(f"unknown LP engine {name!r} (expected 'float' or 'exact')")
    token = _SCOPE.set(_SCOPE.get() if name is None else name)
    try:
        yield
    finally:
        _SCOPE.reset(token)


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, maximize=True):
    """Optimize c.x over free variables subject to a_ub x <= b_ub, a_eq x = b_eq.

    Raises LPInfeasible / LPUnbounded accordingly; any other solver
    misbehavior (including a failed residual check) raises LPError.
    """
    engine = current_engine()
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    a_ub, b_ub = _normalize_block(a_ub, b_ub, n)
    a_eq, b_eq = _normalize_block(a_eq, b_eq, n)
    if engine == "float":
        return _solve_float(c, a_ub, b_ub, a_eq, b_eq, maximize)
    return _solve_exact(c, a_ub, b_ub, a_eq, b_eq, maximize)


def _normalize_block(a, b, n):
    if a is None or len(a) == 0:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.shape[0], n):
        raise LPError(f"constraint block shape mismatch: {a.shape} vs ({b.shape[0]}, {n})")
    return a, b


class LPBuilder:
    """Dense assembler for block LPs over free variables.

    `new_vars` hands out variable indices in row-major blocks. A row block
    is its right-hand side plus terms (idx, coef): idx is one variable or a
    vector of them shared by every row of the block, or a (rows, k) array
    giving each row its own k variables; coef broadcasts against the
    (rows, k) shape, and no variable may appear twice in one term.
    Variables and rows keep the order they were added in.
    """

    def __init__(self):
        self.n = 0
        self._ub = []
        self._eq = []

    def new_vars(self, *shape):
        """A block of fresh variables; no shape gives a single index."""
        size = int(np.prod(shape))
        idx = np.arange(self.n, self.n + size).reshape(shape)
        self.n += size
        return idx

    def add_ub(self, rhs, *terms):
        self._ub.append((np.atleast_1d(np.asarray(rhs, dtype=float)), terms))

    def add_eq(self, rhs, *terms):
        self._eq.append((np.atleast_1d(np.asarray(rhs, dtype=float)), terms))

    def nonneg(self, idx):
        """One row -v <= 0 per variable v, in index order."""
        idx = np.ravel(idx)
        self.add_ub(np.zeros(idx.shape[0]), (idx[:, None], -1.0))

    def dual_ball_rep(self, lam, w, budget, *budget_terms):
        """Make lam = (plus, minus) represent lam^T w = (plus - minus)^T w
        with sum |lam| <= budget.

        Adds the sign rows of lam and the budget row, where budget_terms
        join the left side (pass (t, -1.0) and budget 0 for a variable
        budget t). Returns the coefficients of lam^T w over lam: one row
        per coordinate of the functional, ready for an equality block.
        """
        self.nonneg(lam)
        self.add_ub(budget, (lam, 1.0), *budget_terms)
        return np.hstack([w.T, -w.T])

    def _dense(self, blocks):
        if not blocks:
            return None, None
        b = np.concatenate([rhs for rhs, _ in blocks])
        a = np.zeros((b.shape[0], self.n))
        start = 0
        for rhs, terms in blocks:
            rows = np.arange(start, start + rhs.shape[0])[:, None]
            for idx, coef in terms:
                idx = np.asarray(idx)
                a[rows, idx.ravel() if idx.ndim < 2 else idx] += coef
            start += rhs.shape[0]
        return a, b

    def solve(self, objective, maximize=False):
        """Optimize the sum of the `objective` variables."""
        c = np.zeros(self.n)
        c[np.ravel(objective)] = 1.0
        a_ub, b_ub = self._dense(self._ub)
        a_eq, b_eq = self._dense(self._eq)
        return solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)


def _solve_float(c, a_ub, b_ub, a_eq, b_eq, maximize):
    args = (-1.0 if maximize else 1.0) * c, a_ub, b_ub, a_eq, b_eq
    x, fun, y_ub, y_eq = _solve_l1_pivot(*args) or _run_highs(*args)
    _check_float_solution(x, fun, y_ub, y_eq, a_ub, b_ub, a_eq, b_eq)
    value = float(c @ x)
    return LPResult(value, x, "float")


def _highs_options():
    # What linprog(method="highs") sets; every other option keeps its default.
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


_HIGHS_OPTIONS = _highs_options()
_THREAD = threading.local()


def _thread_highs():
    """This thread's HiGHS instance, made and given the options on first use.

    One per thread, because an instance holds one model at a time.
    """
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
    return highs


# How far, in multiples of HiGHS's primal feasibility tolerance,
# `_solve_l1_pivot` keeps from the cases HiGHS decides by tolerance.
L1_PIVOT_MARGIN = 10


@functools.lru_cache(maxsize=32)
def l1_template(nr):
    """The fixed part (c, a_ub, b_ub) of min sum |lam| over lam in R^nr.

    Variables (lam, u), minimizing sum u with lam - u <= 0 and
    -lam - u <= 0; only the equality rows (a, 0) a caller adds vary. The
    arrays are read-only and kept for the 32 sizes used last, and both
    the builder (`spaces._least_coefficient_sum`) and the recognizer
    (`_solve_l1_pivot`) take the shape from here.
    """
    c = np.concatenate([np.zeros(nr), np.ones(nr)])
    eye = np.eye(nr)
    a_ub = np.block([[eye, -eye], [-eye, -eye]])
    b_ub = np.zeros(2 * nr)
    for arr in (c, a_ub, b_ub):
        arr.setflags(write=False)
    return c, a_ub, b_ub


def _solve_l1_pivot(c, a_ub, b_ub, a_eq, b_eq):
    """Minimize sum |lam| subject to one row a.lam = g in closed form when
    a has a unique entry of magnitude exactly 1, the pivot a_i.

    The LP must be `l1_template`'s, bit for bit, with the one equality
    row (a, 0). Every other |a_j| is at most 1 - near (below), so the
    optimum is unique: lam_i = g / a_i, u_i = |g| and zero elsewhere,
    which HiGHS reports as -0.0 (all of x when g == 0). Returns what
    `_run_highs` would, with x bit for bit HiGHS's and the true duals:
    y_eq = sign(g), and (-1 - a_j y_eq) / 2, (-1 + a_j y_eq) / 2 on the
    two sign rows of column j.

    Returns None, leaving the LP to HiGHS, for any other shape, for
    non-finite a or g, and near a case HiGHS settles by its tolerances,
    with near = L1_PIVOT_MARGIN times HiGHS's primal feasibility
    tolerance: another |a_j| above 1 - near (a near tie for the pivot),
    or 0 < |g| < near or |g| > 1 / near.
    """
    nr = c.shape[0] // 2
    if b_eq.shape[0] != 1 or not nr:
        return None
    for arr, fixed in zip((c, a_ub, b_ub), l1_template(nr)):
        if arr.shape != fixed.shape or arr.tobytes() != fixed.tobytes():
            return None
    a, g = a_eq[0, :nr], float(b_eq[0])
    if a_eq[0, nr:].any():
        return None
    near = L1_PIVOT_MARGIN * _HIGHS_OPTIONS.primal_feasibility_tolerance
    mags = np.abs(a)
    i = int(mags.argmax())  # the first NaN, if any
    if mags[i] != 1.0 or not (g == 0 or near <= abs(g) <= 1 / near):
        return None
    mags[i] = 0.0
    if mags.max() > 1 - near:
        return None
    x = np.full(2 * nr, -0.0)
    if g:
        x[i] = g / a[i]
        x[nr + i] = abs(g)
    y = math.copysign(1.0, g) if g else 0.0
    t = a * y
    return x, abs(g), np.concatenate([-1.0 - t, -1.0 + t]) / 2, np.array([y])


def _check_input(c, a_ub, b_ub, a_eq, b_eq):
    """linprog's input checks, which both engines run before solving."""
    if c.size == 0:
        raise ValueError("LP has no variables")
    for name, arr in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub), ("a_eq", a_eq), ("b_eq", b_eq)):
        if not np.isfinite(arr).all():
            raise ValueError(f"LP input {name} must not contain inf or nan")


def _run_highs(c, a_ub, b_ub, a_eq, b_eq):
    """Minimize c.x over free x as linprog(method="highs") would, without it.

    Same checks, same order, same exception types: linprog's input
    checks (ValueError), its map from HiGHS model status to error, and
    its _check_result. The thread's one HiGHS instance solves it;
    `passModel` drops the previous model with its basis and solution.
    """
    _check_input(c, a_ub, b_ub, a_eq, b_eq)
    n, m_ub = c.shape[0], b_ub.shape[0]
    a = np.vstack([a_ub, a_eq])
    inf = _highs.kHighsInf
    model = _highs.HighsLp()
    model.num_col_ = n
    model.num_row_ = a.shape[0]
    model.col_cost_ = c
    model.col_lower_ = np.full(n, -inf)
    model.col_upper_ = np.full(n, inf)
    model.row_lower_ = np.concatenate([np.full(m_ub, -inf), b_eq])
    model.row_upper_ = np.concatenate([b_ub, b_eq])
    # The nonzeros column by column, rows ascending: csc_array's layout.
    # Scanning the boolean mask takes half the time of scanning the floats.
    cols, rows = np.nonzero(a.T != 0)
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = a.shape[0]
    matrix.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    matrix.index_ = rows
    matrix.value_ = a.T[cols, rows]

    highs = _thread_highs()
    if highs.passModel(model) == _highs.HighsStatus.kError:
        # linprog reports a model HiGHS rejects as infeasible (status 2)
        raise LPInfeasible("LP rejected by HiGHS")
    ran = highs.run() != _highs.HighsStatus.kError
    status = highs.getModelStatus()
    if status in (_highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kModelError):
        raise LPInfeasible("LP infeasible")
    if status == _highs.HighsModelStatus.kUnbounded:
        raise LPUnbounded("LP unbounded")
    if status != _highs.HighsModelStatus.kOptimal or not ran:
        raise LPError(f"LP solver failed: HiGHS model status {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getObjectiveValue()
    row = np.array(solution.row_value)
    y = np.array(solution.row_dual)
    # linprog's _check_result: no NaN, and every row within sqrt(1e-9) * 10
    # of its bound by HiGHS's own row activities.
    tol = np.sqrt(1e-9) * 10
    if (
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(row).any()
        or (b_ub - row[:m_ub] < -tol).any()
        or (np.abs(b_eq - row[m_ub:]) > tol).any()
    ):
        raise LPError("LP solution violates the constraints beyond linprog's tolerance")
    return x, fun, y[:m_ub], y[m_ub:]


def _check_float_solution(x, fun, y_ub, y_eq, a_ub, b_ub, a_eq, b_eq):
    """Recheck a solve of min c.x: finite, primal feasible, no duality gap.

    `fun` is the solver's optimal value and y_ub, y_eq its row duals for
    that minimization.
    """
    x_max = _abs_max(x)  # NaN or inf exactly when some entry of x is
    if not (math.isfinite(x_max) and math.isfinite(fun) and _finite(y_ub) and _finite(y_eq)):
        raise LPError("LP solution or duals not finite")
    # Primal residuals, scaled by the data magnitude.
    scale = 1.0 + max(_abs_max(b_ub), _abs_max(b_eq), x_max)
    if a_ub.size:
        viol = (a_ub @ x - b_ub).max()
        if viol > RESIDUAL_TOL * scale:
            raise LPError(f"inequality residual {viol:.3e} exceeds tolerance")
    if a_eq.size:
        viol = abs(a_eq @ x - b_eq).max()
        if viol > RESIDUAL_TOL * scale:
            raise LPError(f"equality residual {viol:.3e} exceeds tolerance")
    dual = (float(b_ub @ y_ub) if b_ub.size else 0.0) + (float(b_eq @ y_eq) if b_eq.size else 0.0)
    primal = float(fun)
    if abs(primal - dual) > GAP_TOL * (1.0 + abs(primal)):
        raise LPError(f"duality gap {abs(primal - dual):.3e} exceeds tolerance")


def _abs_max(arr):
    return abs(arr).max() if arr.size else 0.0


def _finite(arr):
    return not arr.size or np.isfinite(arr).all()


# --- exact rational simplex -------------------------------------------------

ZERO = Fraction(0)
ONE = Fraction(1)


def _solve_exact(c, a_ub, b_ub, a_eq, b_eq, maximize):
    _check_input(c, a_ub, b_ub, a_eq, b_eq)
    sign = 1 if maximize else -1
    cf = [sign * Fraction(v) for v in c.tolist()]
    a = a_ub.tolist() + a_eq.tolist()
    b = b_ub.tolist() + b_eq.tolist()
    rows = [[Fraction(v) for v in row + [rhs]] for row, rhs in zip(a, b)]
    value, xs = _exact_simplex(cf, rows, b_ub.shape[0])
    x = np.array([float(v) for v in xs], dtype=float)
    val = sign * value
    return LPResult(float(val), x, "exact", exact_value=val)


def _exact_simplex(c, rows, n_le):
    """Maximize c.x over free x subject to rows, each its coefficients
    then its right-hand side: the first n_le are <= rows, the rest
    equalities. Returns (optimal value, x) as Fractions.

    Two-phase tableau simplex with Bland's rule: the first column with a
    positive reduced cost enters, and a ratio tie leaves the row of the
    smallest basic column. Columns are x+ (n), x- (n), one slack per <=
    row, then one artificial per equality row or row negated to make its
    right-hand side nonnegative; each tableau row, and the objective row,
    carries its right-hand side last.
    """
    n = len(c)
    core = 2 * n + n_le
    arts = [i for i, row in enumerate(rows) if i >= n_le or row[-1] < 0]
    tab, basis = [], []
    for i, row in enumerate(rows):
        line = row[:-1] + [-v for v in row[:-1]] + [ONE if k == i else ZERO for k in range(n_le)] + row[-1:]
        if row[-1] < 0:
            line = [-v for v in line]
        line[-1:-1] = [ONE if i == a else ZERO for a in arts]
        tab.append(line)
        basis.append(core + arts.index(i) if i in arts else 2 * n + i)

    # Phase 1: maximize minus the sum of the artificials.
    obj = [ZERO] * core + [-ONE] * len(arts) + [ZERO]
    _optimize(tab, basis, obj)
    if obj[-1] > 0:
        raise LPInfeasible("exact LP infeasible")
    # Pivot each artificial left in the basis, at level zero, onto a genuine
    # column; a row with none is redundant and is dropped.
    for r in [r for r, col in enumerate(basis) if col >= core]:
        j = next((j for j in range(core) if tab[r][j]), None)
        if j is not None:
            _pivot(tab, basis, obj, r, j)
    kept = [r for r, col in enumerate(basis) if col < core]
    tab = [tab[r][:core] + tab[r][-1:] for r in kept]
    basis = [basis[r] for r in kept]

    obj = c + [-v for v in c] + [ZERO] * (n_le + 1)
    _optimize(tab, basis, obj)
    x = [ZERO] * n
    for line, col in zip(tab, basis):
        if col < n:
            x[col] += line[-1]
        elif col < 2 * n:
            x[col - n] -= line[-1]
    return -obj[-1], x


def _optimize(tab, basis, obj):
    """Price obj over the basis, then pivot by Bland's rule to an optimum.

    Afterwards obj holds the reduced costs and minus the objective value
    last. Raises LPUnbounded when an entering column has no positive entry.
    """
    for r, col in enumerate(basis):
        _eliminate(obj, tab[r], col)
    while True:
        enter = next((j for j, v in enumerate(obj[:-1]) if v > 0), None)
        if enter is None:
            return
        rows = [r for r, line in enumerate(tab) if line[enter] > 0]
        if not rows:
            raise LPUnbounded("exact LP unbounded")
        leave = min(rows, key=lambda r: (tab[r][-1] / tab[r][enter], basis[r]))
        _pivot(tab, basis, obj, leave, enter)


def _pivot(tab, basis, obj, r, j):
    inv = ONE / tab[r][j]
    tab[r] = [v * inv for v in tab[r]]
    for line in tab + [obj]:
        if line is not tab[r]:
            _eliminate(line, tab[r], j)
    basis[r] = j


def _eliminate(line, pivot, j):
    """Subtract the multiple of pivot (with pivot[j] == 1) that zeroes line[j]."""
    f = line[j]
    if f:
        line[:] = [v - f * p for v, p in zip(line, pivot)]
