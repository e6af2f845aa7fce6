"""Linear-programming backends.

Two interchangeable engines behind one call: a floating-point engine
whose answers are re-checked for primal and dual feasibility and the
duality gap, and an exact two-phase simplex over Fractions (Bland's
rule) for small instances where the certificate must be
arithmetic-exact.

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
solve.

In front of HiGHS sit two closed forms for the least-coefficient-sum
LPs min sum |lam| subject to a @ lam = g, recognized by one match
against the `l1_template` they are built from:
- one row whose largest |a_i| is exactly 1 and unique (the Hahn-Banach
  extensions into l-infinity stages along signed coordinate
  injections), solved to HiGHS's point bit for bit;
- two rows (the extensions of functionals on 2-dimensional spaces),
  solved on the column pair i, j with the least |mu_i| + |mu_j| for
  mu = [a_i a_j]^-1 g. That is HiGHS's vertex, but its coordinates
  need not be HiGHS's bit for bit.
Both answers pass the same solution checks as HiGHS's, duals included,
so each is proved optimal. Everything else falls through to HiGHS, as
does every such LP that is non-finite or near one of HiGHS's
tolerances (a near tie, a degenerate vertex, or g near 0 or huge), so
exceptions keep HiGHS's types. (The op_norm LPs over l-infinity balls
are not posed at all: `spaces.LinearMap.op_norm` sums them in closed
form.)

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
rows W. A builder never forms its dense matrix: it hands the float
engine the nonzeros column by column, the layout HiGHS takes, where
`solve_lp`'s dense rows are scanned for theirs, so the coupling LPs of
`chains._best_contraction_lp` (529 columns, 0.6% of the entries
nonzero) cost what their nonzeros cost. Either form then takes one
path: the same input checks, one `_run_highs` and one solution check,
in which only the products a @ x and a^T @ y differ by form. The exact
engine densifies the builder's nonzeros.
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
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    a_ub, b_ub = _normalize_block(a_ub, b_ub, n)
    a_eq, b_eq = _normalize_block(a_eq, b_eq, n)
    return _solve(c, _DenseRows(a_ub, a_eq), b_ub, b_eq, maximize)


def _solve(c, a, b_ub, b_eq, maximize):
    """Solve on the current engine, with the constraint rows a in either form."""
    solve = _solve_float if current_engine() == "float" else _solve_exact
    return solve(c, a, b_ub, b_eq, maximize)


def _normalize_block(a, b, n):
    if a is None or len(a) == 0:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.shape[0], n):
        raise LPError(f"constraint block shape mismatch: {a.shape} vs ({b.shape[0]}, {n})")
    return a, b


class _DenseRows:
    """The constraint rows as the dense blocks a_ub and a_eq of `solve_lp`.

    Both forms of the rows, this one and `_Nonzeros`, answer dense() (the
    blocks a_ub, a_eq), nonzeros() (a `_Nonzeros`), times(x) (a_ub @ x
    and a_eq @ x) and dual_residual(c, y_ub, y_eq) (c - a_ub^T y_ub -
    a_eq^T y_eq).
    """

    def __init__(self, a_ub, a_eq):
        self.a_ub = a_ub
        self.a_eq = a_eq

    def dense(self):
        return self.a_ub, self.a_eq

    def nonzeros(self):
        """The nonzeros HiGHS takes, found by scanning the stacked blocks."""
        a = np.vstack([self.a_ub, self.a_eq])
        # Column by column, rows ascending: csc_array's layout. Scanning
        # the boolean mask takes half the time of scanning the floats.
        cols, rows = np.nonzero(a.T != 0)
        return _Nonzeros(a.shape[1], self.a_ub.shape[0], a.shape[0], cols, rows, a.T[cols, rows])

    def times(self, x):
        return self.a_ub @ x, self.a_eq @ x

    def dual_residual(self, c, y_ub, y_eq):
        return c - self.a_ub.T @ y_ub - self.a_eq.T @ y_eq


class _Nonzeros:
    """The constraint rows, a_ub stacked on a_eq, by their nonzeros.

    For an m-row matrix over n variables whose first m_ub rows are a_ub:
    entry k is values[k] at (rows[k], cols[k]), ordered column by column
    and by ascending row within a column (csc_array's layout, which is
    HiGHS's column-wise format). Zeros are left out; NaN and inf are
    nonzeros, so the input checks still see them.
    """

    def __init__(self, n, m_ub, m, cols, rows, values):
        self.n = n
        self.m_ub = m_ub
        self.m = m
        self.cols = cols
        self.rows = rows
        self.values = values

    def dense(self):
        a = np.zeros((self.m, self.n))
        a[self.rows, self.cols] = self.values
        return a[: self.m_ub], a[self.m_ub :]

    def nonzeros(self):
        return self

    def times(self, x):
        ax = np.bincount(self.rows, self.values * x[self.cols], minlength=self.m)
        return ax[: self.m_ub], ax[self.m_ub :]

    def dual_residual(self, c, y_ub, y_eq):
        y = np.concatenate([y_ub, y_eq])
        return c - np.bincount(self.cols, self.values * y[self.rows], minlength=self.n)


class LPBuilder:
    """Assembler for block LPs over free variables, straight into nonzeros.

    `new_vars` hands out variable indices in row-major blocks. A row block
    is its right-hand side plus terms (idx, coef): idx is one variable or a
    vector of them shared by every row of the block, or a (rows, k) array
    giving each row its own k variables; coef broadcasts against the
    (rows, k) shape, and no variable may appear twice in one term.
    Variables and rows keep the order they were added in.

    `solve` never forms the dense matrix: the terms become the column-wise
    nonzeros HiGHS takes (`_Nonzeros`), each entry the sum of the terms
    that reach it in the order they were added, as `+=` into a dense
    matrix would sum them. The exact engine densifies the same entries.
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

    def _entries(self):
        """(rows, cols, values) of every entry of every term, zeros included,
        in the order the terms were added.

        A term of a block of r rows from row m, over k variables per row,
        is an r x k grid read row by row.
        """
        cols, values, grids = [np.zeros(0, int)], [np.zeros(0)], []
        m = 0
        for rhs, terms in self._ub + self._eq:
            r = rhs.shape[0]
            for idx, coef in terms:
                idx = np.asarray(idx)
                k = idx.shape[-1] if idx.ndim else 1
                col = np.empty((r, k), int)
                col[...] = idx
                val = np.empty((r, k))
                val[...] = coef
                cols.append(col)
                values.append(val)
                grids.append((m, r, k))
            m += r
        # The rows of all grids at once: row i of grid t is m_t + i, k_t times.
        start, r, k = np.array(grids, dtype=int).reshape(-1, 3).T
        grid_rows = np.repeat(start - np.cumsum(r) + r, r) + np.arange(r.sum())
        return np.repeat(grid_rows, np.repeat(k, r)), np.concatenate(cols, axis=None), np.concatenate(values, axis=None)

    def _nonzeros(self):
        """The rows as `_Nonzeros`, and the right-hand sides b_ub, b_eq.

        Each entry is the sum of the coefficients the terms give it, in
        the order added: the sum `+=` leaves in a dense matrix. Zero
        coefficients are dropped first, which changes no sum that is not
        zero, and sums that are zero are dropped too. NaN is not zero, so
        the input checks still see it.
        """
        b_ub, b_eq = (np.concatenate([np.zeros(0)] + [rhs for rhs, _ in blocks]) for blocks in (self._ub, self._eq))
        m = b_ub.shape[0] + b_eq.shape[0]
        rows, cols, values = self._entries()
        kept = values != 0
        key = cols[kept] * m + rows[kept]
        order = np.argsort(key, kind="stable")  # by column, then row, repeats in the order added
        key, values = key[order], values[kept][order]
        first = np.ones(key.shape[0], dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if not first.all():
            # ufunc.at adds repeated indices one at a time, in order
            summed = values[first]
            np.add.at(summed, np.cumsum(first)[~first] - 1, values[~first])
            kept = summed != 0  # an exact cancellation
            key, values = key[first][kept], summed[kept]
        cols, rows = np.divmod(key, m)
        return _Nonzeros(self.n, b_ub.shape[0], m, cols, rows, values), b_ub, b_eq

    def solve(self, objective, maximize=False):
        """Optimize the sum of the `objective` variables."""
        c = np.zeros(self.n)
        c[np.ravel(objective)] = 1.0
        return _solve(c, *self._nonzeros(), maximize)


def _solve_float(c, a, b_ub, b_eq, maximize):
    """Dense rows first meet the closed forms; HiGHS takes what they leave
    as nonzeros, and every answer is checked."""
    cost = (-1.0 if maximize else 1.0) * c
    solved = isinstance(a, _DenseRows) and _solve_l1_closed_form(cost, a.a_ub, b_ub, a.a_eq, b_eq)
    x, y_ub, y_eq = solved or _run_highs(cost, a.nonzeros(), b_ub, b_eq)
    _check_float_solution(cost, a, b_ub, b_eq, x, y_ub, y_eq)
    return LPResult(float(c @ x), x, "float")


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


# How far, in multiples of HiGHS's primal feasibility tolerance, the
# closed forms keep from the cases HiGHS decides by tolerance.
L1_PIVOT_MARGIN = 10


@functools.lru_cache(maxsize=32)
def l1_template(nr):
    """The fixed part (c, a_ub, b_ub) of min sum |lam| over lam in R^nr.

    Variables (lam, u), minimizing sum u with lam - u <= 0 and
    -lam - u <= 0; only the equality rows (a, 0) a caller adds vary. The
    arrays are read-only and kept for the 32 sizes used last, and both
    the builder (`spaces._least_coefficient_sum`) and the recognizer
    (`_solve_l1_closed_form`) take the shape from here.
    """
    c = np.concatenate([np.zeros(nr), np.ones(nr)])
    eye = np.eye(nr)
    a_ub = np.block([[eye, -eye], [-eye, -eye]])
    b_ub = np.zeros(2 * nr)
    for arr in (c, a_ub, b_ub):
        arr.setflags(write=False)
    return c, a_ub, b_ub


def _solve_l1_closed_form(c, a_ub, b_ub, a_eq, b_eq):
    """Minimize sum |lam| subject to a @ lam = g in closed form, or return None.

    The LP must be `l1_template`'s, bit for bit, with the equality rows
    (a, 0) = g. `L1_CLOSED_FORMS` maps the number of rows to the form
    that solves it; a form returns what `_run_highs` would, duals
    included, or None to leave the LP to HiGHS.
    """
    nr = c.shape[0] // 2
    form = L1_CLOSED_FORMS.get(b_eq.shape[0])
    if form is None or not nr:
        return None
    for arr, fixed in zip((c, a_ub, b_ub), l1_template(nr)):
        if arr.shape != fixed.shape or arr.tobytes() != fixed.tobytes():
            return None
    if a_eq[:, nr:].any():
        return None
    return form(a_eq[:, :nr], b_eq)


def _solve_l1_pivot(a, g):
    """One row a.lam = g whose a has a unique entry of magnitude exactly
    1, the pivot a_i.

    Every other |a_j| is at most 1 - near (below), so the optimum is
    unique: lam_i = g / a_i, u_i = |g| and zero elsewhere, which HiGHS
    reports as -0.0 (all of x when g == 0). Returns x bit for bit
    HiGHS's and the true duals: y_eq = sign(g), and (-1 - a_j y_eq) / 2,
    (-1 + a_j y_eq) / 2 on the two sign rows of column j.

    Returns None, leaving the LP to HiGHS, for non-finite a or g, and
    near a case HiGHS settles by its tolerances, with near =
    L1_PIVOT_MARGIN times HiGHS's primal feasibility tolerance: another
    |a_j| above 1 - near (a near tie for the pivot), or 0 < |g| < near
    or |g| > 1 / near.
    """
    a, g = a[0], float(g[0])
    nr = a.shape[0]
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
    return x, np.concatenate([-1.0 - t, -1.0 + t]) / 2, np.array([y])


@functools.lru_cache(maxsize=32)
def _column_pairs(nr):
    """The pairs i < j of range(nr), as two read-only index arrays; cached,
    because `np.triu_indices` costs a fifth of the two-row form."""
    pairs = np.triu_indices(nr, 1)
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def _solve_l1_two_row(a, g):
    """Two rows a @ lam = g, solved on the best pair of columns.

    An optimal vertex rests on two columns i < j of a, with lam_i, lam_j
    = mu = [a_i a_j]^-1 g by Cramer's rule and zero elsewhere, so the
    optimum is the pair with the least |mu_i| + |mu_j|; pairs whose
    determinant is within near of 0, relative to the column sizes, are
    skipped. The duals are y_eq solving [a_i a_j]^T y = sign(mu) and, as
    in the pivot, (-1 - a_k.y) / 2, (-1 + a_k.y) / 2 on the two sign rows
    of column k; |a_k.y| <= 1 for every k proves the pair optimal. x is
    -0.0 off the pair, as HiGHS reports it.

    Returns None, leaving the LP to HiGHS, with near = L1_PIVOT_MARGIN
    times HiGHS's primal feasibility tolerance, for non-finite a or g,
    for a of rank below 2 (no pair clear of singular), for g = 0 or its
    largest entry below near or above 1 / near, for a second pair within
    near of the best sum (relative to it, a near tie), for a mu within
    near of 0 relative to the sum (a degenerate vertex, whose duals are
    not unique), and for a y with some |a_k.y| above 1 + near (the
    optimum rests on a pair skipped as near-singular).
    """
    near = L1_PIVOT_MARGIN * _HIGHS_OPTIONS.primal_feasibility_tolerance
    if not (np.isfinite(a).all() and np.isfinite(g).all() and near <= abs(g).max() <= 1 / near):
        return None
    nr = a.shape[1]
    i, j = _column_pairs(nr)
    det = a[0, i] * a[1, j] - a[1, i] * a[0, j]
    size = abs(a).max(axis=0)
    clear = abs(det) > near * size[i] * size[j]
    if not clear.any():
        return None
    i, j, det = i[clear], j[clear], det[clear]
    cross = g[0] * a[1] - g[1] * a[0]  # det(g, a_k) for every column k
    mu_i, mu_j = cross[j] / det, -cross[i] / det
    sums = abs(mu_i) + abs(mu_j)
    k = int(sums.argmin())
    total = sums[k]
    sums[k] = np.inf
    mu = np.array([mu_i[k], mu_j[k]])
    if sums.min() <= total * (1 + near) or abs(mu).min() <= near * total:
        return None
    i, j, (s_i, s_j) = int(i[k]), int(j[k]), np.sign(mu)
    y = np.array([s_i * a[1, j] - s_j * a[1, i], s_j * a[0, i] - s_i * a[0, j]]) / det[k]
    t = y @ a
    if abs(t).max() > 1 + near:
        return None
    x = np.full(2 * nr, -0.0)
    x[[i, j]] = mu
    x[[nr + i, nr + j]] = abs(mu)
    return x, np.concatenate([-1.0 - t, -1.0 + t]) / 2, y


# The closed forms in front of HiGHS, by the number of equality rows.
L1_CLOSED_FORMS = {1: _solve_l1_pivot, 2: _solve_l1_two_row}


def _check_input(c, a_ub, b_ub, a_eq, b_eq):
    """linprog's input checks, which both engines run before solving."""
    if c.size == 0:
        raise ValueError("LP has no variables")
    for name, arr in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub), ("a_eq", a_eq), ("b_eq", b_eq)):
        if not np.isfinite(arr).all():
            raise ValueError(f"LP input {name} must not contain inf or nan")


def _run_highs(c, a, b_ub, b_eq):
    """Minimize c.x over free x subject to the rows a (`_Nonzeros`), with
    b_ub on its first rows and b_eq on the rest, as
    linprog(method="highs") would, without it.

    Same checks, same order, same exception types: linprog's input
    checks (ValueError), its map from HiGHS model status to error, and
    its _check_result. The thread's one HiGHS instance solves it;
    `passModel` drops the previous model with its basis and solution.
    """
    ub = a.rows < a.m_ub
    _check_input(c, a.values[ub], b_ub, a.values[~ub], b_eq)  # a zero is finite
    n, m_ub = c.shape[0], b_ub.shape[0]
    inf = _highs.kHighsInf
    # The setters read a list faster than an array (1884 row indices: 44
    # against 100 us), and take the same values from it.
    model = _highs.HighsLp()
    model.num_col_ = n
    model.num_row_ = a.m
    model.col_cost_ = c.tolist()
    model.col_lower_ = [-inf] * n
    model.col_upper_ = [inf] * n
    eq = b_eq.tolist()
    model.row_lower_ = [-inf] * m_ub + eq
    model.row_upper_ = b_ub.tolist() + eq
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = a.m
    matrix.start_ = np.searchsorted(a.cols, np.arange(n + 1)).tolist()
    matrix.index_ = a.rows.tolist()
    matrix.value_ = a.values.tolist()

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
    return x, y[:m_ub], y[m_ub:]


def _check_float_solution(c, a, b_ub, b_eq, x, y_ub, y_eq):
    """Recheck a solve of min c.x over free x: finite, primal feasible,
    dual feasible, no duality gap, which together prove x optimal.

    a holds the constraint rows in either form (`_DenseRows` or
    `_Nonzeros`), which only computes the products. y_ub, y_eq are the
    solver's row duals for that minimization, in HiGHS's signs:
    c = a_ub^T y_ub + a_eq^T y_eq with y_ub <= 0.
    """
    x_max = _abs_max(x)  # NaN or inf exactly when some entry of x is
    primal = float(c @ x)
    if not (math.isfinite(x_max) and math.isfinite(primal) and _finite(y_ub) and _finite(y_eq)):
        raise LPError("LP solution or duals not finite")
    # Primal residuals, scaled by the magnitude of the right-hand side b
    # and of the point x that a @ x is compared with b.
    scale = 1.0 + max(_abs_max(b_ub), _abs_max(b_eq), x_max)
    ax_ub, ax_eq = a.times(x)
    if b_ub.size:
        viol = (ax_ub - b_ub).max()
        if viol > RESIDUAL_TOL * scale:
            raise LPError(f"inequality residual {viol:.3e} exceeds tolerance")
    if b_eq.size:
        viol = abs(ax_eq - b_eq).max()
        if viol > RESIDUAL_TOL * scale:
            raise LPError(f"equality residual {viol:.3e} exceeds tolerance")
    # Dual residuals, scaled the same way from the dual's side: c is its
    # right-hand side and y its point.
    dual_scale = 1.0 + max(_abs_max(c), _abs_max(y_ub), _abs_max(y_eq))
    viol = _abs_max(a.dual_residual(c, y_ub, y_eq))
    if viol > RESIDUAL_TOL * dual_scale:
        raise LPError(f"dual residual {viol:.3e} exceeds tolerance")
    if y_ub.size and y_ub.max() > RESIDUAL_TOL * dual_scale:
        raise LPError(f"inequality dual {y_ub.max():.3e} has the wrong sign")
    dual = (float(b_ub @ y_ub) if b_ub.size else 0.0) + (float(b_eq @ y_eq) if b_eq.size else 0.0)
    if abs(primal - dual) > GAP_TOL * (1.0 + abs(primal)):
        raise LPError(f"duality gap {abs(primal - dual):.3e} exceeds tolerance")


def _abs_max(arr):
    return abs(arr).max() if arr.size else 0.0


def _finite(arr):
    return not arr.size or np.isfinite(arr).all()


# --- exact rational simplex -------------------------------------------------

ZERO = Fraction(0)
ONE = Fraction(1)


def _solve_exact(c, a, b_ub, b_eq, maximize):
    a_ub, a_eq = a.dense()
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
