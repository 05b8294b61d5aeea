"""Self-contained dense linear-programming solver.

Two-phase primal simplex on a dense tableau.  Dantzig pricing with
lowest-index tie breaking; permanent switch to Bland's rule after a stall
threshold, which guarantees termination on the heavily degenerate
transportation problems produced by equilateral spaces.

Problems whose row count dwarfs the variable count (Lipschitz-ball
constraint systems have O(n^2) rows over O(n) variables) are solved through
their dual and the primal optimizer is recovered from the dual solve's own
dual vector.  Every optimal solution is re-verified against the original
data by one residual check (primal feasibility, dual feasibility including
the signs of the row duals, duality gap); a dualized answer that fails it
is solved again on the direct path.

Warm starts.  Every optimal solution carries its final basis
(`LpSolution.basis`).  Passing it as `solve(problem, start=basis)` for a
problem with the same constraint matrix and senses re-optimizes instead of
re-solving.  The basis also carries the solve's final tableau body B^-1 A
and B^-1, updated by the same pivots.  When the constraints are the ones
that tableau was built from, the solve starts from it: after an objective
change it is used as it is, and after a right-hand-side change the new
last column is the one product B^-1 b.  Rows negated for phase 1 change
neither, so B^-1 is kept for the rows as given.  Otherwise, and once the
carried B^-1 has taken more than _REFACTOR_PIVOTS pivots, B is factored
afresh from the original data.  If the start is still primal feasible (only the
objective changed), primal phase 2 runs directly; if it is dual feasible
(only the right-hand side changed), a dual simplex restores primal
feasibility first.  In the dualized form the two cases swap: a new
objective is a new right-hand side of the dual.  Any other start -- wrong
length or path, out-of-range columns, a singular B, neither primal nor
dual feasible, a dual simplex that finds no entering column -- falls back
to the cold two-phase solve.  A warm solve refines x_B and y with the
final B^-1 and one correction step against the original B, so it makes at
most one factorization, and none when it starts from a carried tableau.
Warm and cold answers are certified by the same checks.  An answer from
a carried tableau that fails them is solved again from a fresh
factorization of its start, and a warm answer that still fails is solved
cold, before `LpError` names the failed check and its margin.

A start may also come from an LP with other constraints.  Its tableau is
then dropped and B is factored from the problem's data.  A dualized start
whose columns are all dual variables of the solved LP's rows also starts
an LP whose constraints extend those by rows and variables: column j of a
dualized form, for j below the row count, is the dual variable of row j,
so the columns carry over, and the dual row of each new variable takes
its slack.  The exposedness probe starts its face-distance LP this way
from the norm LP's optimal basis, a spanning tree of ball-row arcs.  The
dual's right-hand side is the face LP's objective (0, ..., 0, 1), which
every sample shares, and B is the tree over the slack of t's dual row, so
B^-1 b = (0, ..., 0, 1) >= 0: the start is primal feasible, and phase 2
runs after one factorization.

Canonical forms.  What a solve derives from the constraints alone (the
mid-form matrix, the dualized matrix, the slack block, the bound masks of
the residual check) is one record per constraint matrix.  A basis carries
the record of its problem; a solve started from it reuses the record when
A, lb and ub are the same read-only arrays and the senses are equal (as
`LpProblem.with_objective` and `LpProblem.with_rhs` keep them), and builds
a new one otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .tolerances import lp_tol

LE = "<="
EQ = "="
GE = ">="

_SENSES = (LE, EQ, GE)

_MAX_ITER = 50_000
_STALL_LIMIT = 80
# largest |B^-1 B - I| entry accepted from a warm-start basis
_WARM_BASIS_TOL = 1e-9
# pivots a carried B^-1 may take before a warm start factors B afresh
_REFACTOR_PIVOTS = 64


class LpError(Exception):
    """Malformed problem or solver breakdown."""


@dataclass(frozen=True)
class LpProblem:
    """min/max  c.x  s.t.  A x {<=,=,>=} b,  lb <= x <= ub."""

    c: np.ndarray
    A: np.ndarray
    senses: tuple
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    maximize: bool = False

    @staticmethod
    def build(c, A, senses, b, lb=None, ub=None, maximize=False) -> "LpProblem":
        """A validated problem over read-only copies of the inputs."""
        A = np.atleast_2d(np.array(A, dtype=float))
        m, n = A.shape
        if len(senses) != m:
            raise LpError("inconsistent problem dimensions")
        c = _checked_vector(c, (n,))
        b = _checked_vector(b, (m,))
        if np.isnan(A).any():
            raise LpError("NaN in problem data")
        if lb is None:
            lb = np.full(n, -np.inf)
        if ub is None:
            ub = np.full(n, np.inf)
        lb = np.array(lb, dtype=float)
        ub = np.array(ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise LpError("bad bound shapes")
        if np.isnan(lb).any() or np.isnan(ub).any():
            raise LpError("NaN in problem data")
        bad = [s for s in senses if s not in _SENSES]
        if bad:
            raise LpError(f"unknown row sense {bad[0]!r}")
        for arr in (A, lb, ub):
            arr.setflags(write=False)
        return LpProblem(c, A, tuple(senses), b, lb, ub, maximize)

    def with_objective(self, c) -> "LpProblem":
        """This problem with objective c.  The constraints are shared, so a
        solve started from a basis of this problem reuses its canonical
        form."""
        return replace(self, c=_checked_vector(c, self.c.shape))

    def with_rhs(self, b) -> "LpProblem":
        """This problem with right-hand side b; see `with_objective`."""
        return replace(self, b=_checked_vector(b, self.b.shape))


def _checked_vector(v, shape) -> np.ndarray:
    """A read-only copy of v, which must have the given shape and no NaN."""
    v = np.array(v, dtype=float)
    if v.shape != shape:
        raise LpError("inconsistent problem dimensions")
    if np.isnan(v).any():
        raise LpError("NaN in problem data")
    v.setflags(write=False)
    return v

DIRECT = "direct"
DUALIZED = "dualized"


@dataclass(frozen=True)
class LpBasis:
    """Optimal basis of a solve: the path it took (direct or dualized) and
    the basic columns of that path's standard form.  Opaque to callers.
    It also carries the canonical form of the solved problem's constraints
    and the solve's final tableau and B^-1, which a solve started from it
    reuses when its constraints are the same; neither takes part in
    comparisons."""

    path: str
    cols: tuple
    _canonical: "_Canonical | None" = field(default=None, compare=False,
                                            repr=False)
    _factor: "_Factor | None" = field(default=None, compare=False,
                                      repr=False)


@dataclass
class LpSolution:
    status: str                     # "optimal" | "infeasible" | "unbounded"
    value: float = np.nan
    x: np.ndarray | None = None
    y: np.ndarray | None = None     # one dual per constraint row
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    gap: float = np.nan
    cs_residual: float = np.nan
    basis: LpBasis | None = None    # pass as solve(..., start=) to re-optimize


# ---------------------------------------------------------------------------
# standard-form core: min c.z  s.t.  A z {<=,=,>=} b,  z >= 0
# ---------------------------------------------------------------------------

def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, T[row])
    # kill roundoff in the pivot column
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _iterate(T, basis, cvec, blocked, tol):
    """Run simplex iterations in place.  Returns (status, pivots) with
    status 'optimal' or 'unbounded'."""
    m = T.shape[0]
    bland = False
    stall = 0
    prev_obj = np.inf
    for k in range(_MAX_ITER):
        r = cvec - cvec[basis] @ T[:, :-1]
        r[basis] = 0.0
        r[blocked] = np.inf
        if bland:
            cand = np.nonzero(r < -tol)[0]
            if cand.size == 0:
                return "optimal", k
            j = int(cand[0])
        else:
            j = int(np.argmin(r))
            if r[j] >= -tol:
                return "optimal", k
        col = T[:m, j]
        pos = col > tol
        if not pos.any():
            return "unbounded", k
        ratios = np.full(m, np.inf)
        ratios[pos] = T[pos, -1] / col[pos]
        best = ratios.min()
        rows = np.nonzero(ratios <= best + tol * (1.0 + abs(best)))[0]
        # leaving tie break: lowest basic-variable index (Bland-compatible)
        row = int(rows[np.argmin(basis[rows])])
        _pivot(T, basis, row, j)
        obj = float(cvec[basis] @ T[:, -1])
        if obj >= prev_obj - tol * (1.0 + abs(obj)):
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        prev_obj = obj
    raise LpError("simplex iteration limit exceeded")


def _dual_iterate(T, basis, cvec, blocked, tol):
    """Dual simplex on a dual-feasible tableau, in place; `blocked` columns
    never enter.  Returns (status, pivots) with status 'optimal' once every
    basic value is >= -tol, 'infeasible' when a row with a negative value
    has no negative entry to pivot on, and 'stalled' at the iteration
    limit."""
    bland = False
    stall = 0
    prev_obj = -np.inf
    for k in range(_MAX_ITER):
        rhs = T[:, -1]
        if bland:
            rows = np.nonzero(rhs < -tol)[0]
            if rows.size == 0:
                return "optimal", k
            row = int(rows[np.argmin(basis[rows])])
        else:
            row = int(np.argmin(rhs))
            if rhs[row] >= -tol:
                return "optimal", k
        a = T[row, :-1]
        cand = a < -tol
        cand[basis] = False
        cand[blocked] = False
        cand = np.nonzero(cand)[0]
        if cand.size == 0:
            return "infeasible", k
        r = cvec[cand] - cvec[basis] @ T[:, cand]
        ratios = np.maximum(r, 0.0) / -a[cand]
        best = ratios.min()
        # entering tie break: lowest column index (Bland-compatible)
        j = int(cand[np.nonzero(ratios <= best + tol * (1.0 + best))[0][0]])
        _pivot(T, basis, row, j)
        obj = float(cvec[basis] @ T[:, -1])
        if obj <= prev_obj + tol * (1.0 + abs(obj)):
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        prev_obj = obj
    return "stalled", _MAX_ITER


@dataclass(frozen=True, eq=False)
class _Factor:
    """What a solve leaves for the next warm start on its standard form:
    the tableau body B^-1 A2 and B^-1, both of the rows before any is
    negated (negating rows changes neither B^-1 A2 nor B^-1 b), the pivots
    they took since B was last factored from the data, and the refined
    basic values x_B and row duals y with the b and c_B they are for."""

    body: np.ndarray            # read-only, like every array here
    binv: np.ndarray
    pivots: int
    b: np.ndarray
    xB: np.ndarray
    cB: np.ndarray
    y: np.ndarray


def _warm_start(A2, b, cvec, start, tol, factor=None):
    """Re-optimize from the basic columns `start` of [A2 | b].

    The working tableau is [B^-1 A2 | B^-1 | B^-1 b], with the B^-1 columns
    blocked: taken from the carried `factor` when one is given (only B^-1 b
    is computed), else factored from the original data.  A primal-feasible
    start goes straight to phase 2; a dual-feasible one runs the dual
    simplex first.  Returns the optimal (T, basis, pivots), pivots counted
    since B was factored, or None when the start is malformed, singular,
    neither primal nor dual feasible, or does not lead to an optimum; the
    caller then solves cold.
    """
    m, n2 = A2.shape
    cols = np.asarray(start)
    if cols.shape != (m,) or cols.dtype.kind not in "iu":
        return None
    if m and (cols.min() < 0 or cols.max() >= n2
              or np.unique(cols).size != m):
        return None
    if factor is not None:
        T = np.hstack([factor.body, factor.binv,
                       (factor.binv @ b)[:, None]])
        pivots = factor.pivots
    else:
        eye = np.eye(m)
        try:
            T = np.linalg.solve(A2[:, cols],
                                np.hstack([A2, eye, b[:, None]]))
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(T).all() or \
                np.abs(T[:, cols] - eye).max(initial=0.0) > _WARM_BASIS_TOL:
            return None
        T[:, cols] = eye
        pivots = 0
    basis = cols.astype(int)
    cext = np.concatenate([cvec, np.zeros(m)])
    blocked = np.zeros(n2 + m, dtype=bool)
    blocked[n2:] = True
    if np.min(T[:, -1], initial=0.0) < -tol:
        r = cvec - cvec[basis] @ T[:, :n2]
        r[basis] = 0.0
        if r.min(initial=0.0) < -tol:
            return None
        status, k = _dual_iterate(T, basis, cext, blocked, tol)
        if status != "optimal":
            return None
        pivots += k
    status, k = _iterate(T, basis, cext, blocked, tol)
    if status != "optimal":
        return None
    return T, basis, pivots + k


def _two_phase(A2, b, c2, slack_of_row, tol):
    """Cold solve from a slack/artificial basis, which is the identity:
    phase 1, then phase 2 with costs c2.  b must be >= 0.  Returns (status,
    T, basis, first, keep_rows, pivots): first is the initial basis and
    keep_rows the constraint rows phase 1 kept, so that with B the basic
    columns over those rows, T = B^-1 [A2 | artificials | b] restricted
    to them and T[:, first[keep_rows]] = B^-1."""
    m, n2 = A2.shape
    basis = np.empty(m, dtype=int)
    art_rows = []
    for i in range(m):
        j = slack_of_row[i]
        if j >= 0 and A2[i, j] > 0:
            basis[i] = j
        else:
            art_rows.append(i)
    n_art = len(art_rows)
    Aart = np.zeros((m, n_art))
    for t, i in enumerate(art_rows):
        Aart[i, t] = 1.0
        basis[i] = n2 + t
    first = basis.copy()
    T = np.hstack([A2, Aart, b[:, None]])
    total = n2 + n_art
    keep_rows = np.arange(m)
    pivots = 0

    blocked = np.zeros(total, dtype=bool)
    if n_art:
        c1 = np.zeros(total)
        c1[n2:] = 1.0
        status, pivots = _iterate(T, basis, c1, blocked, tol)
        phase1 = float(c1[basis] @ T[:, -1])
        if phase1 > 1e-7 * (1.0 + abs(b).max(initial=0.0)):
            return "infeasible", None, None, None, None, pivots
        # drive remaining artificials out of the basis
        drop = []
        for i in range(T.shape[0]):
            if basis[i] >= n2:
                cand = np.abs(T[i, :n2]) > tol
                cand[basis[basis < n2]] = False
                cand = np.nonzero(cand)[0]
                if cand.size:
                    _pivot(T, basis, i, int(cand[0]))
                    pivots += 1
                else:
                    drop.append(i)  # redundant row
        if drop:
            mask = np.ones(T.shape[0], dtype=bool)
            mask[drop] = False
            # row i of T is zero on A2: its row of B^-1 combines the
            # constraint rows into zero with weight 1 on the row of the
            # artificial still basic in it, which is the one to drop
            keep_rows = np.delete(
                keep_rows, [art_rows[basis[i] - n2] for i in drop])
            T = T[mask]
            basis = basis[mask]
    blocked[n2:] = True

    c2 = np.concatenate([c2, np.zeros(n_art)])
    status, k = _iterate(T, basis, c2, blocked, tol)
    return status, T, basis, first, keep_rows, pivots + k


@dataclass(frozen=True)
class _StdForm:
    """The constraints A z {<=,=,>=} b, z >= 0 of a standard-form problem
    as [A | slacks], before the rows with b < 0 are negated for a solve."""

    A2: np.ndarray              # read-only
    senses: tuple
    slack_of_row: np.ndarray    # slack column per row, -1 on '=' rows
    n: int                      # columns of A


def _std_form(A, senses) -> _StdForm:
    m, n = A.shape
    code = _sense_codes(senses)
    rows = np.nonzero(code)[0]
    k = np.arange(rows.size)
    S = np.zeros((m, rows.size))
    S[rows, k] = code[rows]
    slack_of_row = np.full(m, -1, dtype=int)
    slack_of_row[rows] = n + k
    A2 = np.hstack([A, S])
    A2.setflags(write=False)
    return _StdForm(A2, senses, slack_of_row, n)


def _solve_cf(std: _StdForm, c, b, tol, start=None):
    """Two-phase simplex for min c.z, A z {<=,=,>=} b, z >= 0.

    Returns (status, value, z, y, carry) where y holds one dual per row
    with the min-problem sign convention: y <= 0 on '<=' rows, y >= 0 on
    '>=' rows, and carry is (basis, factor): the optimal basic columns of
    [A | slacks] and the `_Factor` of the solve (None if phase 1 dropped
    redundant rows).  A `start` basis is tried first; see `_warm_start`.
    Its factor, which `solve` keeps only for this standard form, is used
    when it has taken at most _REFACTOR_PIVOTS pivots; otherwise B is
    factored afresh.
    """
    A2 = std.A2
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n2 = A2.shape
    c2 = np.zeros(n2)
    c2[:std.n] = c

    warm = None
    if start is not None:
        factor = start._factor
        if factor is not None and factor.pivots > _REFACTOR_PIVOTS:
            factor = None
        warm = _warm_start(A2, b, c2, start.cols, tol, factor)
    if warm is not None:
        T, basis, pivots = warm
        binv = T[:, n2:-1]
        cB = c2[basis]
        # a basis no pivot changed keeps the start's refined values; else
        # one step of refinement against the original B sheds the error
        # B^-1 took on in its pivots
        same = factor is not None and pivots == factor.pivots
        B = A2[:, basis]
        if same and np.array_equal(b, factor.b):
            xB = factor.xB
        else:
            xB = binv @ b
            xB += binv @ (b - B @ xB)
        if same and np.array_equal(cB, factor.cB):
            y = factor.y
        else:
            y = cB @ binv
            y += (cB - y @ B) @ binv
    else:
        # phase 1 starts from b >= 0: negate the rows with b < 0
        row_sign = np.where(b < 0, -1.0, 1.0)
        A2n, bn = A2 * row_sign[:, None], b * row_sign
        status, T, basis, first, keep, pivots = _two_phase(
            A2n, bn, c2, std.slack_of_row, tol)
        if status != "optimal":
            return status, np.nan, None, None, None
        # refine from the original data to shed accumulated tableau error
        B = A2n[np.ix_(keep, basis)]
        cB = c2[basis]
        try:
            xB = np.linalg.solve(B, bn[keep])
            yk = np.linalg.solve(B.T, cB)
        except np.linalg.LinAlgError:
            # B^-1 of the negated rows, accumulated by the tableau
            xB = T[:, first[keep]] @ bn[keep]
            yk = cB @ T[:, first[keep]]
        y = np.zeros(m)
        y[keep] = yk * row_sign[keep]
        binv = T[:, first] * row_sign if basis.size == m else None
    z = np.zeros(n2)
    z[basis] = xB
    carry = None
    if basis.size == m:
        for a in (T, binv, b, xB, cB, y):
            a.setflags(write=False)
        carry = basis.copy(), _Factor(T[:, :n2], binv, pivots, b, xB, cB,
                                      y)
    return "optimal", float(c @ z[:std.n]), z[:std.n], y, carry


# ---------------------------------------------------------------------------
# general solve with canonicalization and optional dualization
# ---------------------------------------------------------------------------

class _Canonical:
    """What a solve derives from the constraints (A, senses, lb, ub) alone:
    the mid form's matrix and variable map (min c.x, each variable either
    free or >= 0, x_orig = sign * x_mid + shift), the standard form of each
    path, built on first use, and the bound masks of the residual check.
    Solves over one constraint matrix build it once: a basis carries it to
    the next solve (see `solve`)."""

    def __init__(self, p: LpProblem):
        self.source = (p.A, p.senses, p.lb, p.ub)
        n = p.A.shape[1]
        lo_inf, hi_inf = np.isinf(p.lb), np.isinf(p.ub)
        self.free = lo_inf & hi_inf
        # x >= lb shifts by lb; a finite ub alone flips the variable
        self.shift = np.where(~lo_inf, p.lb, np.where(~hi_inf, p.ub, 0.0))
        self.sign = np.where(lo_inf & ~hi_inf, -1.0, 1.0)
        self.A_shift = p.A @ self.shift
        boxed = np.nonzero(~lo_inf & ~hi_inf)[0]
        self.box_width = p.ub[boxed] - p.lb[boxed]
        A = p.A * self.sign
        senses = p.senses
        if boxed.size:
            E = np.zeros((boxed.size, n))
            E[np.arange(boxed.size), boxed] = 1.0
            A = np.vstack([A, E * self.sign])
            senses += (LE,) * boxed.size
        A.setflags(write=False)
        self.A, self.senses = A, senses
        self.n_orig_rows = p.A.shape[0]
        # residual check: row sense codes, and the bound each variable can
        # sit at (infinite bounds never hold)
        self.codes = _sense_codes(p.senses)
        self.lo_finite, self.hi_finite = ~lo_inf, ~hi_inf
        self.lo_f = np.where(lo_inf, 0.0, p.lb)
        self.hi_f = np.where(hi_inf, 0.0, p.ub)
        self.lo_reach = self.lo_f + 1e-7 * (1 + np.abs(self.lo_f))
        self.hi_reach = self.hi_f - 1e-7 * (1 + np.abs(self.hi_f))
        self.eq_rows = self.codes == 0.0
        self.has_bounds = bool(self.lo_finite.any() or self.hi_finite.any())
        self._forms = {}

    def matches(self, p: LpProblem) -> bool:
        """Whether p has the constraints this record was built from: the
        same read-only A, lb and ub (a writable array may have changed
        since) and equal senses."""
        A, senses, lb, ub = self.source
        return (all(a is b and not b.flags.writeable
                    for a, b in ((A, p.A), (lb, p.lb), (ub, p.ub)))
                and (senses is p.senses or senses == p.senses))

    def form(self, path):
        """(standard form, column map) of `path`, built on first use."""
        if path not in self._forms:
            build = _dualized_form if path == DUALIZED else _direct_form
            self._forms[path] = build(self)
        return self._forms[path]


def _direct_form(canon: _Canonical):
    """Free variables split into two nonnegative ones."""
    free_idx = np.nonzero(canon.free)[0]
    A = np.hstack([canon.A, -canon.A[:, free_idx]])
    return _std_form(A, canon.senses), free_idx


def _dualized_form(canon: _Canonical):
    """The dual: y = Y u with u >= 0, and equality rows keep a free dual
    variable (split in two); a dual row per variable, A_j . y {<= c_j if
    x_j >= 0, = c_j if x_j free}."""
    code = _sense_codes(canon.senses)
    col_sgn = np.where(code > 0, -1.0, 1.0)
    free_u = np.nonzero(code == 0)[0]
    D_A = (canon.A * col_sgn[:, None]).T               # n x m
    d_senses = tuple(EQ if f else LE for f in canon.free)
    A2 = np.hstack([D_A, -D_A[:, free_u]])
    return _std_form(A2, d_senses), (col_sgn, free_u)


@dataclass
class _MidForm:
    """min c.x over the rows of `canon.A`, shifted by `const`."""

    c: np.ndarray
    b: np.ndarray
    const: float
    canon: _Canonical

    @property
    def A(self) -> np.ndarray:
        return self.canon.A


def _to_midform(p: LpProblem, canon: _Canonical) -> _MidForm:
    c = -p.c if p.maximize else p.c
    b = p.b - canon.A_shift
    if canon.box_width.size:
        b = np.concatenate([b, canon.box_width])
    return _MidForm(c * canon.sign, b, float(c @ canon.shift), canon)


def _solve_mid_direct(mf: _MidForm, tol, start=None):
    """Split free variables and run the standard-form core."""
    n = mf.A.shape[1]
    std, free_idx = mf.canon.form(DIRECT)
    c = np.concatenate([mf.c, -mf.c[free_idx]])
    status, val, z, y, carry = _solve_cf(std, c, mf.b, tol, start)
    if status != "optimal":
        return status, np.nan, None, None, None
    x = z[:n].copy()
    x[free_idx] -= z[n:]
    return status, val, x, y, carry


def _solve_mid_dual(mf: _MidForm, tol, start=None):
    """Solve through the dual; recover the primal from the dual's duals."""
    m = mf.A.shape[0]
    std, (col_sgn, free_u) = mf.canon.form(DUALIZED)
    D_c = -(mf.b * col_sgn)
    c2 = np.concatenate([D_c, -D_c[free_u]])
    status, val2, u2, w, carry = _solve_cf(std, c2, mf.c, tol, start)
    if status == "unbounded":
        return "infeasible", np.nan, None, None, None
    if status != "optimal":
        return "fallback", np.nan, None, None, None
    u = u2[:m].copy()
    u[free_u] -= u2[m:]
    y = col_sgn * u
    x = -w
    return "optimal", float(mf.c @ x), x, y, carry


def solve(problem: LpProblem, tol: float | None = None,
          start: LpBasis | None = None) -> LpSolution:
    """Solve an LP; optimal solutions carry verified certificates.

    `start` is the `basis` of an earlier solution; the solve re-optimizes
    from it.  If the constraints (A, senses, lb, ub) are the ones the start
    was solved with, their canonical form and the start's tableau are
    reused instead of rebuilt; otherwise the start keeps only its columns
    (see `_carried_over`).  A warm answer that fails its certificate check
    is solved again from a fresh factorization of its start, then cold;
    `LpError` names the check that still fails, with its margin.
    """
    if tol is None:
        tol = lp_tol()
    canon = None if start is None else start._canonical
    if canon is None or not canon.matches(problem):
        old, canon = canon, _Canonical(problem)
        if start is not None:
            start = _carried_over(start, old, canon)
    mf = _to_midform(problem, canon)
    sol = _solve_once(problem, mf, tol, start)
    if start is not None and not _passes(sol, tol):
        sol = _solve_once(problem, mf, tol, None)
    failed = _failed_check(sol, tol)
    if failed is not None:
        raise LpError("certificate check failed: {} with margin {!r}"
                      .format(*failed))
    return sol


def _carried_over(start: LpBasis, old: _Canonical | None,
                  canon: _Canonical) -> LpBasis:
    """`start`, solved over the constraints `old`, as a start over those of
    `canon`: its columns without its tableau.  A dualized start whose
    columns are all dual variables of old rows gains the slack of each
    further dual row, the dual row of a variable old did not have; the new
    B is block triangular over the old one.  A dual row without a slack (a
    free variable) leaves the start a column short, and like any start
    that does not fit, `_warm_start` rejects it."""
    cols = start.cols
    if start.path == DUALIZED and old is not None and \
            max(cols, default=-1) < old.n_orig_rows:
        extra = canon.form(DUALIZED)[0].slack_of_row[len(cols):]
        if (extra >= 0).all():
            cols += tuple(extra.tolist())
    return LpBasis(start.path, cols)


def _solve_once(problem, mf, tol, start) -> LpSolution:
    m, n = mf.A.shape
    paths = [(DUALIZED, _solve_mid_dual)] if m > 2 * n + 20 else []
    for path, solve_mid in paths + [(DIRECT, _solve_mid_direct)]:
        warm = start if start is not None and start.path == path else None
        sol = _solution(problem, mf, path, solve_mid(mf, tol, warm))
        if warm is not None and warm._factor is not None and \
                not _passes(sol, tol):
            # the carried factor may have drifted: factor B afresh
            sol = _solution(problem, mf, path, solve_mid(
                mf, tol, replace(warm, _factor=None)))
        # a dualized answer that fails its check is solved again directly
        if sol.status != "fallback" and _passes(sol, tol):
            return sol
    return sol


def _solution(problem, mf, path, result) -> LpSolution:
    """Map a mid-form result to the original coordinates and fill in its
    residuals."""
    status, val, x, y, carry = result
    if status != "optimal":
        return LpSolution(status=status)
    canon = mf.canon
    x_orig = canon.sign * x + canon.shift
    y_orig = y[:canon.n_orig_rows].copy()
    value = val + mf.const
    if problem.maximize:
        value = -value
        y_orig = -y_orig
    basis = None if carry is None else LpBasis(
        path, tuple(carry[0].tolist()), canon, carry[1])
    sol = LpSolution(status="optimal", value=value, x=x_orig, y=y_orig,
                     basis=basis)
    _fill_residuals(problem, sol, canon)
    return sol


def _failed_check(sol: LpSolution, tol):
    """The first residual check an optimal solution fails, as (name,
    margin) with margin = threshold - residual < 0 (NaN fails), or None.
    Only optimal solutions carry residuals."""
    if sol.status != "optimal":
        return None
    for name, margin in (
            ("primal_residual", tol - sol.primal_residual),
            ("dual_residual", tol - sol.dual_residual),
            ("gap", tol * (1.0 + abs(sol.value)) - sol.gap)):
        if not margin >= 0.0:
            return name, margin
    return None


def _passes(sol: LpSolution, tol) -> bool:
    """Whether sol passes the LpError thresholds."""
    return _failed_check(sol, tol) is None


@functools.lru_cache(maxsize=64)
def _sense_codes(senses: tuple) -> np.ndarray:
    """+1 on '<=' rows, -1 on '>=' rows, 0 on '=' rows."""
    code = np.array([1.0 if s == LE else -1.0 if s == GE else 0.0
                     for s in senses])
    code.setflags(write=False)
    return code


def _fill_residuals(problem: LpProblem, sol: LpSolution,
                    canon: _Canonical) -> None:
    """The residual check of (x, y) against the original data; `canon` is
    the canonical form of the problem's constraints."""
    x, y = sol.x, sol.y
    code = canon.codes
    sgn = -1.0 if problem.maximize else 1.0
    ys = sgn * y
    r = problem.A @ x - problem.b
    pr = max(_top(np.where(canon.eq_rows, np.abs(r), code * r)),
             _top(np.maximum(problem.lb - x, x - problem.ub)))
    cs = _top(np.abs(y * r))
    # reduced costs in min orientation, where the row duals must satisfy
    # y <= 0 on '<=' rows and y >= 0 on '>=' rows
    rc = sgn * problem.c - problem.A.T @ ys
    y_sign = _top(code * ys)
    dual_obj = float(problem.b @ ys)
    if not canon.has_bounds:
        dr = max(_top(np.abs(rc)), y_sign)
    else:
        lo_f, hi_f = canon.lo_f, canon.hi_f
        at_lo = canon.lo_finite & (x <= canon.lo_reach)
        at_hi = canon.hi_finite & (x >= canon.hi_reach)
        fixed = at_lo & at_hi
        only_lo = at_lo & ~at_hi
        only_hi = at_hi & ~at_lo
        # a reduced cost of the wrong sign at a bound violates both dual
        # feasibility and complementary slackness
        at_bound = _top(np.where(only_lo, -rc, np.where(only_hi, rc, 0.0)))
        dr = max(_top(np.abs(rc[~at_lo & ~at_hi])), at_bound, y_sign)
        cs = max(cs, at_bound)
        dual_obj += float(
            lo_f[fixed] @ rc[fixed]
            + lo_f[only_lo] @ np.maximum(rc[only_lo], 0.0)
            + hi_f[only_hi] @ np.minimum(rc[only_hi], 0.0))
    primal_obj = float(problem.c @ x)
    sol.primal_residual = pr
    sol.dual_residual = dr
    sol.gap = abs(primal_obj - sgn * dual_obj)
    sol.cs_residual = cs


def _top(v: np.ndarray) -> float:
    """The largest entry of v, or 0 if none is larger (NaN propagates)."""
    return float(np.maximum.reduce(v, initial=0.0))
