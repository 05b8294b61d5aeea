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

Warm and batched re-solves.  Every optimal solution carries its final
basis (`LpSolution.basis`).  `solve(problem, start=basis)`, for a problem
with the same constraint matrix and senses, re-optimizes instead of
re-solving, and `solve_many(problem, objectives, start)` does so for k
objectives as k such calls would.  There is one warm path: the start runs
as the lanes of a batch (`_Batch`), and a warm `solve` is a batch of one
lane.  The basis also carries the solve's final tableau body B^-1 A and
B^-1, updated by the same pivots.  When the constraints are the ones that
tableau was built from, the lanes start from it: after an objective change
it is used as it is, and after a right-hand-side change each lane's last
column is the one product B^-1 b.  Rows negated for phase 1 change
neither, so B^-1 is kept for the rows as given.  Otherwise, and once the
carried B^-1 has taken more than _REFACTOR_PIVOTS pivots, B is factored
afresh from the original data, once for all lanes.  A lane that is still
primal feasible (only the objective changed) runs primal phase 2 directly;
one that is dual feasible (only the right-hand side changed) runs the dual
simplex first.  In the dualized form the two cases swap: a new objective
is a new right-hand side of the dual, so the lanes of one start share B^-1
and differ in their last column.  There is one dual simplex: the dual
phase of any number of lanes pivots in lockstep in a (k, m, N+1) stack of
tableaux, where every lane is priced at once and takes its own pivot by
Dantzig's rule with the same tie breaks.  Primal phase 2 pivots two or
more lanes the same way, and one lane with the single-tableau kernel of
the cold solve.  Each lane refines x_B and y with its final B^-1 and one
correction step against the original B (a lane that took no pivot keeps
the start's refined values), so a batch makes at most one factorization,
and none from a carried tableau; and every lane is mapped back to the
problem and certified by the same code as a cold answer.

A start seeds no batch if it is of the wrong length or path, has
out-of-range columns or a singular B.  A lane leaves its batch if it is
neither primal nor dual feasible, its dual simplex finds no entering
column or stalls past _STALL_LIMIT, or it ends unbounded; in lockstep
primal phase 2 also if it stalls past _STALL_LIMIT, where a single lane
switches to Bland's rule.  `solve` then solves cold.  Its answer from a
carried tableau that fails the check is solved again from a fresh
factorization of its start, then cold, before `LpError` names the failed
check and its margin.  A lane of `solve_many` that leaves or fails is
solved by `solve` from the same start, so every answer passes the
thresholds of `solve`.  A start that seeds no batch (none, another path,
or rejected) is handed to `solve` with the first objective, whose basis
seeds the rest.  A stack holds at most _BATCH_CELLS cells; more lanes run
in blocks.

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
the residual check) is one record per constraint matrix (`_canonical`).  A
problem builds it on its first solve and shares it with the problems that
`LpProblem.with_objective` and `LpProblem.with_rhs` make from it.  A basis
carries the record of its problem, and a solve started from it reuses its
tableau only over that same record.
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

    def __post_init__(self):
        # the canonical form of the constraints, built on the first solve
        # and shared with the problems with_objective and with_rhs make
        object.__setattr__(self, "_shared", [None])

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
        """This problem with objective c.  The constraints are shared, and
        with them their canonical form (see `_canonical`)."""
        return self._sharing(replace(self, c=_checked_vector(c,
                                                             self.c.shape)))

    def with_rhs(self, b) -> "LpProblem":
        """This problem with right-hand side b; see `with_objective`."""
        return self._sharing(replace(self, b=_checked_vector(b,
                                                             self.b.shape)))

    def _sharing(self, other: "LpProblem") -> "LpProblem":
        object.__setattr__(other, "_shared", self._shared)
        return other


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
        if bland or not r.size:     # no columns: optimal at once
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


def _start_tableau(A2, R, cols, factor=None):
    """(B^-1 A2, B^-1, X0, pivots) for the basic columns `cols` of A2, where
    row l of X0 is B^-1 of the right-hand side in row l of R and pivots are
    those B^-1 has taken since B was factored from the data: from the
    carried `factor` when one is given (only X0 is computed, one product
    per row), else from one factorization of B.  None when cols is
    malformed or B singular."""
    m, n2 = A2.shape
    cols = np.asarray(cols)
    if cols.shape != (m,) or cols.dtype.kind not in "iu":
        return None
    if m and (cols.min() < 0 or cols.max() >= n2
              or len(set(cols.tolist())) != m):
        return None
    if factor is not None:
        return factor.body, factor.binv, _apply(factor.binv, R), \
            factor.pivots
    eye = np.eye(m)
    try:
        T = np.linalg.solve(A2[:, cols], np.hstack([A2, eye, R.T]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(T).all() or \
            np.abs(T[:, cols] - eye).max(initial=0.0) > _WARM_BASIS_TOL:
        return None
    T[:, cols] = eye
    return T[:, :n2], T[:, n2:n2 + m], T[:, n2 + m:].T, 0


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


def _solve_cf(std: _StdForm, c, b, tol):
    """Cold two-phase simplex for min c.z, A z {<=,=,>=} b, z >= 0.

    Returns (status, basis, xB, y, factor): the optimal basic columns of
    [A | slacks] and their values, one dual per row with the min-problem
    sign convention (y <= 0 on '<=' rows, y >= 0 on '>=' rows), and the
    `_Factor` of the solve (None if phase 1 dropped redundant rows).
    """
    A2 = std.A2
    b = np.array(b, dtype=float)
    m, n2 = A2.shape
    c2 = np.zeros(n2)
    c2[:std.n] = c
    # phase 1 starts from b >= 0: negate the rows with b < 0
    row_sign = np.where(b < 0, -1.0, 1.0)
    A2n, bn = A2 * row_sign[:, None], b * row_sign
    status, T, basis, first, keep, pivots = _two_phase(
        A2n, bn, c2, std.slack_of_row, tol)
    if status != "optimal":
        return status, None, None, None, None
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
    if basis.size < m:
        return "optimal", basis, xB, y, None
    binv = T[:, first] * row_sign
    for a in (T, binv, b, xB, cB, y):
        a.setflags(write=False)
    return "optimal", basis, xB, y, _Factor(T[:, :n2], binv, pivots, b, xB,
                                            cB, y)


# ---------------------------------------------------------------------------
# general solve with canonicalization and optional dualization
# ---------------------------------------------------------------------------

class _Canonical:
    """What a solve derives from the constraints (A, senses, lb, ub) alone:
    the mid form's matrix and variable map (min c.x, each variable either
    free or >= 0, x_orig = sign * x_mid + shift), the standard form of each
    path, built on first use, and the bound masks of the residual check.
    Solves over one constraint matrix build it once (see `_canonical`)."""

    def __init__(self, p: LpProblem):
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

    def form(self, path):
        """(standard form, column map) of `path`, built on first use."""
        if path not in self._forms:
            build = _dualized_form if path == DUALIZED else _direct_form
            self._forms[path] = build(self)
        return self._forms[path]


def _canonical(p: LpProblem) -> _Canonical:
    """The canonical form of p's constraints, built on p's first solve and
    shared with the problems `with_objective` and `with_rhs` make from p.
    It is not kept for a writable A, lb or ub (an LpProblem made directly,
    not by `build`), which may change between solves."""
    shared = p._shared
    if shared[0] is None:
        canon = _Canonical(p)
        if any(a.flags.writeable for a in (p.A, p.lb, p.ub)):
            return canon
        shared[0] = canon
    return shared[0]


def _paths(canon: _Canonical) -> tuple:
    """The paths a solve tries, in order: the dualized one first when the
    rows far outnumber the variables."""
    m, n = canon.A.shape
    return (DUALIZED, DIRECT) if m > 2 * n + 20 else (DIRECT,)


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


@dataclass(eq=False)
class _Lanes:
    """Objectives over the constraints of one problem on the standard form
    of `path`, one lane (row) each: the objective C; the mid form's
    objective Cmid (min c.x with x_orig = sign * x + shift) and the
    constant c.shift it drops; and the costs and right-hand side of the
    standard form.  On the dualized path an objective is the dual's
    right-hand side."""

    problem: LpProblem
    canon: _Canonical
    path: str
    C: np.ndarray
    Cmid: np.ndarray
    const: np.ndarray
    costs: np.ndarray
    rhs: np.ndarray

    @staticmethod
    def of(problem, canon, path, C) -> "_Lanes":
        Cmin = -C if problem.maximize else C
        b = problem.b - canon.A_shift
        if canon.box_width.size:
            b = np.concatenate([b, canon.box_width])
        Cmid = Cmin * canon.sign
        cmap = canon.form(path)[1]
        if path == DUALIZED:
            col_sgn, free_u = cmap
            d_c = -(b * col_sgn)
            d_c = np.concatenate([d_c, -d_c[free_u]])
            costs, rhs = d_c[None].repeat(len(C), 0), Cmid
        else:
            costs = np.hstack([Cmid, -Cmid[:, cmap]]) if cmap.size else Cmid
            rhs = b[None].repeat(len(C), 0)
        return _Lanes(problem, canon, path, C, Cmid,
                      _dots(Cmin, canon.shift), costs, rhs)

    def answers(self, lanes, basis, xB, y, factors) -> list:
        """The optimal solutions of the lanes in the slice `lanes`, with
        their residuals, from their answers on the standard form: per lane
        (row) the basic columns, x_B and the row duals y, and the `_Factor`
        its basis carries (None: no basis)."""
        canon = self.canon
        std, cmap = canon.form(self.path)
        k = basis.shape[0]
        z = np.zeros((k, std.A2.shape[1]))
        z[np.arange(k)[:, None], basis] = xB
        if self.path == DUALIZED:
            # the primal is the dual's row duals, the row duals its solution
            col_sgn, free_u = cmap
            m = canon.A.shape[0]
            u = z[:, :m]
            if free_u.size:
                u[:, free_u] -= z[:, m:std.n]
            X, Y = -y, col_sgn * u
            value = _dots(self.Cmid[lanes], X)
        else:
            n = canon.A.shape[1]
            value = _dots(self.costs[lanes], z[:, :std.n])
            X, Y = z[:, :n], y
            if cmap.size:
                X[:, cmap] -= z[:, n:std.n]
        sgn = -1.0 if self.problem.maximize else 1.0
        value = sgn * (value + self.const[lanes])
        X = canon.sign * X + canon.shift
        Y = sgn * Y[:, :canon.n_orig_rows]
        # one lane is checked as vectors, which is cheaper
        residuals = _fill_residuals(self.problem, canon, *(
            a[0] if k == 1 else a for a in (self.C[lanes], X, Y)))
        return [LpSolution(
            "optimal", float(value[i]), X[i], Y[i],
            *(r.item(i) for r in residuals),
            None if factors[i] is None else LpBasis(
                self.path, tuple(basis[i].tolist()), canon, factors[i]))
            for i in range(k)]


def solve(problem: LpProblem, tol: float | None = None,
          start: LpBasis | None = None) -> LpSolution:
    """Solve an LP; optimal solutions carry verified certificates.

    `start` is the `basis` of an earlier solution; the solve re-optimizes
    from it as a batch of one lane (see `solve_many`).  If the constraints
    are the ones the start was solved with, the start's tableau is reused;
    otherwise the start keeps only its columns (see `_carried_over`).  A
    warm answer from a carried tableau that fails its certificate check is
    solved again from a fresh factorization of its start; a start that
    does not fit, and a warm answer that still fails, are solved cold.
    `LpError` names the check that still fails, with its margin.
    """
    if tol is None:
        tol = lp_tol()
    canon = _canonical(problem)
    sol = None
    if start is not None:
        sol = _solve_warm(problem, canon, _carried_over(start, canon), tol)
    if sol is None:
        sol = _solve_cold(problem, canon, tol)
    failed = _failed_check(sol, tol)
    if failed is not None:
        raise LpError("certificate check failed: {} with margin {!r}"
                      .format(*failed))
    return sol


def _solve_warm(problem, canon, start, tol) -> LpSolution | None:
    """The certified answer from `start`, run as one lane: from its carried
    tableau, then, if that answer fails its check, from a fresh
    factorization of its B.  None if the start does not fit, the lane
    leaves the batch, or the answer still fails."""
    while True:
        batch = _Batch.seed(problem, canon, start, problem.c[None], tol)
        sol = None if batch is None else batch.run(slice(0, 1))[0]
        if sol is None or _failed_check(sol, tol) is None:
            return sol
        if batch.factor is None:
            return None
        # the carried factor may have drifted: factor B afresh
        start = replace(start, _factor=None)


def _solve_cold(problem, canon, tol) -> LpSolution:
    """The two-phase simplex on each path in turn.  A dualized answer that
    fails its check is solved again directly; a dual that is unbounded
    makes the problem infeasible, and one that is infeasible leaves the
    problem to the direct path."""
    for path in _paths(canon):
        lanes = _Lanes.of(problem, canon, path, problem.c[None])
        status, cols, xB, y, factor = _solve_cf(
            canon.form(path)[0], lanes.costs[0], lanes.rhs[0], tol)
        if status == "optimal":
            sol = lanes.answers(slice(0, 1), cols[None], xB[None], y[None],
                                [factor])[0]
            if path == DIRECT or _failed_check(sol, tol) is None:
                return sol
        elif path == DIRECT:
            return LpSolution(status)
        elif status == "unbounded":
            return LpSolution("infeasible")


def _carried_over(start: LpBasis, canon: _Canonical) -> LpBasis:
    """`start` as a start over the constraints of `canon`: as it is if it
    was solved over them, else its columns without its tableau.  A
    dualized start whose columns are all dual variables of the rows it was
    solved over gains the slack of each further dual row, the dual row of
    a variable its LP did not have; the new B is block triangular over the
    old one.  A dual row without a slack (a free variable) leaves the
    start a column short, and like any start that does not fit, it is
    rejected."""
    old = start._canonical
    if old is canon:
        return start
    cols = start.cols
    if start.path == DUALIZED and old is not None and \
            max(cols, default=-1) < old.n_orig_rows:
        extra = canon.form(DUALIZED)[0].slack_of_row[len(cols):]
        if (extra >= 0).all():
            cols += tuple(extra.tolist())
    return LpBasis(start.path, cols, canon)


def _failed_check(sol: LpSolution, tol):
    """The first residual check an optimal solution fails, as (name,
    margin) with margin = threshold - residual < 0 (NaN fails), or None.
    Only optimal solutions carry residuals."""
    if sol.status != "optimal":
        return None
    for name, margin in (("primal_residual", tol - sol.primal_residual),
                         ("dual_residual", tol - sol.dual_residual),
                         ("gap", tol * (1.0 + abs(sol.value)) - sol.gap)):
        if not margin >= 0.0:
            return name, margin
    return None


# ---------------------------------------------------------------------------
# warm and batched re-solves: lanes from one start
# ---------------------------------------------------------------------------

def solve_many(problem: LpProblem, objectives,
               start: LpBasis | None = None) -> list[LpSolution]:
    """Solve `problem` once per row c of `objectives`, as
    `solve(problem.with_objective(c), start=start)` would, in lockstep.

    The lanes share the canonical form, the start's tableau or one
    factorization of its B, and its carried-over columns.  A start that
    cannot seed the lanes (none, another path, or rejected) is handed with
    the first objective to `solve`, whose basis seeds the others.  A lane
    that leaves the batch or fails its check, and every lane of a seed that
    still does not fit, is solved by `solve` from the seed; so every answer
    passes the thresholds of `solve`.
    """
    C = np.array(objectives, dtype=float)
    if C.shape == (0,):
        C = C.reshape(0, problem.c.size)
    if C.ndim != 2 or C.shape[1] != problem.c.size:
        raise LpError("inconsistent problem dimensions")
    if np.isnan(C).any():
        raise LpError("NaN in problem data")
    tol = lp_tol()
    canon = _canonical(problem)
    if start is not None:
        start = _carried_over(start, canon)
    out = [None] * len(C)
    first = 0
    batch = _Batch.seed(problem, canon, start, C, tol)
    if batch is None and len(C):
        out[0] = solve(problem.with_objective(C[0]), tol, start)
        start, first = out[0].basis, 1
        batch = _Batch.seed(problem, canon, start, C, tol)
    if batch is not None:
        m2, cols = batch.body.shape
        step = max(1, _BATCH_CELLS // (m2 * (cols + m2 + 1)))
        for lo in range(first, len(C), step):
            block = slice(lo, min(lo + step, len(C)))
            out[block] = [None if sol is None or _failed_check(sol, tol)
                          else sol for sol in batch.run(block)]
    for lane, c in enumerate(C):
        if out[lane] is None:
            out[lane] = solve(problem.with_objective(c), tol, start)
    return out


#: Cap on the cells of one stack of lane tableaux in `solve_many`; more
#: lanes run in blocks of at most this many cells (one lane at least).
_BATCH_CELLS = 2 ** 20


@dataclass(eq=False)
class _Batch:
    """What the lanes of one start share, on the standard form of the path
    the start took: the start's columns, B^-1 A2 and B^-1, the pivots they
    took since B was factored, and the carried factor they came from (None
    for a fresh factorization); per lane, B^-1 of its right-hand side."""

    lanes: _Lanes
    cols: np.ndarray
    body: np.ndarray
    binv: np.ndarray
    X0: np.ndarray
    pivots: int
    factor: _Factor | None
    tol: float

    @staticmethod
    def seed(problem, canon, start, C, tol) -> "_Batch | None":
        """The batch over the objectives C (rows) from `start`, or None
        when the start is not on the path `solve` takes first or does not
        fit."""
        path = _paths(canon)[0]
        if start is None or start.path != path:
            return None
        lanes = _Lanes.of(problem, canon, path, C)
        factor = start._factor
        if factor is not None and factor.pivots > _REFACTOR_PIVOTS:
            factor = None
        seeded = _start_tableau(canon.form(path)[0].A2, lanes.rhs, start.cols,
                                factor)
        if seeded is None:
            return None
        return _Batch(lanes, np.array(start.cols), *seeded, factor, tol)

    def run(self, lanes: slice) -> list:
        """The solutions of the lanes in the slice `lanes`, or None for a
        lane that left; the caller checks them."""
        L = self.lanes
        std = L.canon.form(L.path)[0]
        m2, n2 = std.A2.shape
        k = len(L.C[lanes])
        T = np.empty((k, m2, n2 + m2 + 1))
        T[:, :, :n2] = self.body
        T[:, :, n2:-1] = self.binv
        T[:, :, -1] = self.X0[lanes]
        basis = self.cols[None].repeat(k, 0)
        cext = np.zeros((k, n2 + m2))
        cext[:, :std.n] = L.costs[lanes]
        ok, pivots = _lockstep(T, basis, cext, n2, self.tol)
        # one step of refinement against the original B sheds the error
        # B^-1 took on in its pivots
        binv = T[:, :, n2:-1]
        B = std.A2[:, basis].transpose(1, 0, 2)
        cB = cext[np.arange(k)[:, None], basis]
        rhs = L.rhs[lanes]
        xB = _apply(binv, rhs)
        xB += _apply(binv, rhs - _apply(B, xB))
        y = _apply_t(binv, cB)
        y += _apply_t(binv, cB - _apply_t(B, y))
        f = self.factor
        if f is not None and not pivots.all():
            # a basis no pivot changed keeps the start's refined values
            for i in np.flatnonzero(pivots == 0):
                if np.array_equal(rhs[i], f.b):
                    xB[i] = f.xB
                if np.array_equal(cB[i], f.cB):
                    y[i] = f.y
        for a in (T, rhs, xB, cB, y):
            a.setflags(write=False)
        factors = [_Factor(T[i, :, :n2], binv[i], self.pivots + int(pivots[i]),
                           rhs[i], xB[i], cB[i], y[i]) for i in range(k)]
        sols = L.answers(lanes, basis, xB, y, factors)
        return [sol if fit else None for sol, fit in zip(sols, ok)]


def _dots(A, B):
    """A_l . B_l for each row l of A and of B (or of a vector B), each the
    one product `a @ b` a single lane makes."""
    return np.matmul(A[:, None, :], B[..., None])[:, 0, 0]


def _apply(M, v):
    """M_l v_l for each lane l of the stacks M (k x m x m, or one m x m)
    and v (k x m)."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _apply_t(M, v):
    """v_l M_l for each lane l of the stacks M (k x m x m) and v (k x m)."""
    return np.matmul(v[:, None, :], M)[:, 0, :]


def _lockstep(T, basis, cext, n2, tol):
    """Re-optimize in place the lanes of the tableau stack T (k x m x N+1,
    with the columns from n2 on blocked), each from its row of `basis`
    with its row of costs `cext` (N, zero on the blocked columns).  Lanes
    that start primal infeasible run the dual simplex first, always in
    lockstep (`_dual_step`); then all run primal phase 2, one lane by
    `_iterate` and more in lockstep by its rules (`_primal_step`: Dantzig
    pricing and the same tie breaks).  Returns (ok, pivots) per lane.  A
    lane is not ok if it is not dual feasible where it needs the dual
    simplex, finds no entering column there or ends unbounded; and if, in
    lockstep, it stalls past _STALL_LIMIT (where `_iterate` switches to
    Bland's rule) or reaches _MAX_ITER."""
    k = basis.shape[0]
    lanes = np.arange(k)[:, None]
    ok = np.ones(k, dtype=bool)
    pivots = np.zeros(k, dtype=int)
    dual = np.min(T[:, :, -1], axis=1, initial=0.0) < -tol
    if dual.any():
        r = _reduced_costs(T, basis, cext)[:, :n2]
        r[lanes, basis] = 0.0
        ok &= ~dual | (r.min(axis=1, initial=0.0) >= -tol)
        _lockstep_phase(_dual_step, T, basis, cext, dual & ok, ok, pivots,
                        n2, tol)
    if k == 1:
        if ok[0]:
            status, p = _iterate(T[0], basis[0], cext[0],
                                 np.arange(cext.shape[1]) >= n2, tol)
            ok[0] = status == "optimal"
            pivots[0] += p
        return ok, pivots
    _lockstep_phase(_primal_step, T, basis, cext, ok.copy(), ok, pivots, n2,
                    tol)
    return ok, pivots


def _lockstep_phase(step, T, basis, cext, live, ok, pivots, n2, tol):
    """Run `step` until each live lane is optimal (it stops being live) or
    leaves (it is no longer ok either); see `_lockstep`.  Every lane is
    priced at each step, and only the live ones pivot."""
    k = basis.shape[0]
    lanes = np.arange(k)[:, None]
    sign = 1.0 if step is _primal_step else -1.0   # the objective's course
    prev = np.full(k, sign * np.inf)
    stall = np.zeros(k, dtype=int)
    for _ in range(_MAX_ITER):
        if not live.any():
            return
        rows, cols, done, left = step(T, basis, cext, n2, tol)
        ok &= ~(live & left)
        live &= ~(done | left)
        L = np.nonzero(live)[0]
        _pivot_lanes(T, basis, L, rows[L], cols[L])
        pivots[L] += 1
        obj = _dots(cext[lanes, basis], T[:, :, -1])
        flat = sign * obj >= sign * prev - tol * (1.0 + np.abs(obj))
        stall = np.where(live, np.where(flat, stall + 1, 0), stall)
        prev = np.where(live, obj, prev)
        ok &= ~(live & (stall > _STALL_LIMIT))
        live &= ok
    ok &= ~live


def _reduced_costs(T, basis, cext):
    """c - c_B B^-1 A of each lane, over every column but the last."""
    cB = cext[np.arange(basis.shape[0])[:, None], basis]
    return cext - np.matmul(cB[:, None, :], T[:, :, :-1])[:, 0, :]


def _primal_step(T, basis, cext, n2, tol):
    """One primal simplex choice per lane, as in `_iterate`: (rows, cols,
    done, left), done for an optimal lane, left for an unbounded one."""
    k = basis.shape[0]
    lanes = np.arange(k)
    r = _reduced_costs(T, basis, cext)
    r[lanes[:, None], basis] = 0.0
    r[:, n2:] = np.inf
    cols = np.argmin(r, axis=1)
    done = r[lanes, cols] >= -tol
    col = T[lanes, :, cols]
    pos = col > tol
    left = ~pos.any(axis=1)
    ratios = np.full(col.shape, np.inf)
    np.divide(T[:, :, -1], col, out=ratios, where=pos)
    best = ratios.min(axis=1, keepdims=True)
    band = ratios <= best + tol * (1.0 + np.abs(best))
    # leaving tie break: lowest basic-variable index (Bland-compatible)
    rows = np.argmin(np.where(band, basis, np.iinfo(basis.dtype).max),
                     axis=1)
    return rows, cols, done, left & ~done


def _dual_step(T, basis, cext, n2, tol):
    """One dual simplex choice per lane: the leaving row of the most
    negative basic value, and the entering column by the dual ratio test.
    Returns (rows, cols, done, left), done for a primal feasible lane, left
    for one with no entering column."""
    k = basis.shape[0]
    lanes = np.arange(k)
    rows = np.argmin(T[:, :, -1], axis=1)
    done = T[lanes, rows, -1] >= -tol
    a = T[lanes, rows, :-1]
    cand = a < -tol
    cand[lanes[:, None], basis] = False
    cand[:, n2:] = False
    left = ~cand.any(axis=1)
    ratios = np.full(a.shape, np.inf)
    np.divide(np.maximum(_reduced_costs(T, basis, cext), 0.0), -a,
              out=ratios, where=cand)
    best = ratios.min(axis=1, keepdims=True)
    # entering tie break: lowest column index (Bland-compatible)
    cols = np.argmax(cand & (ratios <= best + tol * (1.0 + best)), axis=1)
    return rows, cols, done, left & ~done


def _pivot_lanes(T, basis, L, rows, cols):
    """`_pivot` on each lane L[i] of the stack T at (rows[i], cols[i])."""
    if L.size == 0:
        return
    every = L.size == T.shape[0]
    S = T if every else T[L]
    ar = np.arange(L.size)
    P = S[ar, rows] / S[ar, rows, cols][:, None]
    colv = S[ar, :, cols]
    colv[ar, rows] = 0.0
    S -= colv[:, :, None] * P[:, None, :]
    S[ar, rows] = P
    # kill roundoff in the pivot column
    S[ar, :, cols] = 0.0
    S[ar, rows, cols] = 1.0
    if not every:
        T[L] = S
    basis[L, rows] = cols


@functools.lru_cache(maxsize=64)
def _sense_codes(senses: tuple) -> np.ndarray:
    """+1 on '<=' rows, -1 on '>=' rows, 0 on '=' rows."""
    code = np.array([1.0 if s == LE else -1.0 if s == GE else 0.0
                     for s in senses])
    code.setflags(write=False)
    return code


def _fill_residuals(problem: LpProblem, canon: _Canonical, C, X, Y):
    """The residual check against the original data of `problem`, whose
    constraints have the canonical form `canon`, for a stack of lanes: row
    l of C, X and Y is the objective, the primal point and the row duals of
    lane l.  Returns the primal, dual and gap residuals, one entry per lane
    (complementary slackness follows from the three)."""
    code = canon.codes
    sgn = -1.0 if problem.maximize else 1.0
    Ys = sgn * Y
    R = X @ problem.A.T - problem.b
    pr = np.maximum(_top(np.where(canon.eq_rows, np.abs(R), code * R)),
                    _top(np.maximum(problem.lb - X, X - problem.ub)))
    # reduced costs in min orientation, where the row duals must satisfy
    # y <= 0 on '<=' rows and y >= 0 on '>=' rows
    RC = sgn * C - Ys @ problem.A
    y_sign = _top(code * Ys)
    dual_obj = Ys @ problem.b
    if not canon.has_bounds:
        dr = np.maximum(_top(np.abs(RC)), y_sign)
    else:
        at_lo = canon.lo_finite & (X <= canon.lo_reach)
        at_hi = canon.hi_finite & (X >= canon.hi_reach)
        only_lo = at_lo & ~at_hi
        only_hi = at_hi & ~at_lo
        # a reduced cost of the wrong sign at a bound violates dual
        # feasibility
        at_bound = _top(np.where(only_lo, -RC, np.where(only_hi, RC, 0.0)))
        dr = np.maximum(np.maximum(
            _top(np.where(at_lo | at_hi, 0.0, np.abs(RC))), at_bound), y_sign)
        # a fixed variable takes its whole reduced cost, one at a single
        # bound the part of the sign that bound allows
        dual_obj = dual_obj + (
            canon.lo_f * np.where(at_lo, np.where(
                at_hi, RC, np.maximum(RC, 0.0)), 0.0)
            + canon.hi_f * np.where(only_hi, np.minimum(RC, 0.0), 0.0)
        ).sum(axis=-1)
    gap = np.abs((C * X).sum(axis=-1) - sgn * dual_obj)
    return pr, dr, gap


def _top(v: np.ndarray) -> np.ndarray:
    """The largest entry of each row of v, or 0 if none is larger (NaN
    propagates)."""
    return np.maximum.reduce(v, axis=-1, initial=0.0)
