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

Batched re-solves.  `solve_many(problem, objectives, start)` re-optimizes
k objectives over one constraint set from one start, as k calls of
`solve(problem.with_objective(c), start=start)` would.  The lanes share
what does not depend on the objective: the canonical form, the carried-over
start, and the start's tableau or one factorization of its B.  On the
dualized path an objective is the dual's right-hand side, so one product
B^-1 [b_1 ... b_k] gives every lane its last column, and the lanes run the
dual simplex and then primal phase 2; on the direct path they share b and
run primal phase 2 with their own costs.  Each lockstep step prices every
lane of a (k, m, N+1) stack of tableaux at once, and each lane takes its
own pivot by Dantzig's rule with the tie breaks of a single solve.  The
refinement against the original B and the residual check then run over all
lanes in one pass.  A lane leaves the batch where a single solve would do
something else: where it would switch to Bland's rule, ends unbounded or
infeasible, or its dual simplex finds no entering column, and where its
answer fails the check.  It is then solved by `solve` from the same start,
so every answer passes the thresholds of `solve`.  A start that cannot
seed the lanes (none, another path, or one `solve` would reject) is handed
to `solve` with the first objective, whose basis seeds the rest.  The
stack holds at most _BATCH_CELLS cells; more lanes run in blocks.

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


def _start_tableau(A2, rhs, cols, factor=None):
    """[B^-1 A2 | B^-1 | B^-1 rhs] for the basic columns `cols` of A2 and
    the right-hand sides that are the columns of rhs, with the pivots B^-1
    has taken since B was factored from the data: from the carried
    `factor` when one is given (only B^-1 rhs is computed), else from one
    factorization of B.  Returns (T, pivots), or None when cols is
    malformed or B singular."""
    m, n2 = A2.shape
    cols = np.asarray(cols)
    if cols.shape != (m,) or cols.dtype.kind not in "iu":
        return None
    if m and (cols.min() < 0 or cols.max() >= n2
              or np.unique(cols).size != m):
        return None
    if factor is not None:
        return (np.hstack([factor.body, factor.binv, factor.binv @ rhs]),
                factor.pivots)
    eye = np.eye(m)
    try:
        T = np.linalg.solve(A2[:, cols], np.hstack([A2, eye, rhs]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(T).all() or \
            np.abs(T[:, cols] - eye).max(initial=0.0) > _WARM_BASIS_TOL:
        return None
    T[:, cols] = eye
    return T, 0


def _warm_start(A2, b, cvec, start, tol, factor=None):
    """Re-optimize from the basic columns `start` of [A2 | b].

    The working tableau is [B^-1 A2 | B^-1 | B^-1 b] of `_start_tableau`,
    with the B^-1 columns blocked.  A primal-feasible start goes straight
    to phase 2; a dual-feasible one runs the dual simplex first.  Returns
    the optimal (T, basis, pivots), pivots counted since B was factored, or
    None when the start is malformed, singular, neither primal nor dual
    feasible, or does not lead to an optimum; the caller then solves cold.
    """
    n2 = A2.shape[1]
    seeded = _start_tableau(A2, b[:, None], start, factor)
    if seeded is None:
        return None
    T, pivots = seeded
    basis = np.asarray(start).astype(int)
    m = basis.size
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
    residuals = _fill_residuals(problem, canon, problem.c, x_orig, y_orig)
    return LpSolution("optimal", value, x_orig, y_orig,
                      *(float(r) for r in residuals), basis)


def _margins(value, primal, dual, gap, tol):
    """(name, threshold - residual) of each check an optimal solution must
    pass; a negative or NaN margin fails.  Works on floats and on arrays
    of lanes alike."""
    return (("primal_residual", tol - primal), ("dual_residual", tol - dual),
            ("gap", tol * (1.0 + abs(value)) - gap))


def _failed_check(sol: LpSolution, tol):
    """The first residual check an optimal solution fails, as (name,
    margin) with margin = threshold - residual < 0 (NaN fails), or None.
    Only optimal solutions carry residuals."""
    if sol.status != "optimal":
        return None
    for name, margin in _margins(sol.value, sol.primal_residual,
                                 sol.dual_residual, sol.gap, tol):
        if not margin >= 0.0:
            return name, margin
    return None


def _passes(sol: LpSolution, tol) -> bool:
    """Whether sol passes the LpError thresholds."""
    return _failed_check(sol, tol) is None


# ---------------------------------------------------------------------------
# batched re-solves: many objectives over one constraint set
# ---------------------------------------------------------------------------

def solve_many(problem: LpProblem, objectives,
               start: LpBasis | None = None) -> list[LpSolution]:
    """Solve `problem` once per row c of `objectives`, as
    `solve(problem.with_objective(c), start=start)` would, in lockstep.

    The lanes share the canonical form, the start's tableau or one
    factorization of its B, and the right-hand sides B^-1 [b_1 ... b_k]
    from one product; each lane then pivots by the rules of `solve` in a
    stack of tableaux, and one refinement and one residual check run over
    all lanes.  A start that cannot seed the lanes (none, another path, or
    rejected) is handed with the first objective to `solve`, whose basis
    seeds the others.  A lane that would switch to Bland's rule, ends
    unbounded or infeasible, or fails its check, and every lane of a seed
    that still does not fit, is solved by `solve` from the seed; so every
    answer passes the thresholds of `solve`.
    """
    C = np.array(objectives, dtype=float)
    if C.size == 0:
        C = C.reshape(0, problem.c.size)
    if C.ndim != 2 or C.shape[1] != problem.c.size:
        raise LpError("inconsistent problem dimensions")
    if np.isnan(C).any():
        raise LpError("NaN in problem data")
    tol = lp_tol()
    canon = None if start is None else start._canonical
    if canon is None or not canon.matches(problem):
        old, canon = canon, _Canonical(problem)
        if start is not None:
            start = _carried_over(start, old, canon)
    out = [None] * len(C)
    lanes = np.arange(len(C))
    batch = _Batch.seed(problem, canon, start, C, tol)
    if batch is None and lanes.size:
        out[0] = solve(problem.with_objective(C[0]), tol, start)
        start, lanes = out[0].basis, lanes[1:]
        batch = _Batch.seed(problem, canon, start, C, tol)
    if batch is not None and lanes.size:
        m2, cols = batch.T0.shape
        step = max(1, _BATCH_CELLS // (m2 * (cols + 1)))
        for lo in range(0, lanes.size, step):
            block = lanes[lo:lo + step]
            for lane, sol in zip(block, batch.run(block)):
                out[lane] = sol
    for lane in lanes:
        if out[lane] is None:
            out[lane] = solve(problem.with_objective(C[lane]), tol, start)
    return out


#: Cap on the cells of one stack of lane tableaux in `solve_many`; more
#: lanes run in blocks of at most this many cells (one lane at least).
_BATCH_CELLS = 2 ** 20


@dataclass(eq=False)
class _Batch:
    """The work `solve_many` shares between its lanes, on the standard form
    `std` of the path the start took: the start's tableau [B^-1 A2 | B^-1]
    (T0) and basis, and per objective (one row each) the costs and the
    right-hand side in that form, B^-1 of that right-hand side (X0), the
    mid-form objective and the constant it drops."""

    problem: LpProblem
    canon: _Canonical
    path: str
    std: _StdForm
    cmap: tuple | np.ndarray    # the column map of canon.form(path)
    T0: np.ndarray
    basis: np.ndarray
    pivots: int                 # taken by T0 since B was factored
    costs: np.ndarray
    rhs: np.ndarray
    X0: np.ndarray
    Cmid: np.ndarray
    const: np.ndarray
    C: np.ndarray
    tol: float

    @staticmethod
    def seed(problem, canon, start, C, tol):
        """The batch over the objectives C from `start`, or None when the
        start is not on the path `solve` takes first or does not fit."""
        m, n = canon.A.shape
        path = DUALIZED if m > 2 * n + 20 else DIRECT
        if start is None or start.path != path:
            return None
        # the mid form of every objective: min c.x, x = sign x_mid + shift
        Cmin = -C if problem.maximize else C
        Cmid = Cmin * canon.sign
        b_mid = _to_midform(problem, canon).b
        std, cmap = canon.form(path)
        k = len(C)
        if path == DUALIZED:
            # a new objective is a new right-hand side of the dual
            col_sgn, free_u = cmap
            d_c = -(b_mid * col_sgn)
            costs = np.broadcast_to(np.concatenate([d_c, -d_c[free_u]]),
                                    (k, std.n))
            rhs = Cmid
        else:
            costs = np.hstack([Cmid, -Cmid[:, cmap]])
            rhs = np.broadcast_to(b_mid, (k, b_mid.size))
        factor = start._factor
        if factor is not None and factor.pivots > _REFACTOR_PIVOTS:
            factor = None
        # one factorization, or product, for every distinct right-hand side
        distinct = rhs if path == DUALIZED else rhs[:1]
        seeded = _start_tableau(std.A2, distinct.T, start.cols, factor)
        if seeded is None:
            return None
        T, pivots = seeded
        cut = std.A2.shape[1] + std.A2.shape[0]
        X0 = np.broadcast_to(T[:, cut:].T, rhs.shape)
        return _Batch(problem, canon, path, std, cmap, T[:, :cut],
                      np.array(start.cols), pivots, costs, rhs, X0, Cmid,
                      Cmin @ canon.shift, C, tol)

    def run(self, lanes):
        """The solutions of the given lanes; None for a lane that left."""
        k = lanes.size
        A2, canon, std = self.std.A2, self.canon, self.std
        m2, n2 = A2.shape
        T = np.empty((k, m2, n2 + m2 + 1))
        T[:, :, :-1] = self.T0
        T[:, :, -1] = self.X0[lanes]
        basis = np.tile(self.basis, (k, 1))
        cext = np.zeros((k, n2 + m2))
        cext[:, :std.n] = self.costs[lanes]
        rhs = self.rhs[lanes]
        ok, pivots = _lockstep(T, basis, cext, n2, self.tol)
        # refine x_B and y with the final B^-1 and one correction step
        # against the original B, as a warm `solve` does
        binv = T[:, :, n2:-1]
        B = A2[:, basis].transpose(1, 0, 2)
        rows = np.arange(k)[:, None]
        cB = cext[rows, basis]
        xB = _apply(binv, rhs)
        xB += _apply(binv, rhs - _apply(B, xB))
        y = _apply_t(binv, cB)
        y += _apply_t(binv, cB - _apply_t(B, y))
        z = np.zeros((k, n2))
        z[rows, basis] = xB
        # back to the mid form, as `_solve_mid_dual` and `_solve_mid_direct`
        if self.path == DUALIZED:
            col_sgn, free_u = self.cmap
            m = canon.A.shape[0]
            u = z[:, :m]
            u[:, free_u] -= z[:, m:std.n]
            X, Y = -y, col_sgn * u
        else:
            n = canon.A.shape[1]
            X, Y = z[:, :n], y
            X[:, self.cmap] -= z[:, n:std.n]
        value = (self.Cmid[lanes] * X).sum(axis=1) + self.const[lanes]
        # and to the original coordinates, as `_solution`
        X = canon.sign * X + canon.shift
        Y = Y[:, :canon.n_orig_rows]
        if self.problem.maximize:
            value, Y = -value, -Y
        pr, dr, gap, cs = _fill_residuals(self.problem, canon,
                                          self.C[lanes], X, Y)
        for _, margin in _margins(value, pr, dr, gap, self.tol):
            ok &= margin >= 0.0
        # each lane's basis carries its tableau, like a `solve` answer's
        for a in (T, rhs, xB, cB, y):
            a.setflags(write=False)
        pivots += self.pivots
        out = []
        for i in range(k):
            if not ok[i]:
                out.append(None)
                continue
            factor = _Factor(T[i, :, :n2], binv[i], int(pivots[i]), rhs[i],
                             xB[i], cB[i], y[i])
            out.append(LpSolution(
                "optimal", float(value[i]), X[i], Y[i], float(pr[i]),
                float(dr[i]), float(gap[i]), float(cs[i]),
                LpBasis(self.path, tuple(basis[i].tolist()), canon, factor)))
        return out


def _apply(M, v):
    """M_l v_l for each lane l of the stacks M (k x m x m) and v (k x m)."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _apply_t(M, v):
    """v_l M_l for each lane l of the stacks M (k x m x m) and v (k x m)."""
    return np.matmul(v[:, None, :], M)[:, 0, :]


def _lockstep(T, basis, cext, n2, tol):
    """Re-optimize in lockstep and in place the lanes of the tableau stack
    T (k x m x N+1, with the columns from n2 on blocked), each from its row
    of `basis` with its row of costs `cext` (N, zero on the blocked
    columns).  Lanes that start primal infeasible run the dual simplex
    first, then all run primal phase 2; each lane picks its own pivots by
    the rules of `_dual_iterate` and `_iterate` (Dantzig pricing and their
    tie breaks).  Returns (ok, pivots) per lane.  A lane is not ok if it is
    not dual feasible where it needs the dual simplex, finds no entering
    column there, ends unbounded, stalls past _STALL_LIMIT (where a single
    solve switches to Bland's rule) or reaches _MAX_ITER."""
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
        obj = (cext[lanes, basis] * T[:, :, -1]).sum(axis=1)
        flat = sign * obj >= sign * prev - tol * (1.0 + np.abs(obj))
        stall = np.where(live, np.where(flat, stall + 1, 0), stall)
        prev = np.where(live, obj, prev)
        ok &= ~(live & (stall > _STALL_LIMIT))
        live &= ok
    ok &= ~live


def _reduced_costs(T, basis, cext):
    """c - c_B B^-1 A of each lane, over every column but the last."""
    cB = cext[np.arange(basis.shape[0])[:, None], basis]
    return cext - np.matmul(cB[:, None, :], T)[:, 0, :-1]


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
    """One dual simplex choice per lane, as in `_dual_iterate`: (rows, cols,
    done, left), done for a primal feasible lane, left for one with no
    entering column."""
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
    lane l.  Returns the primal, dual, gap and complementary-slackness
    residuals, one entry per lane.  Vectors C, X and Y are one lane, whose
    residuals are 0-d arrays."""
    code = canon.codes
    sgn = -1.0 if problem.maximize else 1.0
    Ys = sgn * Y
    R = X @ problem.A.T - problem.b
    pr = np.maximum(_top(np.where(canon.eq_rows, np.abs(R), code * R)),
                    _top(np.maximum(problem.lb - X, X - problem.ub)))
    cs = _top(np.abs(Y * R))
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
        # a reduced cost of the wrong sign at a bound violates both dual
        # feasibility and complementary slackness
        at_bound = _top(np.where(only_lo, -RC, np.where(only_hi, RC, 0.0)))
        dr = np.maximum(np.maximum(
            _top(np.where(at_lo | at_hi, 0.0, np.abs(RC))), at_bound), y_sign)
        cs = np.maximum(cs, at_bound)
        # a fixed variable takes its whole reduced cost, one at a single
        # bound the part of the sign that bound allows
        dual_obj = dual_obj + (
            canon.lo_f * np.where(at_lo, np.where(
                at_hi, RC, np.maximum(RC, 0.0)), 0.0)
            + canon.hi_f * np.where(only_hi, np.minimum(RC, 0.0), 0.0)
        ).sum(axis=-1)
    gap = np.abs((C * X).sum(axis=-1) - sgn * dual_obj)
    return pr, dr, gap, cs


def _top(v: np.ndarray) -> np.ndarray:
    """The largest entry of each row of v, or 0 if none is larger (NaN
    propagates)."""
    return np.maximum.reduce(v, axis=-1, initial=0.0)
