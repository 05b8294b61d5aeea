"""Self-contained dense linear-programming solver.

Two-phase primal simplex in revised form, keeping B^-1 and x_B, never
B^-1 A.  Dantzig pricing with lowest-index tie breaking; permanent switch
to Bland's rule after a stall threshold, which guarantees termination on
the heavily degenerate transportation problems produced by equilateral
spaces.  Every phase, cold or warm, runs on one kernel, the lockstep lanes
of `_lockstep`; a cold solve is one lane, from the slack/artificial basis.

Problems whose row count dwarfs the variable count (Lipschitz-ball
constraint systems have O(n^2) rows over O(n) variables) are solved through
their dual and the primal optimizer is recovered from the dual solve's own
dual vector.  Every optimal solution is re-verified against the original
data by one residual check (primal feasibility, dual feasibility including
the signs of the row duals, duality gap); a dualized answer that fails it
is solved again on the direct path.

Warm and batched re-solves.  Every optimal solution carries its final
basis (`LpSolution.basis`): its path and basic columns.
`solve(problem, start=basis)`, for a problem with the same constraint
matrix and senses, re-optimizes instead of re-solving, and
`solve_many(problem, objectives, start)` does so for k objectives as k
such calls would.  There is one warm path: the start runs as the lanes of
a batch (`_Batch`), and a warm `solve` is a batch of one lane.  A start's
B is factored from the problem's data once per constraint matrix and
start: the constraints' canonical record keeps the B^-1 of the last start
factored on each path, so a batch from that start factors nothing, and
each lane's last column is B^-1 of its right-hand side.  A lane that
is still primal feasible (only the objective changed) runs primal phase 2
directly; one that is dual feasible (only the right-hand side changed)
runs the dual simplex first.  In the dualized form the two cases swap: a
new objective is a new right-hand side of the dual, so the lanes of one
start share B^-1 and differ in their last column.  There is one dual
simplex and one primal simplex.  The lanes are in revised form: a (k, m,
m+1) stack of [B^-1 | x_B], priced from the fixed A2 of the standard form
and never holding B^-1 A2.  Each phase prices its lanes once, in one
product of their stacked c_B B^-1 against A2, and then carries their
reduced costs: each step computes only the live lanes' entering columns
B^-1 a_j and leaving rows e_r B^-1 A2, each lane takes its own pivot by
its own rule (Dantzig's, or Bland's after a stall) with the same tie
breaks, and the pivot updates the lane's [B^-1 | x_B] and reduced costs
by rank one (the revised simplex of Dantzig & Orchard-Hays, 1954).  The
dual phase ends as soon as every live lane is primal feasible; then every
lane that a reduced cost still prices out runs the primal phase, in
lockstep too.  Each lane refines x_B and y with its final B^-1 and one
correction step against the original B, so a batch makes at most one
factorization; and every lane is mapped back to the problem and
certified by the same code as a cold answer.  A cold answer is refined by
solving its B from the original data instead.

A start seeds no batch if it is of the wrong length or path, has
out-of-range columns or a singular B.  A lane leaves its batch only in
the dual phase, if it is neither primal nor dual feasible or its dual
simplex finds no entering column or passes _MAX_ITER, and at the end if
its primal phase finds it unbounded.  A dual phase that stalls past
_STALL_LIMIT switches to the dual Bland rule (the leaving row is the
lowest-index basic variable below -tol), and a primal phase that stalls
to Bland's rule.  `solve` then solves cold, and so it does a warm
answer that fails the check, before `LpError` names the failed check and
its margin.  A lane of `solve_many` that leaves or fails is solved cold
by `solve` (it would run the same alone), so every answer passes the
thresholds of `solve`.  A start that seeds no batch (none, another path,
or rejected) is handed to `solve` with the first objective, whose basis
seeds the rest.  A block of lanes holds at most _BATCH_CELLS cells (see
`solve_many`); more lanes run in blocks.

A start may also come from an LP with other constraints: its B is
factored from the problem's data all the same.  A dualized start whose
columns are all dual variables of the solved LP's rows also starts an LP
whose constraints extend those by rows and variables: column j of a
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
the residual check, and the B^-1 of the last start factored on each path)
is one record per constraint matrix (`_canonical`).  A problem builds it
on its first solve and shares it with the problems that
`LpProblem.with_objective` and `LpProblem.with_rhs` make from it.  A basis
carries the record of its problem, and a solve started from it over the
same record reuses it.
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
        c = _checked_vector(c, (n,), "objective")
        b = _checked_vector(b, (m,), "right-hand side")
        if not np.isfinite(A).all():
            raise LpError("non-finite entry in the constraint matrix")
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
        if (lb == np.inf).any():
            raise LpError("lower bound +inf")
        if (ub == -np.inf).any():
            raise LpError("upper bound -inf")
        bad = [s for s in senses if s not in _SENSES]
        if bad:
            raise LpError(f"unknown row sense {bad[0]!r}")
        for arr in (A, lb, ub):
            arr.setflags(write=False)
        return LpProblem(c, A, tuple(senses), b, lb, ub, maximize)

    def with_objective(self, c) -> "LpProblem":
        """This problem with objective c.  The constraints are shared, and
        with them their canonical form (see `_canonical`)."""
        return self._sharing(replace(
            self, c=_checked_vector(c, self.c.shape, "objective")))

    def with_rhs(self, b) -> "LpProblem":
        """This problem with right-hand side b; see `with_objective`."""
        return self._sharing(replace(
            self, b=_checked_vector(b, self.b.shape, "right-hand side")))

    def _sharing(self, other: "LpProblem") -> "LpProblem":
        object.__setattr__(other, "_shared", self._shared)
        return other


def _checked_vector(v, shape, name) -> np.ndarray:
    """A read-only copy of v, the `name` of a problem, which must have the
    given shape and finite entries."""
    v = np.array(v, dtype=float)
    if v.shape != shape:
        raise LpError("inconsistent problem dimensions")
    if not np.isfinite(v).all():
        raise LpError(f"non-finite entry in the {name}")
    v.setflags(write=False)
    return v

DIRECT = "direct"
DUALIZED = "dualized"


@dataclass(frozen=True)
class LpBasis:
    """Optimal basis of a solve: the path it took (direct or dualized) and
    the basic columns of that path's standard form.  Opaque to callers.
    It also carries the canonical form of the solved problem's constraints,
    which a solve started from it reuses when its constraints are the
    same; it takes no part in comparisons."""

    path: str
    cols: tuple
    _canonical: "_Canonical | None" = field(default=None, compare=False,
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

def _factor(A2, cols):
    """B^-1 from one factorization of B, the basic columns `cols` (an
    integer array) of A2.  None when cols is malformed, B singular or
    |B^-1 B - I| above _WARM_BASIS_TOL."""
    m, n2 = A2.shape
    if cols.shape != (m,):
        return None
    if m and (cols.min() < 0 or cols.max() >= n2
              or len(set(cols.tolist())) != m):
        return None
    B = A2[:, cols]
    eye = np.eye(m)
    try:
        T = np.linalg.solve(B, np.hstack([B, eye]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(T).all() or \
            np.abs(T[:, :m] - eye).max(initial=0.0) > _WARM_BASIS_TOL:
        return None
    binv = T[:, m:].copy()
    binv.setflags(write=False)
    return binv


@dataclass(frozen=True)
class _StdForm:
    """The constraints A z {<=,=,>=} b, z >= 0 of a standard-form problem
    as [A | slacks]."""

    A2: np.ndarray              # read-only
    slack_of_row: np.ndarray    # slack column per row, -1 on '=' rows
    slack_sign: np.ndarray      # its entry: +1 on '<=', -1 on '>=', 0 on '='
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
    return _StdForm(A2, slack_of_row, code, n)


def _solve_cf(std: _StdForm, c, b, tol):
    """Cold two-phase simplex for min c.z, A z {<=,=,>=} b, z >= 0, as one
    lane of the revised kernel (`_primal_phase`).

    Row i has the sign s_i of b_i (+1 at 0), and its first basic column is
    its slack where that column is s_i e_i, else an artificial column
    s_i e_i: so B^-1 = diag(s) and x_B = s b >= 0.  Phase 1 minimizes the
    sum of the artificials over [A2 | artificials], then pivots each one
    still basic (at 0) out on a column of A2, or drops its row where row
    e_r B^-1 A2 is zero (a redundant row); phase 2 runs over A2.

    Returns (status, basis, xB, y): the optimal basic columns of
    [A | slacks] (fewer than the rows if phase 1 dropped redundant ones)
    and their values, and one dual per row with the min-problem sign
    convention (y <= 0 on '<=' rows, y >= 0 on '>=' rows).
    """
    A2 = std.A2
    m, n2 = A2.shape
    s = np.where(b < 0, -1.0, 1.0)
    own = std.slack_sign * s > 0
    art = (~own).nonzero()[0]
    basis = np.where(own, std.slack_of_row, n2)[None]
    basis[0, art] += np.arange(art.size)
    S = np.zeros((1, m, m + 1))
    S.reshape(-1)[::m + 2] = s      # the diagonal of B^-1
    S[0, :, -1] = s * b
    keep = slice(None)
    ok = np.ones(1, dtype=bool)
    if art.size:
        A1 = np.zeros((m, n2 + art.size))
        A1[:, :n2] = A2
        A1[art, n2 + np.arange(art.size)] = s[art]
        c1 = np.zeros((1, A1.shape[1]))
        c1[0, n2:] = 1.0
        _primal_phase(S, basis, c1, A1, ok, ok, tol)
        if c1[0, basis[0]] @ S[0, :, -1] > 1e-7 * (
                1.0 + abs(b).max(initial=0.0)):
            return "infeasible", None, None, None
        # drive the artificials left at 0 out of the basis
        drop = []
        for i in (basis[0] >= n2).nonzero()[0]:
            cand = np.abs(S[0, i, :-1] @ A1) > tol
            cand[basis[0]] = False
            cand = cand[:n2].nonzero()[0][:1]
            if cand.size:
                _pivot_lanes(S, basis, i, cand,
                             _apply(S[:, :, :-1], A2[:, cand].T))
            else:
                drop.append(i)  # redundant row
        if drop:
            # row i of B^-1 A2 is zero: drop the row of the artificial
            # basic in it, whose column has no other entry, so B^-1 loses
            # its row i and that constraint row's column
            rows = np.arange(m)
            keep = np.delete(rows, art[basis[0, drop] - n2])
            S = S[:, np.delete(rows, drop)][:, :, np.append(keep, m)]
            basis = np.delete(basis, drop, axis=1)
            A2 = A2[keep]
    c2 = np.zeros((1, n2))
    c2[0, :std.n] = c
    _primal_phase(S, basis, c2, A2, ok, ok, tol)
    if not ok[0]:
        return "unbounded", None, None, None
    basis = basis[0]
    # refine from the original data, with the rows of b < 0 negated, to
    # shed the error B^-1 took on in its pivots
    B = A2[:, basis] * s[keep, None]
    cB = c2[0, basis]
    try:
        xB = np.linalg.solve(B, (s * b)[keep])
        yk = np.linalg.solve(B.T, cB) * s[keep]
    except np.linalg.LinAlgError:
        xB = S[0, :, :-1] @ b[keep]
        yk = cB @ S[0, :, :-1]
    y = np.zeros(m)
    y[keep] = yk
    return "optimal", basis, xB, y


# ---------------------------------------------------------------------------
# general solve with canonicalization and optional dualization
# ---------------------------------------------------------------------------

class _Canonical:
    """What a solve derives from the constraints (A, senses, lb, ub) alone:
    the mid form's matrix and variable map (min c.x, each variable either
    free or >= 0, x_orig = sign * x_mid + shift), the standard form of each
    path, built on first use, the bound masks of the residual check, and
    per path the B^-1 of the last start factored (`inverse`).  Solves over
    one constraint matrix build it once (see `_canonical`)."""

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
        self._starts = {}

    def form(self, path):
        """(standard form, column map) of `path`, built on first use."""
        if path not in self._forms:
            build = _dualized_form if path == DUALIZED else _direct_form
            self._forms[path] = build(self)
        return self._forms[path]

    def inverse(self, path, cols):
        """B^-1 of the basic columns `cols` (an integer array) of `path`'s
        standard form, or None for a rejected start (see `_factor`).  The
        answer for the last start asked of each path is kept, so a start
        is factored once however many batches it seeds."""
        key = cols.tobytes()
        kept = self._starts.get(path)
        if kept is None or kept[0] != key:
            kept = self._starts[path] = (
                key, _factor(self.form(path)[0].A2, cols))
        return kept[1]


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

    def answers(self, lanes, basis, xB, y) -> list:
        """The optimal solutions of the lanes in the slice `lanes`, with
        their residuals, from their answers on the standard form: per lane
        (row) the basic columns, x_B and the row duals y.  Basic columns
        short of the rows (phase 1 dropped some) give no basis."""
        canon = self.canon
        std, cmap = canon.form(self.path)
        k, rows = basis.shape
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
            None if rows < std.A2.shape[0] else LpBasis(
                self.path, tuple(basis[i].tolist()), canon))
            for i in range(k)]


def solve(problem: LpProblem, tol: float | None = None,
          start: LpBasis | None = None) -> LpSolution:
    """Solve an LP; optimal solutions carry verified certificates.

    `start` is the `basis` of an earlier solution; the solve re-optimizes
    from it as a batch of one lane (see `solve_many`), from the start's
    B^-1, factored from this problem's data once per constraint matrix
    and start.  The start may come from an LP with other constraints (see
    `_carried_over`).  A start that does not fit, and a warm answer that
    fails its certificate check, are solved cold.  `LpError` names the check that still fails, with its
    margin.
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
    """The certified answer from `start`, run as one lane.  None if the
    start does not fit, the lane leaves the batch, or the answer fails its
    check."""
    batch = _Batch.seed(problem, canon, start, problem.c[None], tol)
    sol = None if batch is None else batch.run(slice(0, 1))[0]
    if sol is None or _failed_check(sol, tol) is not None:
        return None
    return sol


def _solve_cold(problem, canon, tol) -> LpSolution:
    """The two-phase simplex on each path in turn.  A dualized answer that
    fails its check is solved again directly; a dual that is unbounded
    makes the problem infeasible, and one that is infeasible leaves the
    problem to the direct path."""
    for path in _paths(canon):
        lanes = _Lanes.of(problem, canon, path, problem.c[None])
        status, cols, xB, y = _solve_cf(
            canon.form(path)[0], lanes.costs[0], lanes.rhs[0], tol)
        if status == "optimal":
            sol = lanes.answers(slice(0, 1), cols[None], xB[None],
                                y[None])[0]
            if path == DIRECT or _failed_check(sol, tol) is None:
                return sol
        elif path == DIRECT:
            return LpSolution(status)
        elif status == "unbounded":
            return LpSolution("infeasible")


def _carried_over(start: LpBasis, canon: _Canonical) -> LpBasis:
    """`start` as a start over the constraints of `canon`: its columns,
    whose B the warm solve factors from canon's data either way.  A
    dualized start whose columns are all dual variables of the rows it was
    solved over gains the slack of each further dual row, the dual row of
    a variable its LP did not have, and the new B is block triangular over
    the old one.  A further row without a slack (the dual row of a free
    variable) leaves the start a column short, and like any start that
    does not fit, it is rejected."""
    old = start._canonical
    if old is canon:
        return start
    cols = start.cols
    # a start on another path than the solve's first is rejected anyway
    if old is not None and start.path == DUALIZED == _paths(canon)[0] \
            and max(cols, default=-1) < old.n_orig_rows:
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

    The lanes share the canonical form, the start's carried-over columns
    and the B^-1 of their B, factored unless the constraints' record
    holds it already.  A start that cannot seed the lanes (none, another
    path, or rejected) is handed with the first objective to `solve`,
    whose basis seeds the others.  A lane that leaves the
    batch or fails its check, and every lane of a seed that still does not
    fit, is solved cold by `solve`: a lane runs alone as it runs in a
    batch, so a warm retry would repeat it.  So every answer passes the
    thresholds of `solve`.
    """
    C = np.array(objectives, dtype=float)
    if C.shape == (0,):
        C = C.reshape(0, problem.c.size)
    if C.ndim != 2 or C.shape[1] != problem.c.size:
        raise LpError("inconsistent problem dimensions")
    if not np.isfinite(C).all():
        raise LpError("non-finite entry in the objectives")
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
        m2, n2 = batch.lanes.canon.form(batch.lanes.path)[0].A2.shape
        step = max(1, _BATCH_CELLS // (m2 * (m2 + 1) + _WORK_ROWS * n2))
        for lo in range(first, len(C), step):
            block = slice(lo, min(lo + step, len(C)))
            out[block] = [None if sol is None or _failed_check(sol, tol)
                          else sol for sol in batch.run(block)]
    for lane, c in enumerate(C):
        if out[lane] is None:
            out[lane] = solve(problem.with_objective(c), tol)
    return out


#: Cap on the cells of one block of lanes in `solve_many`; more lanes run
#: in blocks of at most this many cells (one lane at least).  A lane takes
#: m (m+1) cells in its stack [B^-1 | x_B] and, while it is priced,
#: answered and checked, up to _WORK_ROWS rows over the N columns of A2.
_BATCH_CELLS = 2 ** 20
_WORK_ROWS = 16


@dataclass(eq=False)
class _Batch:
    """What the lanes of one start share, on the standard form of the path
    the start took: the start's columns and the B^-1 of their B that the
    canonical record keeps; per lane, B^-1 of its right-hand side."""

    lanes: _Lanes
    cols: np.ndarray
    binv: np.ndarray
    X0: np.ndarray
    tol: float

    @staticmethod
    def seed(problem, canon, start, C, tol) -> "_Batch | None":
        """The batch over the objectives C (rows) from `start`, or None
        when the start is not on the path `solve` takes first or does not
        fit."""
        path = _paths(canon)[0]
        if start is None or start.path != path:
            return None
        cols = np.array(start.cols)
        if cols.ndim != 1 or cols.dtype.kind not in "iu":
            return None
        cols = cols.astype(np.intp, copy=False)
        binv = canon.inverse(path, cols)
        if binv is None:
            return None
        lanes = _Lanes.of(problem, canon, path, C)
        return _Batch(lanes, cols, binv, _apply(binv, lanes.rhs), tol)

    def run(self, lanes: slice) -> list:
        """The solutions of the lanes in the slice `lanes`, or None for a
        lane that left; the caller checks them."""
        L = self.lanes
        std = L.canon.form(L.path)[0]
        A2 = std.A2
        m2, n2 = A2.shape
        k = len(L.C[lanes])
        S = np.empty((k, m2, m2 + 1))
        S[:, :, :-1] = self.binv
        S[:, :, -1] = self.X0[lanes]
        basis = self.cols[None].repeat(k, 0)
        costs = np.zeros((k, n2))
        costs[:, :std.n] = L.costs[lanes]
        ok = _lockstep(S, basis, costs, A2, self.tol)
        # one step of refinement against the original B sheds the error
        # B^-1 took on in its pivots
        binv = S[:, :, :-1]
        B = A2[:, basis].transpose(1, 0, 2)
        cB = costs[np.arange(k)[:, None], basis]
        rhs = L.rhs[lanes]
        xB = _apply(binv, rhs)
        xB += _apply(binv, rhs - _apply(B, xB))
        y = _apply_t(binv, cB)
        y += _apply_t(binv, cB - _apply_t(B, y))
        sols = L.answers(lanes, basis, xB, y)
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


def _lockstep(S, basis, costs, A2, tol):
    """Re-optimize in place the lanes of the stack S (k x m x m+1), lane l
    holding [B^-1 | x_B] of its basic columns basis[l] of A2, each with its
    row of `costs` over A2's columns: the lanes that start primal
    infeasible run the dual phase, then the lanes still priced out the
    primal phase.
    Returns ok per lane.  A lane is not ok if it is not dual feasible
    where it needs the dual simplex, finds no entering column there or
    passes _MAX_ITER, or ends unbounded; a primal phase past _MAX_ITER
    raises LpError."""
    ok = np.ones(basis.shape[0], dtype=bool)
    live = ok
    dual = S[:, :, -1].min(axis=1) < -tol
    if np.count_nonzero(dual):
        R = _priced(S, basis, costs, A2)
        ok &= ~dual | (R.min(axis=1, initial=0.0) >= -tol)
        _dual_phase(S, basis, costs, R, A2, dual & ok, ok, tol)
        # only a lane that its carried reduced costs price out goes on
        live = ok & (R.min(axis=1, initial=0.0) < -tol)
    _primal_phase(S, basis, costs, A2, live, ok, tol)
    return ok


def _dual_phase(S, basis, costs, R, A2, live, ok, tol):
    """Run dual simplex steps until each live lane is primal feasible (it
    stops being live) or leaves (it is no longer ok either); see
    `_lockstep`.  R holds the lanes' reduced costs over A2's columns: a
    step computes only the live lanes' leaving rows e_r B^-1 A2, in one
    product against A2, and their entering columns B^-1 a_j, and each
    pivot updates R by rank one.  The leaving row is the most negative
    basic value; a lane whose dual objective stalls past _STALL_LIMIT
    switches for good to the dual Bland rule, leaving from its
    lowest-index basic variable below -tol."""
    k = basis.shape[0]
    lanes = np.arange(k)
    prev = np.full(k, -np.inf)
    stall = np.zeros(k, dtype=int)
    bland = np.zeros(k, dtype=bool)
    for _ in range(_MAX_ITER):
        X = S[:, :, -1]
        rows = np.argmin(X, axis=1)
        live &= X[lanes, rows] < -tol
        L = np.flatnonzero(live)
        if not L.size:
            return
        if bland.any():
            low = np.where(X < -tol, basis, basis.max() + 1).argmin(axis=1)
            rows = np.where(bland, low, rows)
        a = S[L, rows[L], :-1] @ A2
        cols, left = _dual_step(R[L], a, basis[L], tol)
        ok[L[left]] = live[L[left]] = False
        L, cols, a = L[~left], cols[~left], a[~left]
        R[L] -= (R[L, cols] / a[np.arange(L.size), cols])[:, None] * a
        U, BU = S[L], basis[L]
        _pivot_lanes(U, BU, rows[L], cols,
                     _apply(U[:, :, :-1], A2[:, cols].T))
        S[L], basis[L] = U, BU
        R[L[:, None], basis[L]] = 0.0
        # the dual simplex raises the objective; a step that does not is flat
        obj = _dots(costs[lanes[:, None], basis], S[:, :, -1])
        flat = obj <= prev + tol * (1.0 + np.abs(obj))
        stall = np.where(live, np.where(flat, stall + 1, 0), stall)
        prev = np.where(live, obj, prev)
        bland |= live & (stall > _STALL_LIMIT)
    ok &= ~live


def _primal_phase(S, basis, costs, A2, live, ok, tol):
    """Run primal simplex steps on the live lanes until each is optimal or
    unbounded (then it is not ok), pricing them once and carrying their
    reduced costs as `_dual_phase` does.  The entering column has the most
    negative reduced cost, the lowest index on ties (Dantzig's rule), and
    the leaving row passes the ratio test, the lowest basic index on ties;
    a lane whose objective stalls past _STALL_LIMIT switches for good to
    Bland's rule, entering its lowest-index column below -tol.  The lanes
    run on a stack of their own, which a lane leaves when it ends, so a
    step indexes no lane."""
    L = live.nonzero()[0]
    if not (L.size and A2.shape[1]):
        return      # no columns: optimal at once
    W, B, C = (S, basis, costs) if L.size == len(S) else (
        S[L], basis[L], costs[L])
    R = _priced(W, B, C, A2)
    ar = np.arange(L.size)
    obj = _dots(C[ar[:, None], B], W[:, :, -1])
    stall = np.zeros(L.size, dtype=int)
    bland = np.zeros(L.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # `_ratio_test`
        for n in range(_MAX_ITER):
            cols = R.argmin(axis=1)
            # no lane stalls for more steps than the phase has made
            if n > _STALL_LIMIT and np.count_nonzero(bland):
                cols = np.where(bland, np.argmax(R < -tol, axis=1), cols)
            r = R[ar, cols]
            end = r >= -tol
            ended = np.count_nonzero(end)
            if ended:
                if W is not S:
                    S[L[end]], basis[L[end]] = W[end], B[end]
                if ended == L.size:
                    return
                go = ~end
                L, W, B, R, obj, stall, bland, cols, r = (
                    v[go] for v in (L, W, B, R, obj, stall, bland, cols, r))
                ar = ar[:L.size]
            d = _apply(W[:, :, :-1], A2[:, cols].T)
            rows, theta = _ratio_test(d, W[:, :, -1], B, tol)
            left = theta == np.inf
            if np.count_nonzero(left):
                # unbounded: the lane ends at the next step
                ok[L[left]] = False
                R[left] = 0.0
                continue
            P = _pivot_lanes(W, B, rows, cols, d)
            # P[:-1] = e_r B^-1 / d_r, the leaving row's new row of B^-1
            R -= r[:, None] * (P[:, :-1] @ A2)
            R[ar[:, None], B] = 0.0
            # the step lowers the objective by -r theta; one that lowers it
            # by no more than tol (1 + |obj|) is flat
            step = r * theta
            obj += step
            stall += 1
            stall *= step >= -tol * (1.0 + np.abs(obj))
            if n >= _STALL_LIMIT:
                bland |= stall > _STALL_LIMIT
    raise LpError("simplex iteration limit exceeded")


def _priced(S, basis, costs, A2):
    """The reduced costs c - c_B B^-1 A2 of each lane of S, 0 on its basic
    columns: one product of the stacked c_B B^-1 against A2."""
    lanes = np.arange(basis.shape[0])[:, None]
    R = costs - _apply_t(S[:, :, :-1], costs[lanes, basis]) @ A2
    R[lanes, basis] = 0.0
    return R


def _dual_step(R, a, basis, tol):
    """The dual simplex's entering column of each lane, by the dual ratio
    test over its reduced costs R[l] and leaving row a[l] of B^-1 A2.
    Returns (cols, left), left for a lane with no entering column."""
    cand = a < -tol
    cand[np.arange(len(a))[:, None], basis] = False
    ratios = np.full(a.shape, np.inf)
    np.divide(np.maximum(R, 0.0), -a, out=ratios, where=cand)
    best = ratios.min(axis=1, keepdims=True)
    # entering tie break: lowest column index (Bland-compatible)
    cols = np.argmax(cand & (ratios <= best + tol * (1.0 + best)), axis=1)
    return cols, ~cand.any(axis=1)


def _ratio_test(d, X, basis, tol):
    """The primal simplex's leaving row of each lane, by the ratio test
    over its entering column d[l] = B^-1 a_j and basic values X[l]; run it
    with numpy's divide and invalid warnings off.  Returns (rows, theta):
    theta[l] is the least ratio, inf for a lane unbounded along d[l]."""
    ratios = X / d
    ratios[d <= tol] = np.inf
    theta = np.minimum.reduce(ratios, axis=1, initial=np.inf)
    tied = ratios <= (theta + tol * (1.0 + np.abs(theta)))[:, None]
    # leaving tie break: lowest basic-variable index (Bland-compatible)
    rows = np.where(tied, basis, np.inf).argmin(axis=1) if d.shape[1] \
        else np.zeros(len(d), dtype=int)
    return rows, theta


def _pivot_lanes(S, basis, rows, cols, d):
    """Pivot each lane l of the stack S in place at its row rows[l] on
    column cols[l], whose entering column B^-1 a_j is d[l]: the rank-one
    update of [B^-1 | x_B].  Returns the lanes' new pivot rows."""
    k, m = basis.shape
    ar = np.arange(k)
    at = rows + m * ar      # the pivot rows, counted over the whole stack
    P = S.reshape(k * m, m + 1).take(at, axis=0) / d.take(at)[:, None]
    S -= d[:, :, None] * P[:, None, :]
    S[ar, rows] = P
    basis.put(at, cols)
    return P


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
