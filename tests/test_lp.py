import re

import numpy as np
import pytest
from scipy.optimize import linprog

import freegeo.lp as lp_module
from freegeo.lp import EQ, GE, LE, LpBasis, LpError, LpProblem, solve
from conftest import record_warm_solves


def test_single_variable_max():
    p = LpProblem.build(c=[1.0], A=[[1.0]], senses=[LE], b=[3.0],
                        lb=[0.0], maximize=True)
    s = solve(p)
    assert s.status == "optimal"
    assert s.value == pytest.approx(3.0, abs=1e-9)
    assert s.x[0] == pytest.approx(3.0, abs=1e-9)


def test_single_route_transport():
    # move mass 1 from a to b at cost 2
    p = LpProblem.build(c=[2.0], A=[[1.0]], senses=[EQ], b=[1.0], lb=[0.0])
    s = solve(p)
    assert s.value == pytest.approx(2.0, abs=1e-9)


def test_infeasible():
    p = LpProblem.build(c=[1.0], A=[[1.0], [1.0]], senses=[LE, GE],
                        b=[1.0, 2.0])
    assert solve(p).status == "infeasible"


def test_unbounded():
    p = LpProblem.build(c=[1.0], A=[[1.0]], senses=[GE], b=[0.0],
                        maximize=True)
    assert solve(p).status == "unbounded"


def test_nan_rejected():
    with pytest.raises(LpError):
        LpProblem.build(c=[np.nan], A=[[1.0]], senses=[LE], b=[1.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(LpError):
        LpProblem.build(c=[1.0, 2.0], A=[[1.0]], senses=[LE], b=[1.0])


def _random_problem(rng, n, m, with_eq=False, bounded=True):
    A = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n)
    b = A @ x_feas + np.abs(rng.normal(size=m))
    senses = [LE] * m
    if with_eq:
        senses[0] = EQ
        b[0] = A[0] @ x_feas
    c = rng.normal(size=n)
    lb = np.where(rng.random(n) < 0.5, 0.0, -np.inf)
    if bounded:
        # keep the region bounded: box everything loosely
        lb = np.maximum(lb, -50.0)
        ub = np.full(n, 50.0)
    else:
        ub = np.full(n, np.inf)
    return LpProblem.build(c, A, senses, b, lb, ub)


def _scipy_solve(p):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(p.senses):
        if s == LE:
            A_ub.append(p.A[i]); b_ub.append(p.b[i])
        elif s == GE:
            A_ub.append(-p.A[i]); b_ub.append(-p.b[i])
        else:
            A_eq.append(p.A[i]); b_eq.append(p.b[i])
    c = -p.c if p.maximize else p.c
    res = linprog(c, A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=list(zip(p.lb, p.ub)), method="highs")
    return res


@pytest.mark.parametrize("seed", range(30))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(2, 12))
    p = _random_problem(rng, n, m, with_eq=bool(seed % 3 == 0))
    s = solve(p)
    ref = _scipy_solve(p)
    if ref.status == 0:
        assert s.status == "optimal"
        assert s.value == pytest.approx(ref.fun * (-1 if p.maximize else 1),
                                        abs=1e-7, rel=1e-7)
        assert s.gap <= 1e-9 * (1 + abs(s.value))
    elif ref.status == 2:
        assert s.status == "infeasible"
    elif ref.status == 3:
        assert s.status == "unbounded"


@pytest.mark.parametrize("seed", range(12))
def test_dualized_path_matches_direct(seed):
    # many rows over few variables forces the dualized route
    rng = np.random.default_rng(1000 + seed)
    n = 4
    m = 60
    A = rng.normal(size=(m, n))
    b = np.abs(rng.normal(size=m)) + 0.5
    c = rng.normal(size=n)
    p = LpProblem.build(c, A, [LE] * m, b, maximize=True)
    s = solve(p)
    ref = _scipy_solve(p)
    if ref.status == 0:
        assert s.status == "optimal"
        assert s.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
    elif ref.status == 3:
        assert s.status == "unbounded"


def test_degenerate_transportation_terminates():
    # equilateral space: every route costs 1, massively degenerate
    n = 8
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng = np.random.default_rng(7)
    masses = rng.normal(size=n)
    masses -= masses.mean()
    A = np.zeros((n - 1, len(arcs)))
    for k, (i, j) in enumerate(arcs):
        if i > 0:
            A[i - 1, k] += 1.0
        if j > 0:
            A[j - 1, k] -= 1.0
    c = np.ones(len(arcs))
    p = LpProblem.build(c, A, [EQ] * (n - 1), masses[1:],
                        lb=np.zeros(len(arcs)))
    s = solve(p)
    assert s.status == "optimal"
    ref = _scipy_solve(p)
    assert s.value == pytest.approx(ref.fun, abs=1e-8)


def test_duality_certificate_fields():
    rng = np.random.default_rng(3)
    p = _random_problem(rng, 5, 6)
    s = solve(p)
    assert s.status == "optimal"
    assert s.primal_residual <= 1e-9
    assert s.dual_residual <= 1e-9
    assert s.gap <= 1e-9 * (1 + abs(s.value))


def test_deterministic():
    rng = np.random.default_rng(11)
    p = _random_problem(rng, 6, 8)
    s1 = solve(p)
    s2 = solve(p)
    assert np.array_equal(s1.x, s2.x)
    assert s1.value == s2.value



# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------

def _dualized_data(rng, n=5, m=60):
    """Many '<=' rows over few free variables (m > 2n + 20, the shape that
    takes the dualized path); a box of rows keeps the region bounded."""
    A = np.vstack([rng.normal(size=(m - 2 * n, n)), np.eye(n), -np.eye(n)])
    b = np.abs(rng.normal(size=m)) + 0.5
    b[-2 * n:] = 10.0
    return rng.normal(size=n), A, b


def _max_problem(c, A, b):
    return LpProblem.build(c, A, [LE] * len(b), b, maximize=True)


def _assert_certified(s, tol=1e-9):
    assert s.status == "optimal"
    assert s.primal_residual <= tol
    assert s.dual_residual <= tol
    assert s.gap <= tol * (1 + abs(s.value))


def _recorder(monkeypatch, name, outcome):
    """Wraps lp.<name> and lists outcome(result) for every call."""
    seen = []
    original = getattr(lp_module, name)

    def recording(*args):
        out = original(*args)
        seen.append(outcome(out))
        return out

    monkeypatch.setattr(lp_module, name, recording)
    return seen


@pytest.fixture
def warm_solves(monkeypatch):
    """Per seed of a warm-started solve, (A2, b, cols, accepted): whether
    the start gave the answer; see `record_warm_solves`."""
    return record_warm_solves(monkeypatch)


@pytest.fixture
def dual_outcomes(monkeypatch):
    """The exit of every lane of every dual simplex phase: "optimal", "no
    entering column" or "stalled" (past _MAX_ITER; a stall past
    _STALL_LIMIT switches the lane to the dual Bland rule instead)."""
    seen = []
    original = lp_module._dual_phase

    def recording(S, basis, costs, R, A2, live, ok, tol):
        entered = np.flatnonzero(live)
        original(S, basis, costs, R, A2, live, ok, tol)
        for i in entered:
            if ok[i]:
                seen.append("optimal")
                continue
            # a lane that left with no entering column still has a
            # leaving row without one
            rows = np.flatnonzero(S[i, :, -1] < -tol)
            a = S[i, rows, :-1] @ A2
            left = lp_module._dual_step(R[[i] * rows.size], a,
                                        basis[[i] * rows.size], tol)[1]
            seen.append("no entering column" if left.any() else "stalled")

    monkeypatch.setattr(lp_module, "_dual_phase", recording)
    return seen


@pytest.fixture
def factorizations(monkeypatch):
    """A counter of np.linalg solves and inverses."""
    count = [0]
    for name in ("solve", "inv"):
        def counting(*args, _original=getattr(np.linalg, name), **kwargs):
            count[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return count


def _assert_matches_cold(problem, start):
    warm = solve(problem, start=start)
    cold = solve(problem)
    _assert_certified(warm)
    assert warm.value == pytest.approx(cold.value, abs=1e-9, rel=1e-9)
    assert np.allclose(warm.x, cold.x, atol=1e-7)
    return warm


@pytest.mark.parametrize("seed", range(8))
def test_warm_start_after_objective_change(seed, warm_solves):
    rng = np.random.default_rng(2000 + seed)
    c, A, b = _dualized_data(rng)
    first = solve(_max_problem(c, A, b))
    assert first.basis is not None and first.basis.path == "dualized"
    start = first.basis
    for _ in range(4):
        start = _assert_matches_cold(
            _max_problem(rng.normal(size=c.size), A, b), start).basis
    assert warm_solves and all(c[3] for c in warm_solves)


@pytest.mark.parametrize("seed", range(8))
def test_warm_start_after_rhs_change(seed, warm_solves):
    rng = np.random.default_rng(3000 + seed)
    c, A, b = _dualized_data(rng)
    start = solve(_max_problem(c, A, b)).basis
    for _ in range(4):
        b2 = b.copy()
        b2[:-2 * c.size] = np.abs(rng.normal(size=b.size - 2 * c.size)) + 0.5
        start = _assert_matches_cold(_max_problem(c, A, b2), start).basis
    assert warm_solves and all(c[3] for c in warm_solves)


def test_warm_start_equality_rows_and_bounds():
    # '=' and '>=' rows and bounded variables go through the same warm path
    rng = np.random.default_rng(41)
    n, m = 4, 40
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    b = A @ x0 + np.abs(rng.normal(size=m))
    senses = [LE] * m
    senses[0], b[0] = EQ, A[0] @ x0
    senses[1], A[1], b[1] = GE, -A[1], -b[1]
    lb, ub = np.full(n, -5.0), np.full(n, 5.0)
    first = solve(LpProblem.build(rng.normal(size=n), A, senses, b, lb, ub))
    for _ in range(3):
        p = LpProblem.build(rng.normal(size=n), A, senses, b, lb, ub)
        _assert_matches_cold(p, first.basis)


def test_solution_basis_is_reusable_on_same_problem(warm_solves,
                                                    factorizations):
    rng = np.random.default_rng(5)
    p = _max_problem(*_dualized_data(rng))
    first = solve(p)
    count = factorizations[0]
    again = solve(p, start=first.basis)
    assert [c[3] for c in warm_solves] == [True]
    # the start is optimal as it is: its B is factored once and kept
    assert factorizations[0] == count + 1
    assert again.basis == first.basis
    _assert_certified(again)
    assert abs(again.value - first.value) <= 1e-12
    assert np.max(np.abs(again.x - first.x)) <= 1e-12
    assert np.max(np.abs(again.y - first.y)) <= 1e-12


def _bad_starts(rng, c, A, b):
    good = solve(_max_problem(c, A, b)).basis
    # rows 0 and 1 are identical, so their dual columns are too
    singular = (0, 1) + tuple(j for j in good.cols if j > 1)[:len(good.cols)
                                                             - 2]
    c2, A2, b2 = _dualized_data(np.random.default_rng(999))
    other = solve(_max_problem(c2, A2, b2)).basis
    return {
        "wrong_length": LpBasis(good.path, good.cols[:-1]),
        "out_of_range": LpBasis(good.path, (10 ** 6,) + good.cols[1:]),
        "negative": LpBasis(good.path, (-1,) + good.cols[1:]),
        "duplicate": LpBasis(good.path, (good.cols[0],) * len(good.cols)),
        "singular": LpBasis(good.path, singular),
        "other_problem": other,
        "wrong_path": LpBasis("direct", good.cols),
        "not_integers": LpBasis(good.path, tuple(float(j)
                                                 for j in good.cols)),
    }


@pytest.mark.parametrize("kind", ["wrong_length", "out_of_range", "negative",
                                  "duplicate", "singular", "other_problem",
                                  "wrong_path", "not_integers"])
def test_bad_start_falls_back(kind):
    rng = np.random.default_rng(77)
    c, A, b = _dualized_data(rng)
    A[1] = A[0]
    start = _bad_starts(rng, c, A, b)[kind]
    p = _max_problem(rng.normal(size=c.size), A, b)
    _assert_matches_cold(p, start)


def test_singular_start_is_rejected():
    rng = np.random.default_rng(77)
    c, A, b = _dualized_data(rng)
    A[1] = A[0]
    start = _bad_starts(rng, c, A, b)["singular"]
    p = _max_problem(c, A, b)
    canon = lp_module._canonical(p)
    start = lp_module._carried_over(start, canon)
    assert lp_module._Batch.seed(p, canon, start, p.c[None], 1e-9) is None


def test_dual_simplex_without_entering_column_falls_back(dual_outcomes):
    # direct path: x <= 1, -x <= 0 becomes x <= 1, x >= 2 (infeasible)
    A = np.array([[1.0], [-1.0]])
    first = solve(LpProblem.build([1.0], A, [LE] * 2, [1.0, 0.0],
                                  maximize=True))
    p = LpProblem.build([1.0], A, [LE] * 2, [1.0, -2.0], maximize=True)
    assert solve(p, start=first.basis).status == "infeasible"
    # dualized path: max x over x <= 1 becomes max -x (unbounded); the new
    # objective is a new right-hand side of the dual
    A = np.array([[1.0]] + [[0.0]] * 30)
    b = np.ones(31)
    first = solve(LpProblem.build([1.0], A, [LE] * 31, b, maximize=True))
    assert first.basis.path == "dualized"
    p = LpProblem.build([-1.0], A, [LE] * 31, b, maximize=True)
    assert solve(p, start=first.basis).status == "unbounded"
    assert solve(p).status == "unbounded"
    assert dual_outcomes == ["no entering column"] * 2


def _loop_residuals(problem, x, y):
    """Per-row and per-variable loop form of the residual check, kept as
    the reference for the vectorized `_fill_residuals`."""
    r = problem.A @ x - problem.b
    sgn = -1.0 if problem.maximize else 1.0
    pr = dr = 0.0
    for i, s in enumerate(problem.senses):
        pr = max(pr, r[i] if s == LE else -r[i] if s == GE else abs(r[i]))
        # min orientation: y <= 0 on '<=' rows, y >= 0 on '>=' rows
        dr = max(dr, sgn * y[i] if s == LE else -sgn * y[i] if s == GE
                 else 0.0)
    pr = max(pr, float(np.max(problem.lb - x, initial=0.0)))
    pr = max(pr, float(np.max(x - problem.ub, initial=0.0)))
    rc = sgn * problem.c - problem.A.T @ (sgn * y)
    dual_obj = float(problem.b @ (sgn * y))
    for j in range(x.size):
        lo, hi = problem.lb[j], problem.ub[j]
        at_lo = not np.isinf(lo) and x[j] <= lo + 1e-7 * (1 + abs(lo))
        at_hi = not np.isinf(hi) and x[j] >= hi - 1e-7 * (1 + abs(hi))
        if at_lo and at_hi:
            dual_obj += lo * rc[j]
        elif at_lo:
            dr = max(dr, -rc[j])
            dual_obj += lo * max(rc[j], 0.0)
        elif at_hi:
            dr = max(dr, rc[j])
            dual_obj += hi * min(rc[j], 0.0)
        else:
            dr = max(dr, abs(rc[j]))
    gap = abs(float(problem.c @ x) - sgn * dual_obj)
    return pr, dr, gap


def _check_residuals_against_loop(seed, free):
    rng = np.random.default_rng(4000 + seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 9))
    p = _random_problem(rng, n, m, with_eq=True)
    senses = list(p.senses)
    senses[-1] = GE
    lb = p.lb.copy()
    lb[0] = p.ub[0]     # one fixed variable
    p = LpProblem.build(p.c, p.A, senses, p.b, lb, p.ub,
                        maximize=bool(seed % 2))
    # residuals of an arbitrary point: every branch of the check is hit
    x = np.clip(rng.normal(size=n) * 60.0, p.lb, p.ub)
    x[1] = p.ub[1]
    if free:    # no finite bound: every reduced cost must vanish
        p = LpProblem.build(p.c, p.A, p.senses, p.b, maximize=p.maximize)
    y = rng.normal(size=m)
    got = lp_module._fill_residuals(p, lp_module._Canonical(p), p.c[None],
                                    x[None], y[None])
    pr, dr, gap = _loop_residuals(p, x, y)
    assert got[0].tolist() == [pr]
    assert got[1].tolist() == [dr]
    # only the summation order of the dual objective changed
    assert got[2][0] == pytest.approx(gap, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_vectorized_residuals_match_loop_reference(seed):
    _check_residuals_against_loop(seed, free=False)


@pytest.mark.parametrize("seed", range(10))
def test_vectorized_residuals_match_loop_reference_free(seed):
    _check_residuals_against_loop(seed, free=True)


@pytest.mark.parametrize("maximize", [False, True])
def test_wrong_sign_row_dual_is_a_dual_residual(maximize):
    # x = 1 pinned by x <= 1 and x >= 1, zero objective: any y with
    # y_1 = -y_2 has zero reduced cost and zero gap, so only the row signs
    # (min orientation: y <= 0 on '<=', y >= 0 on '>=') tell the duals apart
    p = LpProblem.build([0.0], [[1.0], [1.0]], [LE, GE], [1.0, 1.0],
                        maximize=maximize)
    right = np.array([1.0, -1.0]) if maximize else np.array([-1.0, 1.0])
    for y, residual in ((right, 0.0), (-right, 1.0)):
        _, dr, gap = lp_module._fill_residuals(
            p, lp_module._Canonical(p), p.c[None], np.ones((1, 1)), y[None])
        assert dr.tolist() == [residual]
        assert gap.tolist() == [0.0]


def test_failed_dualized_answer_falls_back_to_direct(monkeypatch):
    rng = np.random.default_rng(4100)
    p = _max_problem(*_dualized_data(rng))
    clean = solve(p)
    assert clean.basis.path == "dualized"
    dual_std = lp_module._canonical(p).form("dualized")[0]
    original = lp_module._solve_cf

    def broken(std, c, b, tol):
        status, cols, xB, y = original(std, c, b, tol)
        if std is dual_std:
            y = y - 100.0       # x = -y + 100 leaves the box rows
        return status, cols, xB, y

    monkeypatch.setattr(lp_module, "_solve_cf", broken)
    sol = solve(p)
    assert sol.basis.path == "direct"
    _assert_certified(sol)
    assert sol.value == pytest.approx(clean.value, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# canonical forms carried by a basis
# ---------------------------------------------------------------------------

def test_same_constraints_reuse_the_canonical_form():
    rng = np.random.default_rng(4200)
    c, A, b = _dualized_data(rng)
    p = _max_problem(c, A, b)
    first = solve(p)
    canon = first.basis._canonical
    # a new objective or right-hand side keeps the constraints: the record
    # is passed on by identity, and the answers are the cold ones
    q = p.with_objective(rng.normal(size=c.size))
    warm = _assert_matches_cold(q, first.basis)
    assert warm.basis._canonical is canon
    r = q.with_rhs(b + np.abs(rng.normal(size=b.size)))
    assert _assert_matches_cold(r, warm.basis).basis._canonical is canon
    # equal constraints in other arrays are not compared: a new record
    s = _max_problem(rng.normal(size=c.size), A.copy(), b)
    again = _assert_matches_cold(s, first.basis).basis._canonical
    assert again is not canon and np.array_equal(again.A, canon.A)


@pytest.mark.parametrize("entry", [(0, 0), (7, 3), (-1, 4)])
def test_changed_matrix_rebuilds_the_canonical_form(entry, warm_solves):
    rng = np.random.default_rng(4300)
    c, A, b = _dualized_data(rng)
    p = _max_problem(c, A, b)
    first = solve(p)
    A2 = A.copy()
    A2[entry] += 0.25
    q = _max_problem(c, A2, b)
    warm = solve(q, start=first.basis)
    cold = solve(q)
    _assert_certified(warm)
    assert warm.value == pytest.approx(cold.value, abs=1e-9, rel=1e-9)
    assert np.allclose(warm.x, cold.x, atol=1e-7)
    # the start's B is factored from the new matrix
    canon = warm.basis._canonical
    new = canon.form(first.basis.path)[0].A2
    assert warm_solves and all(c[0] is new for c in warm_solves)
    assert canon is not first.basis._canonical
    assert canon is lp_module._canonical(q)
    assert canon is not lp_module._canonical(p)
    assert np.array_equal(canon.A, lp_module._Canonical(q).A)
    assert not np.array_equal(canon.A, first.basis._canonical.A)


def test_canonical_form_of_a_mutable_matrix_is_not_reused():
    # an LpProblem made directly (not by build) may hold a writable matrix;
    # identity alone does not prove it unchanged, so its record is rebuilt
    rng = np.random.default_rng(4400)
    c, A, b = _dualized_data(rng)
    p = LpProblem(c, A, (LE,) * len(b), b, np.full(c.size, -np.inf),
                  np.full(c.size, np.inf), True)
    first = solve(p)
    assert lp_module._canonical(p) is not first.basis._canonical
    A[0, 0] += 1.0
    warm = solve(p, start=first.basis)
    assert warm.basis._canonical is not first.basis._canonical
    assert warm.basis._canonical.A[0, 0] == A[0, 0]
    _assert_certified(warm)
    assert warm.value == pytest.approx(solve(p).value, abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("bounded", [True, False])
def test_dualized_start_extends_to_new_rows_and_variables(bounded,
                                                          monkeypatch):
    # |x_0| <= 1 + t with a new variable t: the start's columns, the duals
    # of the shared rows, carry over and t's dual row takes its slack.  A
    # free t has an '=' dual row without a slack; the start stays a column
    # short and the LP is solved cold
    rng = np.random.default_rng(4500)
    c, A, b = _dualized_data(rng)
    first = solve(_max_problem(c, A, b)).basis
    assert first.path == "dualized"
    m, n = A.shape
    rows = np.zeros((m + 2, n + 1))
    rows[:m, :n] = A
    rows[m:, 0] = (1.0, -1.0)
    rows[m:, -1] = -1.0
    lb = np.full(n + 1, -np.inf)
    if bounded:
        lb[-1] = 0.0
    p = LpProblem.build(np.append(c, -1.0), rows, [LE] * (m + 2),
                        np.append(b, [1.0, 1.0]), lb=lb, maximize=True)
    seen = record_warm_solves(monkeypatch)
    warm = _assert_matches_cold(p, first)
    _, _, cols, accepted = seen[0]
    assert cols[:len(first.cols)] == first.cols
    if bounded:
        std, _ = warm.basis._canonical.form("dualized")
        assert cols[len(first.cols):] == (std.slack_of_row[-1],)
        assert accepted
    else:
        assert cols == first.cols and not accepted


@pytest.mark.parametrize("sense", [LE, EQ])
def test_direct_start_extends_to_new_rows(sense, monkeypatch):
    # a new row c.x >= c.x* - 1 over the same variables, with slack 1 at
    # the start's optimum x*: the start's columns carry over, the new row's
    # slack joins them, and the start is primal feasible for any objective
    # (the probe's slab row on small spaces).  As c.x = c.x* - 1 the row
    # has no slack; the start stays a column short and the LP is solved
    # cold
    rng = np.random.default_rng(4600)
    c, A, b = _dualized_data(rng, m=20)
    first = solve(_max_problem(c, A, b))
    assert first.basis.path == "direct"
    p = LpProblem.build(rng.normal(size=c.size), np.vstack([A, -c]),
                        [LE] * len(b) + [sense],
                        np.append(b, 1.0 - first.value), maximize=True)
    seen = record_warm_solves(monkeypatch)
    warm = _assert_matches_cold(p, first.basis)
    _, _, cols, accepted = seen[0]
    if sense == LE:
        std, _ = warm.basis._canonical.form("direct")
        assert cols == first.basis.cols + (std.slack_of_row[-1],)
        assert accepted
    else:
        assert cols == first.basis.cols and not accepted


def test_build_copies_and_freezes_its_inputs():
    c, A, b = np.array([1.0, 2.0]), np.eye(2), np.ones(2)
    p = LpProblem.build(c, A, [LE, LE], b, lb=np.zeros(2), ub=np.ones(2))
    for mine, kept in ((c, p.c), (A, p.A), (b, p.b)):
        assert mine.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(mine, kept)
    A[0, 0] = 5.0
    assert p.A[0, 0] == 1.0
    assert not p.lb.flags.writeable and not p.ub.flags.writeable


def test_replaced_vectors_are_checked():
    p = LpProblem.build([1.0, 2.0], np.eye(2), [LE, LE], [1.0, 1.0])
    q = p.with_objective([3.0, 4.0]).with_rhs([2.0, 5.0])
    assert q.A is p.A and q.senses is p.senses
    assert q.lb is p.lb and q.ub is p.ub
    assert q.c.tolist() == [3.0, 4.0] and q.b.tolist() == [2.0, 5.0]
    assert not q.c.flags.writeable and not q.b.flags.writeable
    for bad in ([1.0], [1.0, np.nan]):
        with pytest.raises(LpError):
            p.with_objective(bad)
        with pytest.raises(LpError):
            p.with_rhs(bad)


def test_slack_block_matches_loop_reference():
    senses = (LE, EQ, GE, GE, EQ, LE)
    A = np.arange(18.0).reshape(6, 3)
    std = lp_module._std_form(A, senses)
    S, slack_of_row, k = [], [], 0
    for i, s in enumerate(senses):
        col = np.zeros(len(senses))
        if s == EQ:
            slack_of_row.append(-1)
            continue
        col[i] = 1.0 if s == LE else -1.0
        S.append(col)
        slack_of_row.append(3 + k)
        k += 1
    ref = np.hstack([A, np.array(S).T])
    assert std.A2.tobytes() == ref.tobytes()
    assert std.slack_of_row.tolist() == slack_of_row
    assert not std.A2.flags.writeable


@pytest.mark.parametrize("bound", ["lb", "ub"])
def test_nan_bound_rejected(bound):
    with pytest.raises(LpError, match="NaN in problem data"):
        LpProblem.build([1.0], [[1.0]], [LE], [3.0], maximize=True,
                        **{bound: [np.nan]})


_NON_FINITE = {"c": "objective", "A": "constraint matrix",
               "b": "right-hand side"}


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "A", "b"])
def test_non_finite_data_rejected(where, value):
    # infinite data cannot be certified: unchecked, it ends in numpy
    # RuntimeWarnings and a NaN gap, or, in A, in "argmin of an empty
    # sequence"
    data = {"c": [1.0, 1.0], "A": [[1.0, 2.0]], "b": [3.0]}
    data[where] = np.array(data[where])
    data[where].flat[-1] = value
    with pytest.raises(LpError, match=f"^non-finite entry in the "
                                      f"{_NON_FINITE[where]}$"):
        LpProblem.build(senses=[LE], lb=[0.0, 0.0], **data)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_non_finite_replaced_vectors_rejected(value):
    p = LpProblem.build([1.0, 2.0], np.eye(2), [LE, LE], [1.0, 1.0])
    with pytest.raises(LpError, match="^non-finite entry in the objective$"):
        p.with_objective([1.0, value])
    with pytest.raises(LpError,
                       match="^non-finite entry in the right-hand side$"):
        p.with_rhs([value, 1.0])


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_non_finite_objectives_rejected_by_solve_many(value):
    p = LpProblem.build([1.0, 2.0], np.eye(2), [LE, LE], [1.0, 1.0],
                        lb=[0.0, 0.0])
    with pytest.raises(LpError, match="^non-finite entry in the objectives$"):
        lp_module.solve_many(p, [[1.0, 1.0], [value, 1.0]])


@pytest.mark.parametrize("bound", ["lb", "ub"])
def test_bound_no_point_can_meet_is_rejected(bound):
    # lb = +inf (ub = -inf) is a bound no x meets, not the absence of one,
    # which would make min x with x <= 1 and x >= +inf unbounded
    value, name = (np.inf, "lower bound +inf") if bound == "lb" else (
        -np.inf, "upper bound -inf")
    with pytest.raises(LpError, match=f"^{re.escape(name)}$"):
        LpProblem.build([1.0], [[1.0]], [LE], [1.0],
                        maximize=bound == "ub", **{bound: [value]})


# problems with redundant equality rows, which phase 1 drops
_REDUNDANT = {
    # one equality row twice: x = (0.75, 0.25)
    "duplicate": ([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
                  [EQ, EQ, LE], [1.0, 1.0, 0.5], None, None, True),
    # phase 1 leaves an artificial basic in a row other than its own;
    # dropping that row instead of the artificial's made B singular and
    # ended in "certificate check failed"
    "moved_artificial": (
        [2.0, -2.0, -1.0],
        [[-2.0, 5.0, -7.0], [2.0, 1.0, -2.0], [2.0, -1.0, 3.0],
         [0.0, 2.0, -2.0], [0.0, 0.0, -1.0], [2.0, -1.0, 2.0]],
        [EQ] * 6, [-18.0, 0.0, 10.0, -4.0, -2.0, 8.0],
        [0.0] * 3, [5.0] * 3, False),
}


@pytest.mark.parametrize("case", sorted(_REDUNDANT))
def test_phase_one_drops_redundant_rows(case):
    p = LpProblem.build(*_REDUNDANT[case])
    s = solve(p)
    ref = _scipy_solve(p)
    _assert_certified(s)
    assert s.basis is None      # no basis over a dropped row
    assert s.value == pytest.approx(-ref.fun if p.maximize else ref.fun,
                                    abs=1e-9)
    if case == "duplicate":
        assert s.x == pytest.approx([0.75, 0.25], abs=1e-12)


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("case", ["random", "negative_rhs", "dualized"]
                         + sorted(_REDUNDANT))
def test_singular_refinement_uses_the_tableau_inverse(case, monkeypatch):
    # a cold solve refines x_B and y by factoring B; should numpy report B
    # singular, the B^-1 the tableau accumulated gives them instead
    rng = np.random.default_rng(4500)
    if case == "random":
        p = _random_problem(rng, 5, 7, with_eq=True)
    elif case == "negative_rhs":
        p = LpProblem.build([1.0, 1.0], [[-1.0, -2.0], [-3.0, -1.0]],
                            [LE, LE], [-2.0, -3.0], lb=[0.0, 0.0])
    elif case == "dualized":
        p = _max_problem(*_dualized_data(rng))
    else:
        p = LpProblem.build(*_REDUNDANT[case])
    ref = solve(p)
    monkeypatch.setattr(np.linalg, "solve", _singular)
    s = solve(p)
    _assert_certified(s)
    assert s.value == pytest.approx(ref.value, abs=1e-9)


def _tampered_result(x, y, check):
    if check == "primal_residual":
        return x + 100.0, y         # leaves the box rows
    if check == "dual_residual":
        return x, -y                # row duals of the wrong sign
    return np.zeros_like(x), y      # feasible, far from optimal


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("check", ["primal_residual", "dual_residual",
                                   "gap"])
def test_failed_check_is_named_with_its_margin(check, warm, monkeypatch):
    rng = np.random.default_rng(4100)
    p = _max_problem(*_dualized_data(rng))
    # a warm start fails, then the cold solve, before the error
    start = solve(p).basis if warm else None
    seeds, cold = [], _recorder(monkeypatch, "_two_phase", lambda out: None)
    residuals, seed = lp_module._fill_residuals, lp_module._Batch.seed

    def seeding(problem, canon, start, C, tol):
        seeds.append(start)
        return seed(problem, canon, start, C, tol)

    def tampered(problem, canon, C, X, Y):
        # every answer, warm or cold, is checked as the tampered one
        return residuals(problem, canon, C, *_tampered_result(X, Y, check))

    monkeypatch.setattr(lp_module._Batch, "seed", staticmethod(seeding))
    monkeypatch.setattr(lp_module, "_fill_residuals", tampered)
    with pytest.raises(LpError, match=rf"^certificate check failed: {check}"
                                      r" with margin -\d"):
        solve(p, start=start)
    if warm:
        assert seeds[0] is start
    assert len(seeds) == (1 if warm else 0) and len(cold) == 2


# ---------------------------------------------------------------------------
# chains of warm solves, each started from the basis of the one before
# ---------------------------------------------------------------------------

def _chain(seed, path, change, length=200):
    """Problems of one constraint matrix on `path`, each with a new
    objective or a new right-hand side, and the basis of the first."""
    rng = np.random.default_rng(seed)
    c, A, b = _dualized_data(rng, m=60 if path == "dualized" else 20)
    p = _max_problem(c, A, b)
    first = solve(p).basis
    assert first.path == path
    k = b.size - 2 * c.size     # the box rows keep their right-hand side
    problems = []
    for _ in range(length):
        if change == "objective":
            problems.append(p.with_objective(rng.normal(size=c.size)))
        else:
            problems.append(p.with_rhs(np.concatenate(
                [np.abs(rng.normal(size=k)) + 0.5, b[k:]])))
    return first, problems


@pytest.mark.parametrize("change", ["objective", "rhs"])
@pytest.mark.parametrize("path", ["dualized", "direct"])
def test_carried_tableau_chain_matches_cold(path, change, warm_solves):
    start, problems = _chain(4600, path, change)
    for q in problems:
        warm = solve(q, start=start)
        cold = solve(q)
        _assert_certified(warm)
        assert abs(warm.value - cold.value) <= 1e-12
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-12
        start = warm.basis
    assert len(warm_solves) == len(problems)


def test_long_chain_refactors_from_the_data(warm_solves, factorizations):
    start, problems = _chain(4700, "dualized", "objective")
    factored, last = 0, None
    for q in problems:
        count = factorizations[0]
        sol = solve(q, start=start)
        # a warm solve factors its start's B once, from the data, unless
        # its start is the one the constraints' record factored last
        assert factorizations[0] - count == (start.cols != last)
        factored += start.cols != last
        last, start = start.cols, sol.basis
    assert len(warm_solves) == len(problems)
    assert all(c[3] for c in warm_solves)
    assert 1 < factored < len(problems)


# ---------------------------------------------------------------------------
# starts factored once per constraint matrix
# ---------------------------------------------------------------------------

def _factored(monkeypatch):
    """A list that gains, per call of `lp._factor`, whether the start was
    accepted (B^-1 came back)."""
    return _recorder(monkeypatch, "_factor", lambda out: out is not None)


def test_kept_inverse_is_a_fresh_factorization():
    rng = np.random.default_rng(4800)
    p = _max_problem(*_dualized_data(rng))
    start = solve(p).basis
    q = p.with_objective(rng.normal(size=p.c.size))
    solve(q, start=start)
    canon = lp_module._canonical(q)
    cols = np.array(start.cols)
    A2 = canon.form(start.path)[0].A2
    kept = canon.inverse(start.path, cols)
    assert np.array_equal(kept, lp_module._factor(A2, cols))    # bitwise
    assert not kept.flags.writeable
    np.testing.assert_allclose(kept @ A2[:, cols], np.eye(len(cols)),
                               atol=1e-9)
    batch = lp_module._Batch.seed(q, canon, start, q.c[None], 1e-9)
    assert batch.binv is kept


@pytest.mark.parametrize("kind", ["wrong_length", "out_of_range", "negative",
                                  "duplicate", "singular"])
def test_rejected_start_stays_rejected_without_refactoring(kind,
                                                           monkeypatch):
    rng = np.random.default_rng(77)
    c, A, b = _dualized_data(rng)
    A[1] = A[0]
    start = _bad_starts(rng, c, A, b)[kind]
    p = _max_problem(c, A, b)
    factored = _factored(monkeypatch)
    for c_l in rng.normal(size=(3, c.size)):
        _assert_matches_cold(p.with_objective(c_l), start)
    assert factored == [False]


def test_a_second_start_replaces_the_first(monkeypatch):
    # the record keeps one start per path: the last one factored
    rng = np.random.default_rng(4810)
    c, A, b = _dualized_data(rng)
    p = _max_problem(c, A, b)
    first = solve(p).basis
    second = solve(p.with_objective(-c)).basis
    assert first.path == second.path == "dualized"
    assert first.cols != second.cols
    factored = _factored(monkeypatch)
    for start in (first, first, second, second, first):
        _assert_matches_cold(p.with_objective(rng.normal(size=c.size)),
                             start)
    assert factored == [True] * 3
    canon = lp_module._canonical(p)
    assert list(canon._starts) == ["dualized"]
    assert np.array_equal(canon._starts["dualized"][1], lp_module._factor(
        canon.form("dualized")[0].A2, np.array(first.cols)))


def test_siblings_share_the_kept_start(monkeypatch):
    # with_objective and with_rhs share the constraints' record, and with
    # it the start it factored
    rng = np.random.default_rng(4820)
    c, A, b = _dualized_data(rng)
    p = _max_problem(c, A, b)
    start = solve(p).basis
    factored = _factored(monkeypatch)
    k = b.size - 2 * c.size         # the box rows keep their right-hand side
    for _ in range(3):
        q = p.with_objective(rng.normal(size=c.size))
        r = p.with_rhs(np.concatenate([np.abs(rng.normal(size=k)) + 0.5,
                                       b[k:]]))
        for sibling in (q, r, q.with_rhs(r.b)):
            assert lp_module._canonical(sibling) is lp_module._canonical(p)
            _assert_matches_cold(sibling, start)
    assert factored == [True]


def test_writable_matrix_factors_on_every_solve(monkeypatch):
    # the record of a writable matrix is not kept, nor is its start
    rng = np.random.default_rng(4830)
    c, A, b = _dualized_data(rng)
    p = LpProblem(c, A, (LE,) * len(b), b, np.full(c.size, -np.inf),
                  np.full(c.size, np.inf), True)
    start = solve(p).basis
    factored = _factored(monkeypatch)
    for _ in range(3):
        _assert_matches_cold(p, start)
    assert factored == [True] * 3


def test_carried_reduced_costs_match_a_fresh_pricing(monkeypatch):
    # the dual phase carries each lane's reduced costs through its pivots
    # by rank-one updates; after multi-pivot phases they are those of a
    # fresh pricing c - c_B B^-1 A2 within tol (1 + |c|)
    problem, start = _POLYTOPES["equilateral9-face"]
    C = np.random.default_rng(5600).normal(size=(12, problem.c.size))
    tol = lp_module.lp_tol()
    phase, pivot_lanes = lp_module._dual_phase, lp_module._pivot_lanes
    pivots, checked = np.zeros(len(C), dtype=int), []

    def counting(S, basis, A2, L, rows, cols):
        pivots[L] += 1
        return pivot_lanes(S, basis, A2, L, rows, cols)

    def checking(S, basis, costs, R, A2, live, ok, tol):
        phase(S, basis, costs, R, A2, live, ok, tol)
        fresh = lp_module._priced(S, basis, costs, A2)
        scale = 1.0 + np.abs(costs).max(axis=1, keepdims=True)
        assert np.all(np.abs(R - fresh)[ok] <= (tol * scale)[ok])
        checked.append(ok.sum())

    monkeypatch.setattr(lp_module, "_pivot_lanes", counting)
    monkeypatch.setattr(lp_module, "_dual_phase", checking)
    got = lp_module.solve_many(problem, C, start)
    assert checked and checked[0] > 0
    assert (pivots >= 2).sum() >= 3
    _assert_lanes_match_solve(problem, C, start, got)


# ---------------------------------------------------------------------------
# batched re-solves
# ---------------------------------------------------------------------------

def _gallery_polytopes():
    """(name, LP, start) per slab and face polytope of some gallery spaces,
    each started from its norm LP's basis, as the probe starts its slabs."""
    from freegeo.free_space import DualFace, free_norm, molecule
    from freegeo.metric import gallery
    from freegeo.ssd import _slab_problem
    for name, params in (("equilateral", {"n": 4}), ("equilateral", {"n": 9}),
                         ("branching_tree", {"n": 4}),
                         ("branching_tree", {"n": 12}), ("cantor", {}),
                         ("line", {"n": 9})):
        space = gallery(name, **params)
        mu = molecule(space, 1, 2)
        norm = free_norm(mu)
        label = f"{name}{params.get('n', '')}"
        face = DualFace(mu, norm.value)
        yield f"{label}-slab", _slab_problem(face, 0.05), norm.basis
        A_ub, b_ub, prow, prhs = face.constraint_rows()
        yield f"{label}-face", LpProblem.build(
            np.zeros(space.n - 1), np.vstack([A_ub, prow]),
            [LE] * len(b_ub) + [EQ], np.append(b_ub, prhs)), norm.basis


_POLYTOPES = {name: (p, s) for name, p, s in _gallery_polytopes()}


def _assert_lanes_match_solve(problem, C, start, got):
    assert len(got) == len(C)
    for c, sol in zip(C, got):
        ref = solve(problem.with_objective(c), start=start)
        assert sol.status == ref.status
        if ref.status != "optimal":
            continue
        _assert_certified(sol)
        assert abs(sol.value - ref.value) <= 1e-12
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-12


@pytest.fixture
def lp_solves(monkeypatch):
    """The problems handed to `solve`, by a batch or by the test."""
    seen = []
    original = lp_module.solve

    def recording(problem, tol=None, start=None):
        seen.append(problem)
        return original(problem, tol, start)

    monkeypatch.setattr(lp_module, "solve", recording)
    return seen


@pytest.mark.parametrize("name", sorted(_POLYTOPES))
def test_solve_many_matches_solve_on_gallery_polytopes(name, lp_solves):
    problem, start = _POLYTOPES[name]
    C = np.random.default_rng(4900).normal(size=(12, problem.c.size))
    got = lp_module.solve_many(problem, C, start)
    # a start that fits the path of the first solve seeds every lane: a
    # dualized start, and a direct one on a slab, whose further row takes
    # its slack.  A direct start on a face LP, whose further row is an
    # equality, does not: the first lane alone goes to solve, and its
    # basis seeds the others
    seeds = start.path == "dualized" or name.endswith("-slab")
    assert len(lp_solves) == (0 if seeds else 1)
    _assert_lanes_match_solve(problem, C, start, got)


@pytest.mark.parametrize("name", sorted(_POLYTOPES))
def test_solve_many_under_blands_rule(name, lp_solves, monkeypatch):
    # with no stall allowance every primal phase, batched or cold, switches
    # to Bland's rule at its first degenerate pivot, and a lane whose dual
    # phase stalls leaves the batch and is solved alone
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 0)
    problem, start = _POLYTOPES[name]
    C = np.random.default_rng(5000).normal(size=(12, problem.c.size))
    got = lp_module.solve_many(problem, C, start)
    _assert_lanes_match_solve(problem, C, start, got)


def test_stalled_lanes_finish_under_dual_blands_rule(lp_solves, dual_outcomes,
                                                   monkeypatch):
    # a new objective is a new right-hand side of the dualized face LP, so
    # its lanes run the dual phase; with no stall allowance a lane switches
    # to the dual Bland rule at its first flat step, leaving from its
    # lowest-index basic variable below -tol, and finishes in the batch
    # with the answer `solve` gives
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 0)
    problem, start = _POLYTOPES["equilateral9-face"]
    C = np.random.default_rng(5000).normal(size=(12, problem.c.size))
    tol = lp_module.lp_tol()
    blands = []
    original = lp_module._pivot_lanes

    def recording(S, basis, A2, L, rows, cols):
        X = S[L, :, -1]
        lowest = np.where(X < -tol, basis[L], basis.max() + 1).argmin(axis=1)
        # a leaving row that Dantzig's rule (the most negative) would not
        # take is Bland's
        blands.extend((rows == lowest) & (rows != X.argmin(axis=1)))
        return original(S, basis, A2, L, rows, cols)

    monkeypatch.setattr(lp_module, "_pivot_lanes", recording)
    got = lp_module.solve_many(problem, C, start)
    assert not lp_solves
    assert any(blands)
    assert dual_outcomes and set(dual_outcomes) == {"optimal"}
    _assert_lanes_match_solve(problem, C, start, got)


def test_primal_phase_keeps_blands_rule(lp_solves, monkeypatch):
    # a slab from a direct start is primal feasible, so its lanes run
    # primal phase 2 only; with no stall allowance each switches to
    # Bland's rule at its first degenerate pivot, as a cold solve does,
    # and none leaves the batch
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 0)
    problem, start = _POLYTOPES["equilateral4-slab"]
    assert start.path == "direct"
    C = np.random.default_rng(5000).normal(size=(12, problem.c.size))
    got = lp_module.solve_many(problem, C, start)
    assert not lp_solves
    _assert_lanes_match_solve(problem, C, start, got)


def test_failing_lane_falls_back_alone(lp_solves, monkeypatch):
    problem, start = _POLYTOPES["branching_tree12-slab"]
    C = np.random.default_rng(5100).normal(size=(6, problem.c.size))
    clean = lp_module.solve_many(problem, C, start)
    original = lp_module._fill_residuals

    def failing_lane_2(problem, canon, C, X, Y):
        pr, dr, gap = original(problem, canon, C, X, Y)
        if C.ndim == 2:     # a batch, not a single solve
            pr = pr.copy()
            pr[2] = np.nan
        return pr, dr, gap

    monkeypatch.setattr(lp_module, "_fill_residuals", failing_lane_2)
    got = lp_module.solve_many(problem, C, start)
    assert [p.c.tolist() for p in lp_solves] == [C[2].tolist()]
    _assert_certified(got[2])
    ref = solve(problem.with_objective(C[2]), start=start)
    assert np.array_equal(got[2].x, ref.x) and got[2].value == ref.value
    for lane in (0, 1, 3, 4, 5):
        assert np.array_equal(got[lane].x, clean[lane].x)
        assert got[lane].value == clean[lane].value


def test_unbounded_and_infeasible_lanes_fall_back():
    # direct path: x >= 0, |x_0 - x_1| <= 1 is unbounded along (1, 1)
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    p = LpProblem.build([1.0, -1.0], A, [LE] * 4, [0.0, 0.0, 1.0, 1.0],
                        maximize=True)
    start = solve(p).basis
    C = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [2.0, 1.0]])
    got = lp_module.solve_many(p, C, start)
    assert [s.status for s in got] == ["unbounded", "optimal", "optimal",
                                       "unbounded"]
    _assert_lanes_match_solve(p, C, start, got)
    # dualized path: max -x over x <= 1 is unbounded, and its dual, whose
    # right-hand side the objective is, has no entering column
    A = np.array([[1.0]] + [[0.0]] * 30)
    p = LpProblem.build([1.0], A, [LE] * 31, np.ones(31), maximize=True)
    start = solve(p).basis
    assert start.path == "dualized"
    C = np.array([[1.0], [-1.0], [3.0]])
    got = lp_module.solve_many(p, C, start)
    assert [s.status for s in got] == ["optimal", "unbounded", "optimal"]
    _assert_lanes_match_solve(p, C, start, got)


def test_solve_many_single_lane(lp_solves):
    problem, start = _POLYTOPES["branching_tree12-slab"]
    c = np.random.default_rng(5200).normal(size=(1, problem.c.size))
    got = lp_module.solve_many(problem, c, start)
    assert not lp_solves
    _assert_lanes_match_solve(problem, c, start, got)
    assert lp_module.solve_many(problem, np.zeros((0, problem.c.size)),
                                start) == []


def test_solve_many_from_a_direct_start(lp_solves):
    # few rows: the direct path, started from a basis of the same problem,
    # whose B is factored once for every lane.  Lane 3 has the start's own
    # objective and takes no pivot: it keeps the start's basis
    rng = np.random.default_rng(5300)
    c, A, b = _dualized_data(rng, m=20)
    p = _max_problem(c, A, b)
    first = solve(p)
    start = first.basis
    assert start.path == "direct"
    C = rng.normal(size=(10, c.size))
    C[3] = c
    got = lp_module.solve_many(p, C, start)
    assert not lp_solves
    _assert_lanes_equal_solve(p, C, start, got)
    assert all(s.basis.path == "direct" for s in got)
    assert got[3].basis == start
    assert abs(got[3].value - first.value) <= 1e-12
    assert np.max(np.abs(got[3].x - first.x)) <= 1e-12


def _assert_lanes_equal_solve(problem, C, start, got):
    """Each lane of `got` is bitwise the answer of `solve` from `start`."""
    assert len(got) == len(C)
    for c, sol in zip(C, got):
        ref = solve(problem.with_objective(c), start=start)
        assert sol.status == ref.status
        if ref.status != "optimal":
            continue
        assert sol.value == ref.value
        assert np.array_equal(sol.x, ref.x) and np.array_equal(sol.y, ref.y)
        assert sol.basis.cols == ref.basis.cols


@pytest.mark.parametrize("stall_limit", [lp_module._STALL_LIMIT, 0])
@pytest.mark.parametrize("name", sorted(
    name for name, (_, s) in _POLYTOPES.items() if s.path == "dualized"))
def test_solve_many_lanes_equal_single_solves(name, stall_limit,
                                              monkeypatch):
    # a warm solve is a batch of one lane: the lanes of a batch, pivoted in
    # lockstep or (with no stall allowance) left to solve, are bitwise the
    # single solves from the same start, value included
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", stall_limit)
    problem, start = _POLYTOPES[name]
    C = np.random.default_rng(5500).normal(size=(12, problem.c.size))
    _assert_lanes_equal_solve(problem, C, start,
                              lp_module.solve_many(problem, C, start))


@pytest.mark.parametrize("per_block", [1, 3])
def test_lanes_run_in_blocks(per_block, lp_solves, monkeypatch):
    # the cap on the cells of a block of lanes, each its stack [B^-1 | x_B]
    # and _WORK_ROWS rows over A2's columns, splits the lanes into blocks
    # (one lane at least); the answers do not change
    problem, start = _POLYTOPES["branching_tree12-slab"]
    C = np.random.default_rng(5400).normal(size=(10, problem.c.size))
    stacks = []
    original = lp_module._lockstep

    def recording(S, basis, costs, A2, tol):
        stacks.append(S.shape + A2.shape[1:])
        return original(S, basis, costs, A2, tol)

    monkeypatch.setattr(lp_module, "_lockstep", recording)
    whole = lp_module.solve_many(problem, C, start)
    k, m, cols, n2 = stacks.pop()
    assert k == 10 and not stacks
    # one cell short of per_block + 1 lanes; a cap of 1 still runs one lane
    lane = m * cols + lp_module._WORK_ROWS * n2
    cap = 1 if per_block == 1 else (per_block + 1) * lane - 1
    monkeypatch.setattr(lp_module, "_BATCH_CELLS", cap)
    got = lp_module.solve_many(problem, C, start)
    assert not lp_solves
    assert [s[0] for s in stacks] == [per_block] * (10 // per_block) + (
        [10 % per_block] if 10 % per_block else [])
    for a, b in zip(got, whole):
        assert np.array_equal(a.x, b.x) and a.value == b.value


def test_solve_many_rejects_malformed_objectives():
    problem, start = _POLYTOPES["branching_tree4-slab"]
    for bad in (np.ones((2, problem.c.size + 1)), np.ones(problem.c.size),
                np.full((2, problem.c.size), np.nan)):
        with pytest.raises(LpError):
            lp_module.solve_many(problem, bad, start)


def test_solve_many_without_variables_answers_every_objective():
    # an LP over no variables and no rows is optimal with value 0; its
    # (k, 0) objectives were read as no objectives at all
    p = LpProblem.build(np.zeros(0), np.zeros((0, 0)), [], np.zeros(0))
    sol = solve(p)
    assert (sol.status, sol.value, sol.x.size) == ("optimal", 0.0, 0)
    for k in (1, 3):
        sols = lp_module.solve_many(p, np.zeros((k, 0)))
        assert [(s.status, s.value) for s in sols] == [("optimal", 0.0)] * k
    wide = LpProblem.build(np.zeros(2), np.zeros((0, 2)), [], np.zeros(0))
    for q in (p, wide):
        assert lp_module.solve_many(q, []) == []
        assert lp_module.solve_many(q, np.zeros((0, q.c.size))) == []


# ---------------------------------------------------------------------------
# revised lanes: [B^-1 | x_B] per lane, priced from the fixed A2
# ---------------------------------------------------------------------------

def _degenerate_slabs():
    """(name, slab LP at depth 0.05, start, distance scale) on degenerate
    spaces, started from the norm LP's basis as the probe starts its slabs:
    equilateral spaces, where every pair is tight at once; distances that
    tie to within 1e-12; and 2-D Euclidean spaces at distance scales 1e-6
    and 1e6.  Each comes on 5 points (direct path), 6 points (the norm LP
    direct, the slab dualized) and 13 points (dualized)."""
    from conftest import random_euclidean_space
    from freegeo.free_space import DualFace, free_norm, molecule
    from freegeo.metric import PointedMetricSpace, equilateral
    from freegeo.ssd import _slab_problem
    for n in (5, 6, 13):
        rng = np.random.default_rng(n)
        d = 1.0 + 1e-12 * rng.uniform(-1.0, 1.0, (n, n))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        spaces = [(f"equilateral{n}", equilateral(n)),
                  (f"near_tie{n}", PointedMetricSpace(d))]
        spaces += [(f"euclidean{n}@{scale:g}", random_euclidean_space(
            rng, n, dim=2, scale=scale)) for scale in (1e-6, 1e6)]
        for name, space in spaces:
            mu = molecule(space, 1, 2)
            norm = free_norm(mu)
            yield name, _slab_problem(DualFace(mu, norm.value), 0.05), \
                norm.basis, space.dist.max()


_DEGENERATE = {name: rest for name, *rest in _degenerate_slabs()}


@pytest.mark.parametrize("lanes,per_block", [(1, None), (8, None), (8, 3)])
@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_revised_lanes_match_the_cold_solve(name, lanes, per_block,
                                            monkeypatch):
    # every lane, in a block of its own, of 8 or across the boundaries of
    # blocks of 3, is certified and ends at the cold solve's optimum, to
    # within the LP's gap; blocks do not change a lane's answer
    problem, start, scale = _DEGENERATE[name]
    C = np.random.default_rng(5800).normal(size=(lanes, problem.c.size))
    whole = lp_module.solve_many(problem, C, start)
    if per_block is not None:
        m, n2 = lp_module._canonical(problem).form(
            lp_module.first_path(problem))[0].A2.shape
        monkeypatch.setattr(lp_module, "_BATCH_CELLS", per_block * (
            m * (m + 1) + lp_module._WORK_ROWS * n2))
        got = lp_module.solve_many(problem, C, start)
        for a, b in zip(got, whole):
            assert np.array_equal(a.x, b.x) and a.value == b.value
    for c, sol in zip(C, whole):
        cold = solve(problem.with_objective(c))
        _assert_certified(sol)
        assert abs(sol.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
        assert np.max(np.abs(sol.x - cold.x)) <= 1e-7 * (1.0 + scale)


@pytest.mark.parametrize("kind", ["wrong_length", "out_of_range", "negative",
                                  "duplicate", "singular", "wrong_path",
                                  "not_integers"])
def test_solve_many_from_a_rejected_start_solves_cold(kind, lp_solves):
    # a start that seeds no lanes hands the first objective to solve, which
    # solves it cold, and its basis seeds the others
    rng = np.random.default_rng(77)
    c, A, b = _dualized_data(rng)
    A[1] = A[0]
    start = _bad_starts(rng, c, A, b)[kind]
    p = _max_problem(c, A, b)
    canon = lp_module._canonical(p)
    assert lp_module._Batch.seed(p, canon, lp_module._carried_over(
        start, canon), p.c[None], 1e-9) is None
    C = rng.normal(size=(5, c.size))
    got = lp_module.solve_many(p, C, start)
    assert [q.c.tolist() for q in lp_solves] == [C[0].tolist()]
    for c_l, sol in zip(C, got):
        cold = solve(p.with_objective(c_l))
        _assert_certified(sol)
        assert sol.value == pytest.approx(cold.value, abs=1e-9, rel=1e-9)
        assert np.allclose(sol.x, cold.x, atol=1e-7)


def test_revised_lanes_hold_no_tableaux():
    # 64 objectives on the slab of a 64-point tree: a lane keeps its
    # [B^-1 | x_B], 63 x 64 cells (32 KB), and a block of lanes bounds its
    # rows over A2's 4,033 columns.  Lanes that held full tableaux took
    # 63 x 4,097 cells each, 8 MB per block, and the solve peaked at 22 MB
    import tracemalloc

    from freegeo.free_space import DualFace, FreeElement, free_norm
    from freegeo.metric import branching_tree
    from freegeo.ssd import _slab_problem
    space = branching_tree(63)
    mu = FreeElement(space, np.append(-1.0, np.full(63, 1.0 / 63)))
    norm = free_norm(mu)
    slab = _slab_problem(DualFace(mu, norm.value), 0.05)
    C = np.random.default_rng(5900).normal(size=(64, 63))
    lp_module.solve_many(slab, C[:1], norm.basis)   # the canonical forms
    tracemalloc.start()
    try:
        sols = lp_module.solve_many(slab, C, norm.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.status for s in sols] == ["optimal"] * 64
    assert peak < 12 * 2 ** 20
