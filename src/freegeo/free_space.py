"""Finitely supported elements of the free space over a finite pointed
metric space.

The norm is one LP, the max-pairing LP over the unit ball of base-vanishing
Lipschitz functions: its optimizer is a norming functional and, by
Kantorovich-Rubinstein duality, its row duals are an optimal transport plan
(which also yields an optimal molecule representation).  Both certificates
are re-checked from the original data; the returned value is the average of
the transport cost and the pairing.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .lp import EQ, LE, LpBasis, LpProblem, solve, solve_many
from .lipschitz import LipFunction, lip_norm
from .metric import PointedMetricSpace
from .tolerances import lp_tol


class FreeSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class FreeElement:
    """Zero-sum mass vector; any imbalance is absorbed at the base point,
    whose mass is set to minus the sum of the others (so rebuilding an
    element from its masses gives the same masses)."""

    space: PointedMetricSpace
    masses: np.ndarray

    def __post_init__(self):
        m = np.array(self.masses, dtype=float)
        if m.shape != (self.space.n,):
            raise FreeSpaceError("mass vector size mismatch")
        finite = np.isfinite(m).all()
        # 0.0 - s, not -s: a balanced base mass of zero stays +0.0.  The
        # sum can overflow, or be inf - inf; the check below rejects both
        with np.errstate(over="ignore", invalid="ignore"):
            m[0] = 0.0 - m[1:].sum()
        if not (finite and np.isfinite(m[0])):
            raise FreeSpaceError("masses must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    def is_zero(self, tol=0.0) -> bool:
        return bool(np.abs(self.masses).max() <= tol)

    def __add__(self, other):
        _same_space(self, other)
        return FreeElement(self.space, self.masses + other.masses)

    def __rmul__(self, a: float):
        return FreeElement(self.space, a * self.masses)

    def __neg__(self):
        return FreeElement(self.space, -self.masses)

    def to_json(self) -> dict:
        return {"masses": self.masses.tolist()}


def delta(space, i: int) -> FreeElement:
    m = np.zeros(space.n)
    m[i] = 1.0
    return FreeElement(space, m)


def molecule(space, x: int, y: int) -> FreeElement:
    """(delta(x) - delta(y)) / d(x, y)."""
    if x == y:
        raise FreeSpaceError("molecule endpoints must differ")
    m = np.zeros(space.n)
    m[x] = 1.0 / space.d(x, y)
    m[y] = -1.0 / space.d(x, y)
    return FreeElement(space, m)


@dataclass(frozen=True)
class MoleculeCombination:
    """Positive combination sum_i lam_i (delta(x_i) - delta(y_i)) / d(x_i,y_i)."""

    space: PointedMetricSpace
    terms: tuple   # of (lam, x, y)

    def __post_init__(self):
        for lam, x, y in self.terms:
            if lam <= 0:
                raise FreeSpaceError("weights must be positive")
            if x == y:
                raise FreeSpaceError("molecule endpoints must differ")

    def weight_sum(self) -> float:
        return float(sum(t[0] for t in self.terms))

    def element(self) -> FreeElement:
        m = np.zeros(self.space.n)
        # a mass can overflow, or be inf - inf; FreeElement rejects both
        with np.errstate(over="ignore", invalid="ignore"):
            for lam, x, y in self.terms:
                m[x] += lam / self.space.d(x, y)
                m[y] -= lam / self.space.d(x, y)
        return FreeElement(self.space, m)

    def to_json(self) -> dict:
        return {"molecules": [[lam, x, y] for lam, x, y in self.terms]}


def element_from_json(space, obj: dict) -> FreeElement:
    if "masses" in obj:
        return FreeElement(space, np.array(obj["masses"], dtype=float))
    if "molecules" in obj:
        terms = []
        for l, x, y in obj["molecules"]:
            x, y = _point_index(x), _point_index(y)
            if not (0 <= x < space.n and 0 <= y < space.n):
                raise FreeSpaceError(f"molecule index out of range for "
                                     f"{space.n} points: [{x}, {y}]")
            terms.append((float(l), x, y))
        return MoleculeCombination(space, tuple(terms)).element()
    raise FreeSpaceError("element JSON needs 'masses' or 'molecules'")


def _point_index(v) -> int:
    """A molecule endpoint read from JSON: an integral number, not a bool
    (int() would truncate 1.5 and accept true)."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(
            v, numbers.Real) or not float(v).is_integer():
        raise FreeSpaceError(f"molecule index must be an integer: {v!r}")
    return int(v)


def _same_space(a, b):
    if a.space is not b.space and not np.array_equal(a.space.dist,
                                                     b.space.dist):
        raise FreeSpaceError("operands live on different spaces")


def pairing(f: LipFunction, mu: FreeElement) -> float:
    """sum_p masses[p] f(p); constant shifts of f do not change it."""
    _same_space(f, mu)
    return float(mu.masses @ f.values)


# ---------------------------------------------------------------------------
# LP building blocks (variables are f(p) for p = 1..n-1; f(base) = 0)
# ---------------------------------------------------------------------------

#: Cap on the points of a Lipschitz-ball LP.  Its rows grow as n^2: at
#: the cap one norm LP over random 2-D Euclidean masses takes about 1.2 s
#: and 160 MB on one core of a 2-vCPU VM, at 192 points 12 s and 390 MB,
#: and at 1024 points the rows alone would take 4 GiB.
MAX_BALL_POINTS = 128


@functools.lru_cache(maxsize=32)
def pair_rows(n: int):
    """(p, q, R) over the pairs p < q of n points in lexicographic order;
    row k of R is e_p - e_q over the variables f(1..n-1).  Cached per n
    (the rows do not depend on the distances); the arrays are read-only.
    Every LP over the Lipschitz ball takes its rows from here, so more
    than MAX_BALL_POINTS points raise FreeSpaceError before anything is
    allocated."""
    if n > MAX_BALL_POINTS:
        raise FreeSpaceError(f"a Lipschitz-ball LP takes at most "
                             f"{MAX_BALL_POINTS} points, not {n}")
    p, q = np.triu_indices(n, 1)
    k = np.arange(p.size)
    R = np.zeros((p.size, n))
    R[k, p] = 1.0
    R[k, q] = -1.0
    R = R[:, 1:]
    for a in (p, q, R):
        a.setflags(write=False)
    return p, q, R


def lipschitz_ball_rows(space):
    """Rows A f <= b encoding |f(p) - f(q)| <= d(p, q): row 2k is
    f(p) - f(q) <= d(p, q) for the k-th pair p < q of `pair_rows`, row
    2k+1 its mirror.  In the max-pairing LP the dual of a row is the flow
    along its arc."""
    return _ball_matrix(space.n), _ball_rhs(space)


def _ball_matrix(n: int):
    """The matrix A of `lipschitz_ball_rows` over n points."""
    _, _, R = pair_rows(n)
    rows = np.empty((2 * R.shape[0], R.shape[1]))
    rows[0::2] = R
    rows[1::2] = -R
    return rows


def _ball_rhs(space):
    """The right-hand side b of `lipschitz_ball_rows`."""
    p, q, _ = pair_rows(space.n)
    return np.repeat(space.dist[p, q], 2)


@functools.lru_cache(maxsize=16)
def _norm_lp(n: int) -> LpProblem:
    """The norm LP over n points, max pairing(f, mu) over the rows of
    `lipschitz_ball_rows`, with a zero objective and right-hand side that
    `free_norm` replaces.  Its constraints depend on n alone (like
    `pair_rows`), so every norm LP over n points shares them and the
    canonical form that the first solve builds; cached per n, built on
    first use."""
    A = _ball_matrix(n)
    return LpProblem.build(np.zeros(n - 1), A, [LE] * len(A),
                           np.zeros(len(A)), maximize=True)


def unit_scale(space):
    """(space / s, s) for s the power of two nearest the largest distance
    in log scale (1 on a one-point space).  Every LP over the Lipschitz
    ball is solved on space / s: its residual bounds are absolute, and a
    power of two rescales exactly."""
    top = space.dist.max()
    s = float(2.0 ** np.round(np.log2(top))) if top > 0.0 else 1.0
    if s == 1.0:
        return space, s
    return PointedMetricSpace(space.dist / s, space.labels), s


def _values_from_vars(space, fv) -> LipFunction:
    return LipFunction(space, np.concatenate([[0.0], fv]))


def _certify(name: str, margin: float) -> None:
    """Raise unless the named norm check holds (margin >= 0; NaN fails)."""
    if not margin >= 0.0:
        raise FreeSpaceError(
            f"norm certificate check {name} failed with margin {margin!r}")


@dataclass
class NormCertificates:
    value: float
    primal_value: float
    dual_value: float
    flow: dict            # (p, q) -> mass moved
    potential: LipFunction
    # optimal basis of the norm LP (at unit distance scale); it starts the
    # slab and face-distance LPs of `ssd.exposedness_probe`.  None only for
    # the zero element, whose norm takes no LP
    basis: LpBasis | None = field(default=None, repr=False, compare=False)

    def representation(self) -> MoleculeCombination:
        """Molecule combination with weight sum equal to the norm, read off
        the optimal flow (lam = flow * distance per positive arc)."""
        if self.basis is None:
            raise FreeSpaceError("the zero element has no representation")
        space = self.potential.space
        terms = tuple((w * space.d(p, q), p, q)
                      for (p, q), w in sorted(self.flow.items()))
        return MoleculeCombination(space, terms)


def free_norm(mu: FreeElement) -> NormCertificates:
    """Free-space norm with both LP certificates, from one LP."""
    space = mu.space
    n = space.n
    tol = lp_tol()
    if mu.is_zero():
        zero = _values_from_vars(space, np.zeros(n - 1))
        return NormCertificates(0.0, 0.0, 0.0, {}, zero)

    # solve at unit distance scale; the Lipschitz check below is relative
    unit, s = unit_scale(space)
    sol = solve(_norm_lp(n).with_objective(mu.masses[1:])
                .with_rhs(_ball_rhs(unit)))
    if sol.status != "optimal":
        raise FreeSpaceError(f"Lipschitz LP failed: {sol.status}")
    potential = _values_from_vars(space, s * sol.x)
    # the duals of rows 2k and 2k+1 are the flows p -> q and q -> p of the
    # k-th pair; off-diagonal entries in row-major order: the arcs in
    # lexicographic order
    p, q, _ = pair_rows(n)
    F = np.zeros((n, n))
    F[p, q] = sol.y[0::2]
    F[q, p] = sol.y[1::2]
    arcs = ~np.eye(n, dtype=bool)
    flows = F[arcs]
    primal = float(space.dist[arcs] @ flows)
    # the pairing with mu, without the f(base) = 0 term: summed like the
    # LP objective, so it is bitwise the LP optimum on the dualized path
    dual = float(mu.masses[1:] @ potential.values[1:])
    value = 0.5 * (primal + dual)

    # the certificate, re-checked from the original data
    _certify("flow_nonnegative", tol + flows.min())
    balance = F.sum(axis=1) - F.sum(axis=0)
    _certify("flow_balance", tol * (1.0 + np.abs(mu.masses).max())
             - np.abs(balance[1:] - mu.masses[1:]).max(initial=0.0))
    _certify("potential_lipschitz", 1.0 + tol - lip_norm(potential))
    _certify("duality_gap", tol * (1.0 + abs(value)) - abs(primal - dual))

    # the arcs that carry flow, in lexicographic order
    src, dst = np.nonzero(arcs)
    moved = np.flatnonzero(flows > tol)
    flow = dict(zip(zip(src[moved].tolist(), dst[moved].tolist()),
                    flows[moved].tolist()))
    return NormCertificates(value, primal, dual, flow, potential, sol.basis)


def norming_functional(mu: FreeElement) -> LipFunction:
    """A norm-one function attaining the norm of mu."""
    if mu.is_zero():
        raise FreeSpaceError("the zero element has no norming functional")
    return free_norm(mu).potential


def optimal_representation(mu: FreeElement) -> MoleculeCombination:
    """Molecule combination with weight sum equal to the norm, read off the
    optimal flow (see `NormCertificates.representation`)."""
    return free_norm(mu).representation()


@dataclass(frozen=True)
class DualFace:
    """D(mu) = {f : ||f|| <= 1, pairing(f, mu) = norm}.  Every LP over the
    face (its ranges here, the slab and face-distance LPs of `freegeo.ssd`)
    takes its rows from `constraint_rows`."""

    mu: FreeElement
    norm: float

    @property
    def space(self):
        return self.mu.space

    def constraint_rows(self):
        """(A_ub, b_ub, pairing_row, pairing_rhs) over f(1..n-1): the rows
        of `lipschitz_ball_rows`, then pairing_row . f = pairing_rhs."""
        A_ub, b_ub = lipschitz_ball_rows(self.space)
        return A_ub, b_ub, self.mu.masses[1:].copy(), self.norm


def dual_face(mu: FreeElement) -> DualFace:
    if mu.is_zero():
        raise FreeSpaceError("the zero element has no dual face")
    return DualFace(mu, free_norm(mu).value)


@dataclass(frozen=True)
class PointFace:
    """D(mu) as the one point `potential`, the norming potential g* of
    `free_norm`, up to the norm LP's gap: every g in D(mu) lies within
    `reach` of g* at each point, so within `radius` = 2 reach / min d of it
    in Lip-distance (see `point_face`)."""

    potential: LipFunction
    reach: float
    radius: float


def _holds(name: str, margin: float) -> bool:
    """Whether the named margin holds (margin >= 0; NaN fails): a route
    condition, where `_certify` raises."""
    return margin >= 0.0


def point_face(mu: FreeElement, cert: NormCertificates) -> PointFace | None:
    """The dual face of mu as one point, read off the optimal plan of
    `cert` (the norm certificates of mu), or None.

    A 1-Lipschitz g pairs with mu to ||mu|| exactly when it is tight,
    g(p) - g(q) = d(p, q), on every arc that a plan w moves mass along.
    When those arcs connect every point (union-find gives one component),
    tightness fixes g along paths from the base: D(mu) = {g*}.  The plan
    is a float plan, so each arc a is tight only up to gap' / w_a, where
    gap' bounds sum_a w_a (d_a - g(p_a) + g(q_a)) over D(mu): the plan's
    cost minus the lower bound <g*, mu> / Lip(g*) on ||mu||, plus the flow
    balance residual of the plan weighted by d(0, p) and a rounding
    allowance, all recomputed from the data.  Summed along the arcs with
    g*'s own slack, that gives `reach`, and its margin face_radius is
    tol - 2 reach / min d, tol = lp_tol(): the gap that every LP answer is
    certified within.  None when the support does not span, or the margin
    fails."""
    space = mu.space
    n = space.n
    if not cert.flow:
        return None
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    components = n
    for p, q in cert.flow:
        a, b = find(p), find(q)
        if a != b:
            root[a] = b
            components -= 1
    if components > 1:
        return None
    p, q = np.array(list(cert.flow)).T
    w = np.array(list(cert.flow.values()))
    d = space.dist[p, q]
    g = cert.potential.values
    m, d0 = mu.masses[1:], space.dist[0, 1:]
    out, into = np.bincount(p, w, n)[1:], np.bincount(q, w, n)[1:]
    degree = (np.bincount(p, minlength=n) + np.bincount(q, minlength=n))[1:]
    cost = math.fsum(w * d)
    pairing_terms = m * g[1:]
    lower = math.fsum(pairing_terms) / max(lip_norm(cert.potential), 1.0)
    residual = math.fsum(d0 * np.abs(out - into - m))
    # what rounding can hide: each sum is correctly rounded (fsum) over
    # terms rounded once, lower takes three more roundings, and a point's
    # balance sums its arcs' flows one by one
    eps = np.finfo(float).eps
    rounding = eps * (cost + 3.0 * math.fsum(np.abs(pairing_terms))
                      + residual + math.fsum(
                          d0 * ((degree + 2) * (out + into) + np.abs(m))))
    gap = abs(cost - lower) + residual + rounding
    slack = np.abs(d - (g[p] - g[q])) + eps * (d + np.abs(g[p])
                                               + np.abs(g[q]))
    reach = (1.0 + 4.0 * eps) * math.fsum(gap / w + slack)
    radius = 2.0 * reach / _ball_rhs(space).min()
    if not _holds("face_radius", lp_tol() - radius):
        return None
    return PointFace(cert.potential, reach, radius)


def _unit_ranges(face: DualFace):
    """(ranges / s, s) for s = `unit_scale`: the ranges of f / s over the
    face of mu on space / s, whose norm is norm / s."""
    unit, s = unit_scale(face.space)
    A_ub, b_ub, row, rhs = DualFace(FreeElement(unit, face.mu.masses),
                                    face.norm / s).constraint_rows()
    n = unit.n
    face_lp = LpProblem.build(np.zeros(n - 1), np.vstack([A_ub, row]),
                              [LE] * len(b_ub) + [EQ], np.append(b_ub, rhs))
    e = np.eye(n - 1)
    sols = solve_many(face_lp, np.vstack([e, -e]))
    if any(sol.status != "optimal" for sol in sols):
        raise FreeSpaceError("face range LP failed (empty face?)")
    v = np.array([sol.value for sol in sols])
    return np.vstack([[0.0, 0.0], np.column_stack([v[:n - 1], -v[n - 1:]])]), s


def face_coordinate_ranges(face: DualFace) -> np.ndarray:
    """Per-point [min, max] of f(p) over the dual face: one `solve_many`
    batch over the objectives +e_p and -e_p (max f(p) = -min -f(p)); the
    first is solved cold and its basis starts the others.  Solved at unit
    distance scale and scaled back exactly."""
    out, s = _unit_ranges(face)
    return s * out


def is_gateaux(mu: FreeElement, tol: float = 1e-7) -> bool:
    """True iff the dual face pins every coordinate (unique norming f).
    The widths are compared with tol at unit distance scale, so the answer
    does not depend on the unit of distance.  A point face (`point_face`)
    answers True at once when its widths, at most 2 reach, are within tol
    at that scale; other faces take their widths from the face range LPs
    of `face_coordinate_ranges`."""
    if mu.is_zero():
        raise FreeSpaceError("zero element")
    cert = free_norm(mu)
    face = point_face(mu, cert)
    if face is not None and 2.0 * face.reach / unit_scale(mu.space)[1] <= tol:
        return True
    ranges, _ = _unit_ranges(DualFace(mu, cert.value))
    widths = ranges[:, 1] - ranges[:, 0]
    return bool(widths.max() <= tol)
