"""Strong-subdifferentiability machinery.

Exposedness-modulus probing, certified perturbation pipelines that move a
near-norming function onto the dual face of a molecule combination, the
tilde-f witness that feeds one fattening level into the next, the 4-epsilon
certificate for the almost-aligned family, and the fattening distortion
constant.  Every pipeline records each inequality it relies on together
with its numeric margin, so results can be re-checked independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .free_space import (DualFace, FreeElement, MoleculeCombination,
                         free_norm, lipschitz_ball_rows, molecule, pair_rows,
                         pairing, unit_scale)
from .lipschitz import (LipFunction, LipschitzError, cutoff_xi,
                        f_gamma_construct, from_values, g_gamma_construct,
                        lip_norm, mcshane_extend, pair_slope, peaking_check,
                        slope_matrix)
from .metric import (PointedMetricSpace, gamma_fatten, radius_beta, subspace,
                     uniform_discreteness_constant)
from .tolerances import lp_tol

CERTIFIED = "certified"
RHO_TOO_LARGE = "rho_too_large"
PRECONDITION_FAILED = "precondition_failed"


class SsdError(ValueError):
    pass


# ---------------------------------------------------------------------------
# named inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    margin: float      # bound minus observed value; >= 0 means the check holds
    ok: bool

    def to_json(self) -> dict:
        return {"name": self.name, "margin": self.margin, "ok": self.ok}


def _check(verified: list, name: str, margin: float, strict=False) -> bool:
    ok = margin > 0.0 if strict else margin >= 0.0
    verified.append(Check(name, float(margin), bool(ok)))
    return ok


# ---------------------------------------------------------------------------
# exposedness probing (lower bound on the exposedness modulus)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusCurve:
    """worst observed Lip-distance from slab points to the dual face.

    Entries are (eta, worst_dist, samples).  The curve is a lower bound on
    the true modulus: it only sees the sampled extreme points of each slab
    {lip_norm(f) <= 1, pairing(f, mu) >= ||mu|| (1 - eta)}.  worst_dist is
    the max over the face-distance LPs solved; each skipped sample is
    certified not to raise it by more than the LP's own gap, by the margin
    worst_dist + tol (1 + worst_dist) - ||f - g|| >= 0 against a guarded
    face point g, tol = lp_tol() (see `exposedness_probe`).
    """

    mu_masses: tuple
    seed: int
    entries: tuple   # of (eta, worst_dist, samples)

    def to_json(self) -> dict:
        return {"mu": {"masses": list(self.mu_masses)}, "seed": self.seed,
                "entries": [list(e) for e in self.entries]}

    def to_csv(self) -> str:
        lines = ["eta,worst_dist,samples"]
        for eta, dist, k in self.entries:
            lines.append(f"{eta!r},{dist!r},{k}")
        return "\n".join(lines) + "\n"


def _guard(name: str, margin: float) -> None:
    """Raise unless the named check holds (margin >= 0; NaN fails)."""
    if not margin >= 0.0:
        raise SsdError(f"check {name} failed with margin {margin!r}")


def _slab_problem(face: DualFace, eta) -> lp.LpProblem:
    """The eta-slab of the unit ball over f(1..n-1): the face's ball rows
    and its pairing row relaxed to pairing(f, mu) >= norm (1 - eta), with a
    zero objective that each sample replaces."""
    A, b, row, norm = face.constraint_rows()
    return lp.LpProblem.build(np.zeros(A.shape[1]), np.vstack([A, -row]),
                              [lp.LE] * (len(b) + 1),
                              np.append(b, -(norm * (1.0 - eta))),
                              maximize=True)


def _face_problem(face: DualFace):
    """The face-distance LP, min t over (g, t): the face's rows on g and
    |(v - g)(p) - (v - g)(q)| <= t d(p, q), for the values v = 0: the ball
    rows again, with a t column of minus the ball's right-hand side.
    `_with_face_values` sets v."""
    A, b, row, norm = face.constraint_rows()
    m, n = A.shape
    rows = np.zeros((2 * m + 1, n + 1))
    rows[:m, :-1] = rows[m:-1, :-1] = A
    rows[m:-1, -1] = -b
    rows[-1, :-1] = row
    return lp.LpProblem.build(np.eye(n + 1)[-1], rows,
                              [lp.LE] * (2 * m) + [lp.EQ],
                              np.concatenate([b, np.zeros(m), [norm]]),
                              lb=np.append(np.full(n, -np.inf), 0.0))


def _with_face_values(problem, vals):
    """The face-distance problem for the values vals: per pair p < q, the
    right-hand sides v(p) - v(q) and v(q) - v(p)."""
    p, q, _ = pair_rows(vals.size)
    k = p.size
    diff = vals[p] - vals[q]
    b = problem.b.copy()
    b[2 * k:4 * k:2] = diff
    b[2 * k + 1:4 * k:2] = -diff
    return problem.with_rhs(b)


class _FacePoints:
    """points(vals) is (||f - g||, g), never below 0, for f = vals and g the
    face point nearest f: the face-distance LP, built once on space / s
    (`unit_scale`) and solved for f / s from the previous call's basis
    (the first from `start`).  Each g is guarded against the unit ball and
    the pairing with mu, independently of the solver, and scales back by s
    exactly."""

    def __init__(self, face: DualFace, start=None):
        unit, self.s = unit_scale(face.space)
        self.face = DualFace(FreeElement(unit, face.mu.masses),
                             face.norm / self.s)
        self.problem = _face_problem(self.face)
        self.start = start

    def __call__(self, vals):
        sol = lp.solve(_with_face_values(self.problem, vals / self.s),
                       start=self.start)
        if sol.status != "optimal":
            raise SsdError(f"face-distance LP ended with status {sol.status}")
        self.start = sol.basis
        g = from_values(self.face.space, np.concatenate([[0.0], sol.x[:-1]]))
        tol = lp_tol()
        _guard("face_point_in_unit_ball", 1.0 + tol - lip_norm(g))
        _guard("face_point_pairs_to_norm",
               tol - abs(pairing(g, self.face.mu) - self.face.norm))
        # on f already on the face the optimum can end a few ulps below t >= 0
        return max(float(sol.value), 0.0), self.s * g.values


def face_distance(f: LipFunction, mu: FreeElement, norm_mu=None) -> float:
    """Lip-distance from f to the dual face D(mu) = {g : ||g|| <= 1,
    pairing(g, mu) = ||mu||}, computed as one LP (variables g and t) whose
    face point is checked as in `exposedness_probe`.  f and mu must live on
    one space (FreeSpaceError otherwise)."""
    pairing(f, mu)      # raises FreeSpaceError on two spaces
    if norm_mu is None:
        norm_mu = free_norm(mu).value
    return _FacePoints(DualFace(mu, norm_mu))(f.values)[0]


def _lip_distances(space, F, G) -> np.ndarray:
    """||F_j - G_i||_Lip for every row F_j of F and G_i of G, shape
    (len(F), len(G)): one broadcast over the pairs of `pair_rows`."""
    p, q, _ = pair_rows(space.n)
    D = F[:, None, :] - G[None, :, :]
    return (np.abs(D[..., p] - D[..., q]) / space.dist[p, q]).max(axis=-1)


def exposedness_probe(mu: FreeElement, eta_grid, samples_per_eta: int,
                      seed: int) -> ModulusCurve:
    """Probe the exposedness modulus of mu by sampling slab extreme points.

    For each eta, maximizes seeded pseudo-random objectives over the slab
    and records the max Lip-distance of the maximizers to the dual face.
    The result is post-processed to a monotone (nondecreasing in eta)
    envelope; it is deterministic given the seed and a lower bound on the
    true modulus.

    Each entry is the max over the face-distance LPs solved.  Any g in
    D(mu) bounds a sample's distance by ||f - g||; the probe keeps such
    face points for the whole grid (the norming potential of `free_norm`
    and the optimal g of each face-distance LP it solves) and solves the
    samples in decreasing order of their bound U = min ||f - g||, until the
    largest open U is at most worst + tol (1 + worst), for worst the
    largest distance so far and tol = lp_tol(): the gap that every LP
    answer is certified within (`lp`).  So each skipped sample is
    certified by the margin worst + tol (1 + worst) - ||f - g|| >= 0
    against a guarded face point, and raises the entry by no more than
    the LP's own gap.  Samples tied at the bound of the norming potential,
    whose face LPs end a few ulps on either side of it, take one face LP.

    The slab LP and the face-distance LP are built once per probe, from the
    rows of `DualFace.constraint_rows`; an eta changes only the slab row's
    right-hand side, and a sample the slab's objective or the face LP's
    right-hand side, so each LP's constraints are canonicalized once.  An eta's samples are drawn together, in the
    order of single draws, and solved as one batch by `lp.solve_many` from
    `norm.basis`, the norm LP's optimal basis.  Each face-distance LP is
    solved by `lp.solve` from the basis of the previous one, the first from
    `norm.basis` too.  Where the norm LP took the dualized path, its basis
    is a spanning tree of n - 1 ball-row arcs: it leaves the slab LP dual
    feasible and the face-distance LP primal feasible, so neither starts
    cold.  Every sample is checked against the unit ball and the slab, in
    one batch per eta, and every face point against the unit ball and the
    pairing with mu, as in `face_distance`, independently of the solver; a
    failed check raises SsdError with its margin, the worst over a batch.
    """
    if mu.is_zero():
        raise SsdError("cannot probe the zero element")
    eta_grid = [float(e) for e in eta_grid]
    if any(not 0.0 <= e < 1.0 for e in eta_grid):
        raise SsdError("slab depths must lie in [0, 1)")
    if samples_per_eta < 1:
        raise SsdError("need at least one sample per slab depth")
    if seed < 0:
        raise SsdError("the seed must be nonnegative")
    # probe mu on the space at unit distance scale: the slab and the face
    # scale with the distances, Lip-distances to the face do not
    masses = mu.masses
    space, _ = unit_scale(mu.space)
    mu = FreeElement(space, masses)
    norm = free_norm(mu)
    norm_mu = norm.value
    rng = np.random.default_rng(seed)
    tol = lp_tol()
    raw = []
    # on the dualized path the slab's dual is the norm's dual plus the slab
    # row's column, whose reduced cost there is the row's slack
    # eta ||mu|| >= 0, so the norm basis is a dual feasible slab start; it
    # is a primal feasible face start: B^-1 b = (0, ..., 0, 1) >= 0 for
    # every sample (see `lp`)
    face = DualFace(mu, norm_mu)
    slab = _slab_problem(face, 0.0)
    points = _FacePoints(face, norm.basis)
    # D(mu) does not depend on eta: face points serve the whole grid
    faces = norm.potential.values[None, :]
    for eta in eta_grid:
        objectives = rng.standard_normal((samples_per_eta, space.n - 1))
        F = np.zeros((samples_per_eta, space.n))
        # at depth eta only the slab row's right-hand side changes, so the
        # constraints and their canonical form are shared
        depth = slab.with_rhs(np.append(slab.b[:-1], -(norm_mu * (1.0 - eta))))
        for j, sol in enumerate(lp.solve_many(depth, objectives, norm.basis)):
            if sol.status != "optimal":
                raise SsdError(
                    f"slab sampling LP ended with status {sol.status}")
            F[j, 1:] = sol.x
        # each guard checks the worst sample of the batch
        norms = _lip_distances(space, F, np.zeros((1, space.n)))[:, 0]
        _guard("slab_sample_in_unit_ball", 1.0 + tol - float(norms.max()))
        _guard("slab_sample_in_slab", float((F @ masses).min())
               - (norm_mu * (1.0 - eta) - tol))
        worst = 0.0
        bound = _lip_distances(space, F, faces).min(axis=1)
        while True:
            j = int(np.argmax(bound))
            if bound[j] <= worst + tol * (1.0 + worst):
                break       # every open sample is within the LP's gap
            bound[j] = -np.inf      # solved
            dist, g = points(F[j])
            worst = max(worst, dist)
            faces = np.vstack([faces, g])
            bound = np.minimum(bound,
                               _lip_distances(space, F, faces[-1:])[:, 0])
        raw.append((eta, worst))
    # monotone envelope: the true modulus is nondecreasing in eta
    order = sorted(range(len(raw)), key=lambda i: raw[i][0])
    running = 0.0
    env = {}
    for i in order:
        running = max(running, raw[i][1])
        env[i] = running
    entries = tuple((raw[i][0], env[i], samples_per_eta)
                    for i in range(len(raw)))
    return ModulusCurve(tuple(float(v) for v in masses), int(seed),
                        entries)


# ---------------------------------------------------------------------------
# single-molecule perturbation via a peaking function
# ---------------------------------------------------------------------------

def single_molecule_perturb(space: PointedMetricSpace, x: int, y: int,
                            f_peaking: LipFunction, gamma_peak: float,
                            g: LipFunction, eps: float):
    """Move g onto the norming set of m_{x,y} using a peaking function.

    Blends h = (1 - eps/4) g + (eps/4) f_peaking and normalizes.  Requires
    pairing(g, m_{x,y}) > 1 - gamma_eps where gamma_eps is half the window
    eps (1 - gamma_peak) / (4 - eps); under that closeness the blend attains
    its norm at the molecule and the normalized blend stays within
    1 - (1 - eps/4)(1 - gamma_eps) + eps/4 of g.
    """
    tol = lp_tol()
    witness = peaking_check(f_peaking, x, y)
    if witness is None:
        raise SsdError(f"no peaking witness at the pair ({x}, {y})")
    if witness > gamma_peak + tol:
        raise SsdError(
            f"measured peaking level {witness!r} exceeds gamma_peak")
    if not 0.0 < eps < 1.0:
        raise SsdError("eps must lie in (0, 1)")
    gamma_eps = 0.5 * eps * (1.0 - gamma_peak) / (4.0 - eps)
    mol = molecule(space, x, y)
    if abs(lip_norm(g) - 1.0) > tol:
        raise SsdError("g must have norm one")
    if not pairing(g, mol) > 1.0 - gamma_eps:
        raise SsdError(
            f"pairing(g, m_xy) = {pairing(g, mol)!r} is not above "
            f"1 - gamma_eps = {1.0 - gamma_eps!r}")
    h = from_values(space, (1.0 - eps / 4.0) * g.values
                    + (eps / 4.0) * f_peaking.values)
    norm_h = lip_norm(h)
    if abs(norm_h - pair_slope(h, x, y)) > tol:
        raise SsdError("blend does not attain its norm at the molecule")
    h_hat = from_values(space, h.values / norm_h)
    bound = 1.0 - (1.0 - eps / 4.0) * (1.0 - gamma_eps) + eps / 4.0
    dist = lip_norm(from_values(space, h_hat.values - g.values))
    if dist > bound + tol:
        raise SsdError(f"distance {dist!r} exceeds certified bound {bound!r}")
    return h_hat, bound


# ---------------------------------------------------------------------------
# the fattened-space perturbation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationResult:
    status: str
    psi: LipFunction | None
    g: LipFunction
    eps: float
    gamma: float
    beta: float = np.nan
    T: float = np.nan
    T0: float = np.nan
    S: float = np.nan
    c: float = np.nan
    K: float = np.nan
    rho: float = np.nan
    bound: float = np.nan
    verified: tuple = ()
    message: str = ""

    def to_json(self) -> dict:
        return {"status": self.status, "eps": self.eps, "gamma": self.gamma,
                "beta": self.beta, "T": self.T, "T0": self.T0, "S": self.S,
                "c": self.c, "K": self.K, "rho": self.rho,
                "bound": self.bound, "message": self.message,
                "psi": None if self.psi is None else self.psi.to_json(),
                "verified": [c.to_json() for c in self.verified]}


def _search_T(beta: float, gamma: float):
    """Smallest T = beta + 2^k making the taper-tail estimate strict."""
    k = 0
    while True:
        T = beta + 2.0 ** k
        T0 = (gamma / 4.0) * (T - beta) / (beta + gamma / 2.0)
        lhs = ((2.0 * beta + 1.5 * gamma) / (T0 + gamma)
               + (beta + gamma / 2.0) / (T - beta))
        if lhs < 0.75:
            return T, T0, 0.75 - lhs
        k += 1
        if k > 200:
            raise SsdError("no taper length satisfies the tail estimate")


def perturbation_pipeline(space: PointedMetricSpace, gamma: float,
                          combination: MoleculeCombination,
                          f: LipFunction, g: LipFunction,
                          eps: float) -> PerturbationResult:
    """Certified construction of a norm-attaining psi near g.

    Inputs: combination (weights summing to one) lives in the fattened
    metric; f is 1-Lipschitz in the *original* metric and norms every pair
    (f(x_i) - f(y_i) = d(x_i, y_i)); g has norm one in the fattened metric
    and pairs with the combination above 1 - rho, where rho is derived
    from the geometry.  Each inequality the construction relies on is
    recorded in `verified` with its margin.
    """
    tol = lp_tol()
    verified: list = []
    fattened = gamma_fatten(space, gamma)
    terms = combination.terms

    def fail(status, msg, **found):
        return PerturbationResult(status=status, psi=None, g=g, eps=eps,
                                  gamma=gamma, verified=tuple(verified),
                                  message=msg, **found)

    if not 0.0 < eps < 1.0:
        return fail(PRECONDITION_FAILED, "eps must lie in (0, 1)")
    if abs(combination.weight_sum() - 1.0) > tol:
        return fail(PRECONDITION_FAILED, "weights must sum to one")
    mu = MoleculeCombination(fattened, terms).element()

    # (i) source and sink supports may not meet
    xs = [t[1] for t in terms]
    ys = [t[2] for t in terms]
    common = set(xs) & set(ys)
    if not _check(verified, "disjoint_supports",
                  -float(len(common)) if common else 1.0, strict=True):
        return fail(PRECONDITION_FAILED,
                    "source and sink supports intersect")
    for i, (lam, x, y) in enumerate(terms):
        if abs((f(x) - f(y)) - space.d(x, y)) > tol:
            return fail(PRECONDITION_FAILED,
                        f"f does not norm the pair of term {i}")
    if abs(lip_norm(f) - 1.0) > tol:
        return fail(PRECONDITION_FAILED,
                    "f must have norm one in the original metric")
    if abs(lip_norm(g) - 1.0) > tol:
        return fail(PRECONDITION_FAILED,
                    "g must have norm one in the fattened metric")

    # (ii) clip-extend f from the support set N
    N = sorted({0, *xs, *ys})
    in_n = np.zeros(space.n, dtype=bool)
    in_n[N] = True
    both_in = np.outer(in_n, in_n)
    beta = radius_beta(space, N)
    f_ext = mcshane_extend(space, N, [f(p) for p in N], 1.0,
                           clip=(-beta, beta))
    _check(verified, "clipped_extension_bounded",
           beta - float(np.abs(f_ext.values).max()) + tol)

    # (iii) lift to the fattened metric
    f_gamma = f_gamma_construct(space, gamma, terms, f_ext, fattened)
    _check(verified, "lift_norm_one", tol - abs(lip_norm(f_gamma) - 1.0))
    _check(verified, "lift_pairing_one", tol - abs(pairing(f_gamma, mu) - 1.0))

    # (iv) taper length
    T, T0, t_margin = _search_T(beta, gamma)
    _check(verified, "taper_tail", t_margin, strict=True)
    G = g_gamma_construct(space, f_gamma, cutoff_xi(beta, T))
    _check(verified, "taper_pairing_one", tol - abs(pairing(G, mu) - 1.0))

    # (v) off-support slope supremum of the tapered lift.  The |slope|
    # matrices of G, h and psi are built once each; a max over one is
    # lip_norm bitwise, as lip_norm is the max over the whole matrix
    s_G = np.abs(slope_matrix(G))
    S = float(s_G[~both_in].max(initial=0.0))
    _check(verified, "off_support_sup_below_one", 1.0 - S, strict=True)
    if S >= 1.0:
        return fail(PRECONDITION_FAILED,
                    "tapered lift reaches slope one off the support set")
    # per-pair bound for the pairs p < q inside the radius-beta ball with
    # an endpoint off the support set
    case1_bound = (2.0 * beta + gamma / 2.0) / (2.0 * beta + gamma)
    near = ~(space.dist[0] > beta)
    inner = np.triu(np.outer(near, near) & ~both_in, 1)
    if inner.any():
        worst_case1 = (case1_bound - s_G[inner]).min()
        _check(verified, "inner_pair_bound", float(worst_case1) + tol)
    c = (max(S, 0.5 + 10.0 * tol) + 1.0) / 2.0
    K = gamma * (c - 0.5) / (1.0 - c)
    ratio = (K + gamma / 2.0) / (K + gamma)
    _check(verified, "slope_gap", ratio - S - 10.0 * tol)

    # (vi) closeness requirement on g
    rho = 0.5 * (math.sqrt(eps) * gamma / (2.0 * (K + gamma))
                 - beta * eps / gamma) / (1.0 - math.sqrt(eps))
    if not _check(verified, "rho_positive", rho, strict=True):
        return fail(PRECONDITION_FAILED,
                    f"eps too large for (beta, gamma, K) = "
                    f"({beta!r}, {gamma!r}, {K!r})")
    pg = pairing(g, mu)
    if not _check(verified, "g_close_enough", pg - (1.0 - rho), strict=True):
        return fail(PRECONDITION_FAILED,
                    f"pairing(g, mu) = {pg!r} is not above 1 - rho "
                    f"= {1.0 - rho!r}")

    # (vii) the blend pairs above anything it can do off the support set
    se = math.sqrt(eps)
    h = from_values(fattened, (1.0 - se) * g.values + se * G.values)
    s_h = np.abs(slope_matrix(h))
    off_sup_h = float(s_h[~both_in].max(initial=0.0))
    ph = pairing(h, mu)
    if not _check(verified, "blend_dominates_off_support", ph - off_sup_h,
                  strict=True):
        return fail(PRECONDITION_FAILED,
                    "blend does not dominate its off-support slopes")
    norm_h = float(s_h.max())
    _check(verified, "blend_norm_on_support",
           tol - abs(norm_h - float(s_h[both_in].max())))

    # (viii) project the restriction onto the finite face
    sub, kept = subspace(fattened, N)
    pos = {old: new for new, old in enumerate(kept)}
    mu_n = MoleculeCombination(
        sub, tuple((lam, pos[x], pos[y]) for lam, x, y in terms)).element()
    # phi = ||h|| g for g the face point pairing to 1 nearest h / ||h||
    dist_n, g_n = _FacePoints(DualFace(mu_n, 1.0))(h.values[kept] / norm_h)
    proj_dist, phi_vals = norm_h * dist_n, norm_h * g_n
    if not _check(verified, "face_projection_within_eps", eps - proj_dist,
                  strict=True):
        return fail(RHO_TOO_LARGE,
                    f"face projection distance {proj_dist!r} is not below "
                    f"eps; supply g with pairing above {1.0 - rho / 2.0!r}",
                    beta=beta, T=T, T0=T0, S=S, c=c, K=K, rho=rho)

    # (ix) stitch and verify
    psi_vals = h.values.copy()
    psi_vals[kept] = phi_vals
    psi = from_values(fattened, psi_vals)
    p_psi = pairing(psi, mu)
    s_abs = np.abs(slope_matrix(psi))
    both_out = np.outer(~in_n, ~in_n)
    for where, pairs in (("inside", both_in), ("outside", both_out),
                         ("mixed", ~(both_in | both_out))):
        if pairs.any():
            _check(verified, f"attainment_{where}",
                   p_psi - float(s_abs[pairs].max()) + tol)
    _check(verified, "norm_attained", 1e-8 - abs(p_psi - float(s_abs.max())))
    bound = max(eps, beta * eps / gamma) + 2.0 * se
    dist = lip_norm(from_values(fattened, psi.values - g.values))
    _check(verified, "distance_bound", bound + tol - dist)
    bad = [chk.name for chk in verified if not chk.ok]
    return PerturbationResult(
        status=PRECONDITION_FAILED if bad else CERTIFIED, psi=psi, g=g,
        eps=eps, gamma=gamma, beta=beta, T=T, T0=T0, S=S, c=c, K=K, rho=rho,
        bound=bound, verified=tuple(verified),
        message=f"failed checks: {bad}" if bad else "")


def _norming_rows(space, terms):
    """(A, b, senses) over f(1..n-1): the Lipschitz-ball rows, then one row
    f(x) - f(y) = d(x, y) per term (lam, x, y)."""
    A, b = lipschitz_ball_rows(space)
    x = np.array([t[1] for t in terms], dtype=int)
    y = np.array([t[2] for t in terms], dtype=int)
    e = np.eye(space.n)
    return (np.vstack([A, (e[x] - e[y])[:, 1:]]),
            np.concatenate([b, space.dist[x, y]]),
            [lp.LE] * b.size + [lp.EQ] * x.size)


def find_common_norming(space: PointedMetricSpace,
                        combination: MoleculeCombination) -> LipFunction:
    """A norm-one f in the original metric with f(x_i) - f(y_i) = d(x_i, y_i)
    for every term, found by LP; raises if no such function exists.  The
    LP is solved for f / s over the ball of space / s (`unit_scale`), as
    in `free_norm`, and f is scaled back exactly."""
    unit, s = unit_scale(space)
    A, b, senses = _norming_rows(unit, combination.terms)
    sol = lp.solve(lp.LpProblem.build(np.zeros(space.n - 1), A, senses, b))
    if sol.status != "optimal":
        raise SsdError(
            "no norm-one function norms every pair of the combination")
    return from_values(space, np.concatenate([[0.0], s * sol.x]))


# ---------------------------------------------------------------------------
# the tilde-f witness: one fattening level feeds the next
# ---------------------------------------------------------------------------

def common_norming_witness(space: PointedMetricSpace, gamma: float,
                           combination: MoleculeCombination) -> LipFunction:
    """For a combination optimal in the doubly fattened metric, build the
    shifted common norming function on the singly fattened metric.

    The combination must satisfy sum(lam_i) = free_norm within tolerance
    (optimal representation).  A norming f in the doubly fattened metric is
    found by LP (with extra rows keeping the shifted values 1-Lipschitz
    against the base); the witness takes f(x_i) - gamma at sources and
    f(y_i) at sinks, is verified 1-Lipschitz pair by pair in the singly
    fattened metric, and is McShane-extended to the whole space.  It norms
    every pair there, so it can seed perturbation_pipeline with fattening
    gamma, certifying the combination in the doubly fattened space.

    The witness is built at the unit scale s of the doubly fattened space
    (`unit_scale`), on space / s with gamma / s, and scaled back by s
    exactly.  So its LP runs on that unit-scale space, and its pair checks
    compare margins with lp_tol() at unit scale, as every LP site does.
    """
    tol = lp_tol()
    if not 0.0 < gamma < math.inf:
        raise SsdError("gamma must be positive and finite")
    single = gamma_fatten(space, gamma)
    double = gamma_fatten(space, 2.0 * gamma)
    _, s = unit_scale(double)
    if s != 1.0:
        unit = PointedMetricSpace(space.dist / s, space.labels)
        witness = common_norming_witness(unit, gamma / s, combination)
        return from_values(single, s * witness.values)
    terms = combination.terms
    mu = MoleculeCombination(double, terms).element()
    nrm = free_norm(mu).value
    if abs(combination.weight_sum() - nrm) > 10.0 * tol * (1.0 + nrm):
        raise SsdError(
            f"representation is not optimal: weight sum "
            f"{combination.weight_sum()!r} differs from norm {nrm!r}")
    xs = [t[1] for t in terms]
    ys = [t[2] for t in terms]
    if 0 in xs:
        raise SsdError("the base point may not appear as a source; "
                       "re-root the space at a sink or unused point")
    # find f norming every pair in the double metric, with extra rows that
    # keep the shifted values compatible with the base point
    A, b, senses = _norming_rows(double, terms)
    # |f(p) - shift| <= d_single(0, p), with the shift gamma at sources and
    # 0 at sinks: per point the rows f(p) <= d + shift, -f(p) <= d - shift
    sources, sinks = list(set(xs)), list(set(ys) - {0})
    pts = np.repeat(np.array(sources + sinks, dtype=int), 2)
    sign = np.tile([1.0, -1.0], len(sources) + len(sinks))
    shift = np.repeat([gamma] * len(sources) + [0.0] * len(sinks), 2)
    senses += [lp.LE] * pts.size
    sol = lp.solve(lp.LpProblem.build(
        np.zeros(space.n - 1),
        np.vstack([A, sign[:, None] * np.eye(space.n)[pts, 1:]]), senses,
        np.concatenate([b, single.dist[0, pts] + sign * shift])))
    if sol.status != "optimal":
        raise SsdError("no common norming function is compatible with the "
                       "base point shift")
    f = from_values(double, np.concatenate([[0.0], sol.x]))

    shifted = {0: 0.0}
    for x in xs:
        shifted[x] = f(x) - gamma
    for y in ys:
        shifted[y] = f(y)
    # pairwise verification in the singly fattened metric, split as the two
    # sign cases of the shifted difference; the first failing pair in the
    # order of the terms is reported
    X, Y = np.array(xs, dtype=int), np.array(ys, dtype=int)
    diff = (np.array([shifted[x] for x in xs])[:, None]
            - np.array([shifted[y] for y in ys])[None, :])
    d = single.dist[np.ix_(X, Y)]
    margin = np.where(diff >= 0,
                      d - (f.values[X][:, None] - f.values[Y][None, :]
                           - gamma), d + diff)
    bad = np.argwhere((margin < -tol) & (X[:, None] != Y[None, :]))
    if bad.size:
        i, j = bad[0]
        raise SsdError(
            f"shifted witness is not 1-Lipschitz on the pair "
            f"({xs[i]}, {ys[j]}); margin {float(margin[i, j])!r}")
    keys = sorted(shifted)
    witness = mcshane_extend(single, keys, [shifted[k] for k in keys], 1.0)
    for i, (lam, x, y) in enumerate(terms):
        if abs((witness(x) - witness(y)) - single.d(x, y)) > tol:
            raise SsdError(f"witness fails to norm the pair of term {i}")
    if lip_norm(witness) > 1.0 + tol:
        raise SsdError("witness escapes the unit ball")
    return witness


# ---------------------------------------------------------------------------
# the 4-eps certificate on the almost-aligned family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentCertificate:
    h: LipFunction
    eps: float
    gamma_cut: float
    n0: int
    distance: float
    checks: tuple

    def to_json(self) -> dict:
        return {"eps": self.eps, "gamma_cut": self.gamma_cut, "n0": self.n0,
                "distance": self.distance, "h": self.h.to_json(),
                "checks": [c.to_json() for c in self.checks]}


def almost_aligned_certificate(space: PointedMetricSpace, eps_of, eps: float,
                               f: LipFunction) -> AlignmentCertificate:
    """Certify that the distinguished molecule of an almost-aligned
    truncation admits norm-attaining functions near any near-norming f.

    The space is a truncation {x=0(base), y, z_1..z_m} with d(x,y) = 1,
    d(x,z_k) = 1/2, d(y,z_k) = 1/2 + eps_of(k).  Given f with
    pairing(f, m_{x,y}) > 1 - eps/4, projects f (normalized) on the head
    subset {x, y, z_1..z_n0} onto the exact norming face, extends back with
    norm one, and verifies the per-pair distance bounds; the total
    Lip-distance from f to the result is certified at most 4 eps.
    """
    tol = lp_tol()
    if not 0.0 < eps < math.inf:
        raise SsdError("eps must be positive and finite")
    m = space.n - 2
    if m < 1:
        raise SsdError("truncation needs at least one interior point")
    eps_k = [float(eps_of(k)) for k in range(1, m + 1)]
    n0 = next((k for k in range(1, m + 1) if eps_k[k - 1] < eps), None)
    if n0 is None or any(e >= eps for e in eps_k[n0 - 1:]):
        raise SsdError("truncation too small: tail levels must drop "
                       "below eps")
    gamma_cut = eps / 4.0
    x, y = 0, 1
    mol = molecule(space, x, y)
    pf = pairing(f, mol)
    if not pf > 1.0 - gamma_cut:
        raise SsdError(f"pairing(f, m_xy) = {pf!r} is not above "
                       f"1 - gamma_cut = {1.0 - gamma_cut!r}")
    if abs(lip_norm(f) - 1.0) > tol:
        raise SsdError("f must have norm one")
    checks: list = []

    # near-norming slope consequences on every interior point
    for k in range(1, m + 1):
        z = k + 1
        e = eps_k[k - 1]
        _check(checks, f"slope_floor_xz_{k}",
               pair_slope(f, x, z) - (1.0 - (2.0 * e + 2.0 * gamma_cut))
               + tol)
        _check(checks, f"slope_floor_zy_{k}",
               pair_slope(f, z, y)
               - (1.0 - (2.0 * e + 2.0 * gamma_cut) / (1.0 + 2.0 * e)) + tol)

    # project the normalized head restriction onto the exact norming face
    head = list(range(0, n0 + 2))   # x, y, z_1..z_n0
    sub, kept = subspace(space, head)
    f_head = np.array([f(p) for p in kept])
    head_norm = lip_norm(LipFunction(sub, f_head))
    f_tilde = f_head / head_norm
    mu_head = molecule(sub, 0, 1)
    proj_dist, h_head = _FacePoints(DualFace(mu_head, 1.0))(f_tilde)
    margin = eps - proj_dist
    if not _check(checks, "head_projection_within_eps", margin, strict=True):
        raise SsdError(f"check head_projection_within_eps failed with "
                       f"margin {margin!r}; supply f with pairing closer "
                       f"to one")

    # extend with norm one and verify the case bounds
    h = mcshane_extend(space, kept, h_head, 1.0)
    _check(checks, "h_norms_molecule", tol - abs(pair_slope(h, x, y) - 1.0))
    _check(checks, "h_norm_one", tol - abs(lip_norm(h) - 1.0))
    diff = from_values(space, h.values - f.values)
    _check(checks, "case1_molecule",
           eps - abs(pair_slope(diff, x, y)), strict=True)
    for k in range(1, m + 1):
        z = k + 1
        dx = abs(pair_slope(diff, x, z))
        dy = abs(pair_slope(diff, z, y))
        if k <= n0:
            _check(checks, f"case2_xz_{k}", 2.0 * eps - dx, strict=True)
            _check(checks, f"case2_zy_{k}", 2.0 * eps - dy, strict=True)
        else:
            e = eps_k[k - 1]
            _check(checks, f"case3_xz_{k}",
                   2.0 * e + 2.0 * gamma_cut - dx + tol)
            _check(checks, f"case3_xz_{k}_under_4eps",
                   4.0 * eps - dx, strict=True)
            _check(checks, f"case3_zy_{k}",
                   (2.0 * e + 2.0 * gamma_cut) / (1.0 + 2.0 * e) - dy + tol)
            _check(checks, f"case3_zy_{k}_under_4eps",
                   4.0 * eps - dy, strict=True)
    if m >= 2:
        # interior pairs z_i, z_j (i < j, points i + 1 and j + 1): 2 eps
        # within the head, 3 eps from the head to the tail, 4 eps beyond
        head = np.arange(1, m + 1) <= n0
        bound = np.where(head[:, None], np.where(head[None, :], 2.0 * eps,
                                                 3.0 * eps), 4.0 * eps)
        excess = np.abs(slope_matrix(diff))[2:, 2:] - bound
        worst4 = max(0.0, excess[np.triu_indices(m, 1)].max())
        _check(checks, "case4_interior_pairs", -worst4 + tol)
    distance = lip_norm(diff)
    _check(checks, "total_distance_4eps", 4.0 * eps + tol - distance)
    if not all(c.ok for c in checks):
        bad = [c.name for c in checks if not c.ok]
        raise SsdError(f"certificate checks failed: {bad}")
    return AlignmentCertificate(h, float(eps), gamma_cut, n0,
                                float(distance), tuple(checks))


# ---------------------------------------------------------------------------
# fattening distortion
# ---------------------------------------------------------------------------

def bilipschitz_distortion(space: PointedMetricSpace, gamma: float) -> float:
    """Lipschitz constant of the identity from the original to the fattened
    metric scale: 1 + gamma / (min off-diagonal distance).  The inverse
    direction is contractive, so this is the full distortion."""
    if space.n < 2:
        raise SsdError("need at least two points")
    if not 0.0 < gamma < math.inf:
        raise SsdError("gamma must be positive and finite")
    theta = uniform_discreteness_constant(space)
    return 1.0 + gamma / theta
