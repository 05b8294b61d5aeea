import dataclasses
import itertools

import numpy as np
import pytest

from freegeo import free_space, lp, ssd
from freegeo.free_space import (DualFace, FreeElement, FreeSpaceError,
                                MoleculeCombination, dual_face,
                                face_coordinate_ranges, free_norm,
                                is_gateaux, lipschitz_ball_rows, molecule,
                                norming_functional, optimal_representation,
                                pairing, unit_scale)
from freegeo.tolerances import lp_tol
from freegeo.lipschitz import (LipschitzError, aux_f_xy, from_values,
                               lip_norm, pair_slope)
from freegeo.metric import (PointedMetricSpace, branching_tree, gallery,
                            gamma_fatten, line_space)
from freegeo.ssd import (CERTIFIED, PRECONDITION_FAILED, SsdError,
                         almost_aligned_certificate, bilipschitz_distortion,
                         common_norming_witness, exposedness_probe,
                         face_distance, find_common_norming,
                         perturbation_pipeline, single_molecule_perturb)
from conftest import (random_euclidean_space, random_zero_sum,
                      record_warm_solves)


# ---------------------------------------------------------------------------
# distortion of the fattening map
# ---------------------------------------------------------------------------

def test_distortion_branching_tree():
    assert bilipschitz_distortion(branching_tree(4), 0.5) == 1.5


def test_distortion_formula_and_limit():
    space = line_space([0.0, 0.25, 1.0])
    assert bilipschitz_distortion(space, 0.1) == pytest.approx(1.4)
    assert bilipschitz_distortion(space, 1e-9) == pytest.approx(1.0)


def test_distortion_inverts_to_target():
    # distortion <= 1 + eps is achieved with gamma = eps * theta
    space = line_space([0.0, 0.25, 1.0])
    eps = 0.2
    assert bilipschitz_distortion(space, eps * 0.25) \
        == pytest.approx(1.0 + eps)


def test_distortion_errors():
    with pytest.raises(SsdError):
        bilipschitz_distortion(line_space([0.0]), 0.5)
    with pytest.raises(SsdError):
        bilipschitz_distortion(line_space([0.0, 1.0]), 0.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_gamma_outside_open_half_line_is_rejected(gamma):
    # NaN passed the old `gamma <= 0` test and gave a NaN distortion
    space = line_space([0.0, 1.0, 2.0])
    with pytest.raises(SsdError, match="positive and finite"):
        bilipschitz_distortion(space, gamma)
    with pytest.raises(SsdError, match="positive and finite"):
        common_norming_witness(space, gamma,
                               MoleculeCombination(space, ((1.0, 2, 0),)))


# ---------------------------------------------------------------------------
# exposedness probing
# ---------------------------------------------------------------------------

def test_probe_eta_zero_is_face():
    space = gallery("equilateral", n=3)
    mu = molecule(space, 1, 2)
    curve = exposedness_probe(mu, [0.0], 8, seed=5)
    assert curve.entries[0][1] <= 1e-7


def _slab_vertices(space, mu, eta):
    """Brute-force vertex enumeration for a two-variable slab polytope."""
    A, b = lipschitz_ball_rows(space)
    norm_mu = free_norm(mu).value
    rows = np.vstack([A, -mu.masses[1:]])
    rhs = np.concatenate([b, [-(norm_mu * (1.0 - eta))]])
    verts = []
    for i, j in itertools.combinations(range(len(rhs)), 2):
        M = np.stack([rows[i], rows[j]])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, [rhs[i], rhs[j]])
        if np.all(rows @ v <= rhs + 1e-9):
            verts.append(v)
    return verts


def test_probe_matches_vertex_enumeration():
    space = gallery("equilateral", n=3)
    mu = molecule(space, 1, 2)
    eta = 0.1
    curve = exposedness_probe(mu, [eta], 64, seed=11)
    worst = curve.entries[0][1]
    verts = _slab_vertices(space, mu, eta)
    exact = max(face_distance(from_values(space, np.concatenate([[0.0], v])),
                              mu) for v in verts)
    assert worst > 0.0
    assert worst <= exact + 1e-7
    # with 64 random objectives over a 2-d polytope we expect to hit the
    # worst vertex
    assert worst == pytest.approx(exact, abs=1e-7)


def test_probe_line_trend_to_zero():
    space = line_space([0.0, 1.0, 2.0, 3.0])
    comb = MoleculeCombination(space, ((0.5, 1, 0), (0.5, 3, 2)))
    mu = comb.element()
    curve = exposedness_probe(mu, [0.1, 0.01, 0.001], 32, seed=3)
    dists = {eta: w for eta, w, _ in curve.entries}
    assert dists[0.001] <= dists[0.01] <= dists[0.1]
    assert dists[0.001] < dists[0.1]
    assert dists[0.001] <= 0.05


def test_probe_deterministic_and_errors():
    space = gallery("equilateral", n=3)
    mu = molecule(space, 1, 2)
    a = exposedness_probe(mu, [0.2], 8, seed=9)
    b = exposedness_probe(mu, [0.2], 8, seed=9)
    assert a.entries == b.entries
    zero = MoleculeCombination(space, ((1.0, 1, 2),)).element() \
        + (-1.0) * molecule(space, 1, 2)
    with pytest.raises(SsdError):
        exposedness_probe(zero, [0.1], 4, seed=0)
    with pytest.raises(SsdError):
        exposedness_probe(mu, [1.5], 4, seed=0)
    # numpy's generator rejects negative seeds with a bare ValueError
    with pytest.raises(SsdError, match="seed must be nonnegative"):
        exposedness_probe(mu, [0.2], 4, seed=-1)


def _loop_face_distance_rows(space, vals, mu_masses, norm):
    """Pair-by-pair assembly of the face-distance LP, kept as the reference
    for the vectorized builders: (rows, rhs) over (g, t)."""
    n = space.n
    ball, dist, ball_rhs, dist_rhs = [], [], [], []
    for p in range(n):
        for q in range(p + 1, n):
            r = np.zeros(n)
            if p > 0:
                r[p - 1] = 1.0
            if q > 0:
                r[q - 1] = -1.0
            ball += [np.append(r[:-1], 0.0), np.append(-r[:-1], 0.0)]
            ball_rhs += [space.d(p, q)] * 2
            r[-1] = -space.d(p, q)
            diff = vals[p] - vals[q]
            dist += [r, np.concatenate([-r[:-1], [r[-1]]])]
            dist_rhs += [diff, -diff]
    rows = ball + dist + [np.concatenate([mu_masses[1:], [0.0]])]
    return np.array(rows), np.array(ball_rhs + dist_rhs + [norm])


def test_vectorized_rows_match_loop_reference():
    rng = np.random.default_rng(8)
    for space in (branching_tree(6), gallery("equilateral", n=4),
                  random_euclidean_space(rng, 7)):
        vals = np.concatenate([[0.0], rng.normal(size=space.n - 1)])
        mu = molecule(space, 1, 0)
        problem = ssd._with_face_values(
            ssd._face_problem(DualFace(mu, 0.8)), vals)
        rows, rhs = _loop_face_distance_rows(space, vals, mu.masses, 0.8)
        # bitwise, signed zeros included: cold solves see identical data
        assert problem.A.tobytes() == rows.tobytes()
        assert problem.b.tobytes() == rhs.tobytes()
        A, b = lipschitz_ball_rows(space)
        k = A.shape[0]
        assert A.tobytes() == np.ascontiguousarray(rows[:k, :-1]).tobytes()
        assert b.tobytes() == rhs[:k].tobytes()


def _cold_probe(mu, eta_grid, samples, seed):
    """exposedness_probe with every LP solved cold: the reference loop."""
    space = mu.space
    norm_mu = free_norm(mu).value
    rng = np.random.default_rng(seed)
    raw = []
    for eta in eta_grid:
        worst = 0.0
        slab = ssd._slab_problem(DualFace(mu, norm_mu), eta)
        for _ in range(samples):
            sol = lp.solve(slab.with_objective(
                rng.standard_normal(space.n - 1)))
            f = from_values(space, np.concatenate([[0.0], sol.x]))
            worst = max(worst, face_distance(f, mu, norm_mu))
        raw.append(worst)
    return np.maximum.accumulate(raw)   # grids below are increasing


def _probe_cases():
    rng = np.random.default_rng(2024)
    for n in (3, 6, 10):
        tree = branching_tree(n)
        comb = MoleculeCombination(
            tree, tuple((1.0 / n, k, 0) for k in range(1, n + 1)))
        yield f"tree{n}", comb.element()
        yield f"tree{n}_fattened", MoleculeCombination(
            gamma_fatten(tree, 1.0), comb.terms).element()
    for n in (4, 7, 9):     # degenerate: ties in every ratio test
        yield f"equilateral{n}", molecule(gallery("equilateral", n=n), 1, 2)
    for k in range(4):
        space = random_euclidean_space(rng, int(rng.integers(5, 11)))
        yield f"euclidean{k}", FreeElement(space,
                                           random_zero_sum(rng, space.n))


@pytest.mark.parametrize("name,mu", list(_probe_cases()))
def test_warm_probe_matches_cold_reference(name, mu):
    grid = [0.01, 0.05, 0.2]
    warm = exposedness_probe(mu, grid, 12, seed=17)
    cold = _cold_probe(mu, grid, 12, seed=17)
    got = np.array([entry[1] for entry in warm.entries])
    assert np.max(np.abs(got - cold)) <= 1e-12


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_probe_does_not_depend_on_distance_scale(scale):
    # Lip-distances to the face are scale-invariant; solved at the input's
    # scale, these probes failed with LpError or a guard at 1e6 and 1e-6
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        space = random_euclidean_space(rng, n, dim=2)
        mu = FreeElement(space, rng.normal(size=n))
        ref = exposedness_probe(mu, [0.05, 0.2], 8, seed=3)
        got = exposedness_probe(
            FreeElement(PointedMetricSpace(scale * space.dist), mu.masses),
            [0.05, 0.2], 8, seed=3)
        np.testing.assert_allclose([e[1] for e in got.entries],
                                   [e[1] for e in ref.entries],
                                   rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n", [4, 7])
def test_warm_probe_matches_cold_under_blands_rule(n, monkeypatch):
    # with no stall allowance a degenerate pivot switches a single lane's
    # primal simplex to Bland's rule, and sends a lane whose dual simplex
    # stalls to a cold solve
    monkeypatch.setattr(lp, "_STALL_LIMIT", 0)
    mu = molecule(gallery("equilateral", n=n), 1, 2)
    warm = exposedness_probe(mu, [0.01, 0.2], 12, seed=5)
    cold = _cold_probe(mu, [0.01, 0.2], 12, seed=5)
    got = np.array([entry[1] for entry in warm.entries])
    assert np.max(np.abs(got - cold)) <= 1e-12


def _replace_slab_samples(monkeypatch, values):
    """Make every slab sample of a probe the function with these values:
    `lp.solve_many` solves only the slab LPs."""
    original = lp.solve_many

    def replaced(problem, objectives, start=None):
        return [dataclasses.replace(sol, x=values[1:])
                for sol in original(problem, objectives, start)]

    monkeypatch.setattr(lp, "solve_many", replaced)


def test_probe_guard_rejects_sample_outside_ball(monkeypatch):
    space = gallery("equilateral", n=3)
    mu = molecule(space, 1, 2)
    _replace_slab_samples(monkeypatch, 2.0 * norming_functional(mu).values)
    with pytest.raises(SsdError, match="slab_sample_in_unit_ball"):
        exposedness_probe(mu, [0.1], 4, seed=0)


def test_probe_guard_rejects_sample_outside_slab(monkeypatch):
    space = gallery("equilateral", n=3)
    mu = molecule(space, 1, 2)
    _replace_slab_samples(monkeypatch, np.zeros(space.n))
    with pytest.raises(SsdError, match="slab_sample_in_slab"):
        exposedness_probe(mu, [0.1], 4, seed=0)


def _leaf_combination(n, fattened):
    """The probe_trees element: the uniform leaf-to-base combination on
    branching_tree(n), or on its gamma = 1 fattening."""
    tree = branching_tree(n)
    space = gamma_fatten(tree, 1.0) if fattened else tree
    terms = tuple((1.0 / n, k, 0) for k in range(1, n + 1))
    return MoleculeCombination(space, terms).element()


def _count_cold_solves(monkeypatch):
    """A list that gains one entry per `lp._two_phase` call."""
    calls = []
    original = lp._two_phase

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(lp, "_two_phase", counting)
    return calls


@pytest.mark.parametrize("n,cold", [(12, 1), (4, 3)])
def test_first_slab_starts_from_the_norm_basis(n, cold, monkeypatch):
    # 13 points take the dualized path, where the norm LP's basis starts the
    # first slab LP and, with the slack of t's dual row, the first
    # face-distance LP: the only cold solve is the norm LP.  On 5 points
    # (direct path) the norm basis does not map, and the first slab and
    # face-distance LPs are solved cold too.
    calls = _count_cold_solves(monkeypatch)
    exposedness_probe(_leaf_combination(n, False), [0.05], 8, seed=11)
    assert len(calls) == cold


def test_face_family_serves_the_whole_eta_grid(monkeypatch):
    # one face-distance family for all three slabs, started from the norm
    # basis; each slab starts from the norm basis too
    calls = _count_cold_solves(monkeypatch)
    exposedness_probe(_leaf_combination(12, False), [0.01, 0.05, 0.2], 8,
                      seed=11)
    assert len(calls) == 1


def test_multi_eta_probe_canonicalizes_each_lp_once(monkeypatch):
    # the norm, slab and face-distance LPs build one canonical form each:
    # an eta changes only the slab row's right-hand side, and a sample only
    # an objective or a right-hand side.  The entries are those of the
    # probe that built a slab LP, and its canonical form, per eta.  The norm
    # LP is cached per size, so an earlier test may have built it already
    free_space._norm_lp.cache_clear()
    built = []
    original = lp._Canonical.__init__

    def counting(self, problem):
        built.append(problem.A.shape)
        original(self, problem)

    monkeypatch.setattr(lp._Canonical, "__init__", counting)
    curve = exposedness_probe(_leaf_combination(12, False),
                              [0.01, 0.05, 0.1, 0.2, 0.4], 8, seed=12)
    assert len(built) == 3
    assert [e[1].hex() for e in curve.entries] == [
        "0x1.eb851eb851ea0p-4", "0x1.3333333333334p-1",
        "0x1.3333333333330p+0", "0x1.0000000000000p+1",
        "0x1.0000000000000p+1"]


@pytest.mark.parametrize("fattened", [False, True])
@pytest.mark.parametrize("n", [7, 12])
def test_face_seed_is_the_norm_tree_plus_t_slack(n, fattened, monkeypatch):
    # started from the norm LP's basis, the face-distance solve gets the
    # norm LP's tree and the slack of t's dual row, without a tableau; its
    # B^-1 b = (0, ..., 0, 1) >= 0 for every sample (the dual columns of
    # the ball rows hold no distances, so any distance scale will do)
    mu = _leaf_combination(n, fattened)
    norm = free_norm(mu)
    assert norm.basis.path == lp.DUALIZED
    problem = ssd._face_problem(DualFace(mu, norm.value))
    calls = record_warm_solves(monkeypatch)
    sol = lp.solve(problem, start=norm.basis)
    A2, rhs, cols, factor, accepted = calls[0]
    assert accepted and factor is None
    assert cols[:-1] == norm.basis.cols
    last = np.eye(mu.space.n)[-1]
    np.testing.assert_array_equal(A2[:, cols[-1]], last)   # t's slack
    np.testing.assert_array_equal(rhs, last)
    np.testing.assert_allclose(np.linalg.solve(A2[:, list(cols)], rhs), rhs,
                               atol=1e-12)
    assert sol.basis.path == lp.DUALIZED
    assert sol.value == pytest.approx(lp.solve(problem).value, abs=1e-12)


def test_extended_start_needs_a_dualized_basis(monkeypatch):
    # on 5 points the norm LP takes the direct path: its basis is not
    # extended, does not fit the face-distance LP and is solved cold
    mu = _leaf_combination(4, False)
    norm = free_norm(mu)
    assert norm.basis.path == lp.DIRECT
    problem = ssd._face_problem(DualFace(mu, norm.value))
    calls = record_warm_solves(monkeypatch)
    cold = _count_cold_solves(monkeypatch)
    sol = lp.solve(problem, start=norm.basis)
    assert [c[2] for c in calls] == [norm.basis.cols] * len(calls)
    assert not any(c[4] for c in calls)
    assert cold
    assert sol.value == lp.solve(problem).value


@pytest.mark.parametrize("fattened", [False, True])
@pytest.mark.parametrize("n", [5, 12])
def test_probe_warm_solves_factor_at_most_once(n, fattened, monkeypatch):
    # a warm solve starts from the carried tableau (no factorization) or
    # factors its start's B once, and a batch of slab samples factors B at
    # most once for all its lanes.  Solves that end cold (a start of the
    # wrong length, on 6 points the norm basis) refine with two, and are
    # not counted; a batch does not count the solves it hands to lp.solve
    count = {"linalg": 0, "cold": 0, "in_solve": 0}
    per_warm_solve, per_batch = [], []
    originals = np.linalg.solve, lp._two_phase, lp.solve, lp.solve_many

    def counting_linalg(*args, **kwargs):
        count["linalg"] += 1
        return originals[0](*args, **kwargs)

    def counting_cold(*args):
        count["cold"] += 1
        return originals[1](*args)

    def counting_lp(problem, tol=None, start=None):
        before = dict(count)
        sol = originals[2](problem, tol, start)
        made = count["linalg"] - before["linalg"]
        count["in_solve"] += made
        if start is not None and count["cold"] == before["cold"]:
            per_warm_solve.append(made)
        return sol

    def counting_many(problem, objectives, start=None):
        before = dict(count)
        sols = originals[3](problem, objectives, start)
        per_batch.append(count["linalg"] - before["linalg"]
                         - (count["in_solve"] - before["in_solve"]))
        return sols

    monkeypatch.setattr(np.linalg, "solve", counting_linalg)
    monkeypatch.setattr(lp, "_two_phase", counting_cold)
    monkeypatch.setattr(lp, "solve", counting_lp)
    monkeypatch.setattr(lp, "solve_many", counting_many)
    exposedness_probe(_leaf_combination(n, fattened), [0.05, 0.2], 16,
                      seed=n)
    assert len(per_batch) == 2 and max(per_batch) <= 1
    assert per_warm_solve and max(per_warm_solve) <= 1
    if n == 12:
        # each batch starts from the norm basis, factored once; on 6 points
        # from the carried tableau of its first lane, solved cold
        assert per_batch == [1, 1]
    else:
        assert per_batch == [0, 0]


def _count_face_solves(monkeypatch, n):
    """A list that gains one entry per face-distance LP solve on n points:
    the only LP of a probe with n variables (g(1..n-1) and t)."""
    calls = []
    original = lp.solve

    def counting(problem, tol=None, start=None):
        if problem.A.shape[1] == n:
            calls.append(None)
        return original(problem, tol, start)

    monkeypatch.setattr(lp, "solve", counting)
    return calls


@pytest.mark.parametrize("fattened", [False, True])
def test_probe_prunes_face_distance_lps(fattened, monkeypatch):
    # on every probe_trees element the norming potential bounds every
    # sample's distance to within the LP's own gap, so one solved face LP
    # per eta certifies the other seven samples.  On branching_tree(13)
    # and (14) every sample ties with that bound, and the face LPs end a
    # few ulps on either side of it: pruned only at or below the bound,
    # those probes, and the ones on 6 and 7 leaves, solved more
    grid = [0.01, 0.05, 0.2]
    solved = {}
    for n in range(4, 17):
        mu = _leaf_combination(n, fattened)
        with monkeypatch.context() as m:
            calls = _count_face_solves(m, mu.space.n)
            exposedness_probe(mu, grid, 8, seed=12)
        solved[n] = len(calls)
    assert solved == dict.fromkeys(range(4, 17), len(grid))


@pytest.mark.parametrize("bounds,solved", [
    ((0.5, 2.0, 0.0, 0.0), 2), ((0.5, 1.0, 0.0, 0.0), 1),
    ((3.0, 0.5, 2.0, 1.0), 3)])
def test_probe_skips_samples_within_the_lp_gap(bounds, solved,
                                               monkeypatch):
    # every face LP is made to end at worst; the first sample, bounded by
    # 10, is solved first, and the others get the bounds
    # worst + k tol (1 + worst), k from `bounds`.  A bound at most
    # tol (1 + worst) above worst is skipped, one above it is solved
    worst, tol = 0.25, lp_tol()
    gap = tol * (1.0 + worst)
    mu = _leaf_combination(7, False)
    face_solves = []
    points, lip_distances = ssd._FacePoints.__call__, ssd._lip_distances

    def fixed_value(self, vals):
        face_solves.append(None)
        return worst, points(self, vals)[1]

    def crafted(space, F, G):
        if not G.any():     # the Lip norms of the slab guard
            return lip_distances(space, F, G)
        if face_solves:     # a solved face point bounds nothing more
            return np.full((len(F), len(G)), np.inf)
        return np.array([[10.0], *([worst + k * gap] for k in bounds)])

    monkeypatch.setattr(ssd._FacePoints, "__call__", fixed_value)
    monkeypatch.setattr(ssd, "_lip_distances", crafted)
    curve = exposedness_probe(mu, [0.05], 5, seed=3)
    assert len(face_solves) == solved
    assert curve.entries[0][1] == worst


@pytest.mark.parametrize("seed", range(4))
def test_face_points_carry_across_the_eta_grid(seed, monkeypatch):
    # face points found at one eta bound the samples of the next
    mu = molecule(gallery("equilateral", n=4), 1, 2)
    calls = _count_face_solves(monkeypatch, mu.space.n)
    grid = [0.01, 0.05, 0.2]
    exposedness_probe(mu, grid, 8, seed=seed)
    together = len(calls)
    for eta in grid:
        exposedness_probe(mu, [eta], 8, seed=seed)
    assert together < len(calls) - together


@pytest.mark.parametrize("factor,check", [
    (2.0, "face_point_in_unit_ball"), (0.5, "face_point_pairs_to_norm")])
def test_probe_guards_face_points(factor, check, monkeypatch):
    # the face LP's g is rescaled: out of the unit ball, or off the face.
    # Every caller of the face-distance LP checks its face points: the
    # probe, face_distance, the pipeline's projection and the head
    # projection of the 4-eps certificate
    mu = _leaf_combination(7, False)
    f = from_values(mu.space, np.zeros(mu.space.n))
    tree, gamma, comb, f_tree, g_tree = _tree_setup(4)
    truncation = _truncation(12)
    f_head = norming_functional(molecule(truncation, 0, 1))
    f_head = from_values(truncation, f_head.values / lip_norm(f_head))
    callers = [     # (points of the face-distance LP's space, the call)
        (mu.space.n, lambda: exposedness_probe(mu, [0.05], 8, seed=7)),
        (mu.space.n, lambda: face_distance(f, mu)),
        (tree.n, lambda: perturbation_pipeline(tree, gamma, comb, f_tree,
                                               g_tree, 0.04)),
        # the head x, y, z_1..z_4 (n0 = 4 at eps = 0.1)
        (6, lambda: almost_aligned_certificate(
            truncation, lambda k: 2.0 ** -k, 0.1, f_head))]
    original = lp.solve

    def rescaled(problem, tol=None, start=None):
        sol = original(problem, tol, start)
        if problem.A.shape[1] == points:
            x = sol.x.copy()
            x[:-1] *= factor
            sol = dataclasses.replace(sol, x=x)
        return sol

    monkeypatch.setattr(lp, "solve", rescaled)
    for points, call in callers:
        with pytest.raises(SsdError, match=check):
            call()


def test_lip_distances_match_lip_norm():
    rng = np.random.default_rng(31)
    space = random_euclidean_space(rng, 9)
    F = np.array([_random_function(rng, space).values for _ in range(5)])
    G = np.array([_random_function(rng, space).values for _ in range(3)])
    got = ssd._lip_distances(space, F, G)
    assert got.shape == (5, 3)
    for j, i in itertools.product(range(5), range(3)):
        assert got[j, i] == lip_norm(from_values(space, F[j] - G[i]))


def test_pruned_probe_matches_cold_reference_on_euclidean_spaces():
    # pruning changes the order of the warm face solves; the answers stay
    # within 1e-11 of solving every sample cold
    rng = np.random.default_rng(808)
    grid = [0.01, 0.05, 0.2]
    for k in range(20):
        space = random_euclidean_space(rng, int(rng.integers(5, 14)), dim=2)
        mu = FreeElement(space, random_zero_sum(rng, space.n))
        warm = exposedness_probe(mu, grid, 16, seed=k)
        got = np.array([entry[1] for entry in warm.entries])
        assert np.max(np.abs(got - _cold_probe(mu, grid, 16, k))) <= 1e-11


@pytest.mark.parametrize("fattened", [False, True])
@pytest.mark.parametrize("n", range(4, 17))
def test_seeded_probe_matches_cold_reference_on_trees(n, fattened):
    mu = _leaf_combination(n, fattened)
    warm = exposedness_probe(mu, [0.05], 8, seed=n)
    cold = _cold_probe(mu, [0.05], 8, seed=n)
    assert abs(warm.entries[0][1] - cold[0]) <= 1e-12


@pytest.mark.parametrize("fattened", [False, True])
@pytest.mark.parametrize("n", range(7, 17))
def test_seeded_multi_eta_probe_matches_cold_reference_on_trees(n, fattened):
    # the face-distance family carries its basis from one slab to the next
    grid = [0.01, 0.05, 0.2]
    mu = _leaf_combination(n, fattened)
    warm = exposedness_probe(mu, grid, 8, seed=n)
    cold = _cold_probe(mu, grid, 8, seed=n)
    got = np.array([entry[1] for entry in warm.entries])
    assert np.max(np.abs(got - cold)) <= 1e-12


def test_rejected_face_seed_falls_back_to_cold(monkeypatch):
    # every face-distance start without a carried tableau (the seed among
    # them) is rejected: those solves run cold and give the cold answer
    mu = _leaf_combination(12, False)
    rejected = []
    original = lp._start_tableau

    def rejecting(A2, R, cols, factor=None):
        if A2.shape[0] == mu.space.n and factor is None:
            rejected.append(None)
            return None
        return original(A2, R, cols, factor)

    calls = _count_cold_solves(monkeypatch)
    monkeypatch.setattr(lp, "_start_tableau", rejecting)
    grid = [0.01, 0.2]
    warm = exposedness_probe(mu, grid, 8, seed=3)
    assert rejected
    assert len(calls) == 1 + len(rejected)
    cold = _cold_probe(mu, grid, 8, seed=3)
    got = np.array([entry[1] for entry in warm.entries])
    assert np.max(np.abs(got - cold)) <= 1e-12


def _random_function(rng, space):
    return from_values(space, np.concatenate([[0.0],
                                              rng.normal(size=space.n - 1)]))


def test_face_distance_of_a_norming_functional_is_zero():
    # f already on the face: the face LP can end a few ulps below t >= 0,
    # and unclamped, spaces 18, 39, 41 and 43 gave -2.6e-15, -6.2e-33,
    # -7.0e-33 and -3.2e-16
    rng = np.random.default_rng(1)
    got = []
    for _ in range(60):
        space = random_euclidean_space(rng, int(rng.integers(3, 9)), dim=2)
        mu = FreeElement(space, rng.normal(size=space.n))
        got.append(face_distance(norming_functional(mu), mu))
    assert min(got) >= 0.0
    assert [got[k] for k in (18, 39, 41, 43)] == [0.0] * 4


def test_face_distance_rejects_two_spaces():
    # with one n, f's distances were used with mu's masses (a distance was
    # returned); with two, numpy failed to broadcast
    f = from_values(gallery("line", n=4), np.arange(4.0))
    for space in (gallery("equilateral", n=4), gallery("equilateral", n=5)):
        with pytest.raises(FreeSpaceError,
                           match="operands live on different spaces"):
            face_distance(f, molecule(space, 1, 0))


def test_face_distance_does_not_depend_on_distance_scale():
    # solved at the input's scale, 6 of these 12 calls failed at 1e6 and
    # 2 at 1e-6
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        space = random_euclidean_space(rng, n, dim=2)
        masses = rng.normal(size=n)
        f = _random_function(rng, space)
        got = []
        for scale in (1.0, 1e-6, 1e6):
            scaled = PointedMetricSpace(scale * space.dist)
            got.append(face_distance(from_values(scaled, scale * f.values),
                                     FreeElement(scaled, masses)))
        np.testing.assert_allclose(got[1:], got[0], rtol=1e-9, atol=0.0)


def test_probe_builds_each_lp_once(monkeypatch):
    # the face-distance LP and the slab LP once per probe: an eta changes
    # only the slab row's right-hand side
    grid = [0.01, 0.05, 0.2]
    mu = _leaf_combination(6, False)
    builds = {"_slab_problem": 0, "_face_problem": 0}
    for name in builds:
        def counting(*args, _name=name, _original=getattr(ssd, name),
                     **kwargs):
            builds[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ssd, name, counting)
    exposedness_probe(mu, grid, 8, seed=3)
    assert builds == {"_slab_problem": 1, "_face_problem": 1}


def test_slab_sample_rejects_malformed_objectives():
    mu = _leaf_combination(6, False)
    space = mu.space
    norm_mu = free_norm(mu).value
    slab = ssd._slab_problem(DualFace(mu, norm_mu), 0.1)
    rng = np.random.default_rng(3)
    start = free_norm(mu).basis
    for sol in lp.solve_many(slab, rng.normal(size=(4, space.n - 1)),
                             start):
        f = from_values(space, np.concatenate([[0.0], sol.x]))
        assert pairing(f, mu) >= norm_mu * 0.9 - 1e-9
    with pytest.raises(lp.LpError):
        lp.solve_many(slab, np.full((2, space.n - 1), np.nan), start)
    with pytest.raises(lp.LpError):
        lp.solve_many(slab, np.ones((2, space.n)), start)


# ---------------------------------------------------------------------------
# single-molecule perturbation
# ---------------------------------------------------------------------------

def test_single_molecule_fixed_point():
    space = gallery("equilateral", n=3)
    f = aux_f_xy(space, 1, 2)
    h, bound = single_molecule_perturb(space, 1, 2, f, 0.5, f, 0.1)
    assert lip_norm(from_values(space, h.values - f.values)) <= 1e-9
    gamma_eps = 0.5 * 0.1 * 0.5 / 3.9
    assert bound == pytest.approx(1.0 - 0.975 * (1.0 - gamma_eps) + 0.025)


def test_single_molecule_from_probe_sample():
    space = gallery("equilateral", n=3)
    f = aux_f_xy(space, 1, 2)
    eps = 0.1
    gamma_eps = 0.5 * eps * 0.5 / (4.0 - eps)
    mol = molecule(space, 1, 2)
    # a g inside the gamma_eps slab, renormalized to the sphere
    A, b = lipschitz_ball_rows(space)
    rows = np.vstack([A, -mol.masses[1:]])
    rhs = np.concatenate([b, [-(1.0 - gamma_eps / 2.0)]])
    sol = lp.solve(lp.LpProblem.build(np.array([1.0, -1.0]), rows,
                                      [lp.LE] * len(rhs), rhs, maximize=True))
    g = from_values(space, np.concatenate([[0.0], sol.x]))
    g = from_values(space, g.values / lip_norm(g))
    assert pairing(g, mol) > 1.0 - gamma_eps
    h, bound = single_molecule_perturb(space, 1, 2, f, 0.5, g, eps)
    assert abs(pairing(h, mol) - lip_norm(h)) <= 1e-8
    assert lip_norm(from_values(space, h.values - g.values)) <= bound + 1e-9
    # independent check: h sits on the dual face of the molecule
    assert face_distance(h, mol) <= 1e-7


def test_single_molecule_precondition():
    space = gallery("equilateral", n=3)
    f = aux_f_xy(space, 1, 2)
    far = aux_f_xy(space, 2, 1)   # slope -1 at (1, 2)
    with pytest.raises(SsdError):
        single_molecule_perturb(space, 1, 2, f, 0.5, far, 0.1)


# ---------------------------------------------------------------------------
# the fattened-space pipeline
# ---------------------------------------------------------------------------

def _line_setup(eps=0.04):
    space = line_space([0.0, 1.0, 2.0, 3.0])
    gamma = 1.0
    fattened = gamma_fatten(space, gamma)
    comb = MoleculeCombination(fattened, ((1.0, 1, 0),))
    f = from_values(space, np.array([0.0, 1.0, 2.0, 3.0]))
    g = norming_functional(comb.element())
    return space, gamma, comb, f, g, eps


def test_pipeline_line_certified():
    space, gamma, comb, f, g, eps = _line_setup()
    res = perturbation_pipeline(space, gamma, comb, f, g, eps)
    assert res.status == CERTIFIED
    assert all(c.ok for c in res.verified)
    assert res.beta == 1.0
    assert res.T == 33.0
    assert res.S < 1.0
    assert res.rho > 0.0
    mu = comb.element()
    assert abs(pairing(res.psi, mu) - lip_norm(res.psi)) <= 1e-8
    dist = lip_norm(from_values(g.space, res.psi.values - g.values))
    assert dist <= res.bound + 1e-9
    assert res.bound == pytest.approx(max(eps, eps) + 2.0 * np.sqrt(eps))


def test_pipeline_perturbed_g_still_certified():
    space, gamma, comb, f, g, eps = _line_setup()
    first = perturbation_pipeline(space, gamma, comb, f, g, eps)
    rho = first.rho
    mu = comb.element()
    # find a norm-one g with pairing exactly 1 - rho/2
    A, b = lipschitz_ball_rows(g.space)
    rows = np.vstack([A, mu.masses[1:]])
    rhs = np.concatenate([b, [free_norm(mu).value * (1.0 - rho / 2.0)]])
    senses = [lp.LE] * len(b) + [lp.EQ]
    sol = lp.solve(lp.LpProblem.build(np.array([0.0, 0.0, 1.0]), rows,
                                      senses, rhs, maximize=True))
    g2 = from_values(g.space, np.concatenate([[0.0], sol.x]))
    g2 = from_values(g.space, g2.values / lip_norm(g2))
    assert pairing(g2, mu) > 1.0 - rho
    res = perturbation_pipeline(space, gamma, comb, f, g2, eps)
    assert res.status == CERTIFIED
    assert lip_norm(from_values(g.space, res.psi.values - g2.values)) \
        <= res.bound + 1e-9


def test_pipeline_overlapping_supports():
    space = line_space([0.0, 1.0, 2.0, 3.0])
    fattened = gamma_fatten(space, 1.0)
    comb = MoleculeCombination(fattened, ((0.5, 1, 0), (0.5, 2, 1)))
    f = from_values(space, np.array([0.0, 1.0, 2.0, 3.0]))
    g = norming_functional(comb.element())
    res = perturbation_pipeline(space, 1.0, comb, f, g, 0.04)
    assert res.status == PRECONDITION_FAILED
    assert res.verified[0].name == "disjoint_supports"
    assert not res.verified[0].ok


def test_pipeline_eps_too_large():
    space, gamma, comb, f, g, _ = _line_setup()
    res = perturbation_pipeline(space, gamma, comb, f, g, 0.9)
    assert res.status == PRECONDITION_FAILED
    assert "eps too large" in res.message


def test_pipeline_far_g_rejected():
    space, gamma, comb, f, g, eps = _line_setup()
    # slope -1 on the distinguished pair: pairing is far below 1 - rho
    bad = from_values(g.space, np.array([0.0, -2.0, -2.0, -2.0]))
    res = perturbation_pipeline(space, gamma, comb, f, bad, eps)
    assert res.status == PRECONDITION_FAILED
    assert "pairing" in res.message


def test_pipeline_inner_pair_bound_recorded():
    space, gamma, comb, f, g, eps = _line_setup()
    res = perturbation_pipeline(space, gamma, comb, f, g, eps)
    names = [c.name for c in res.verified]
    assert "slope_gap" in names
    assert "taper_tail" in names
    assert "distance_bound" in names


def _tree_setup(n, gamma=1.0):
    """The probe_trees pipeline input: the uniform leaf-to-base combination
    on the gamma-fattened branching_tree(n)."""
    tree = branching_tree(n)
    terms = tuple((1.0 / n, k, 0) for k in range(1, n + 1))
    comb = MoleculeCombination(gamma_fatten(tree, gamma), terms)
    f = find_common_norming(tree, MoleculeCombination(tree, terms))
    return tree, gamma, comb, f, norming_functional(comb.element())


def test_pipeline_inner_pair_bound_matches_loop(monkeypatch):
    # the bound over the pairs inside the radius-beta ball, one masked
    # broadcast, has the margin of the pair loop it replaced, bitwise
    lifts = []
    original = ssd.g_gamma_construct

    def capturing(*args):
        lifts.append(original(*args))
        return lifts[-1]

    monkeypatch.setattr(ssd, "g_gamma_construct", capturing)
    # a point inside the radius-beta ball off the support set
    inner = line_space([0.0, 0.5, 1.0, 2.0, 3.0])
    comb = MoleculeCombination(gamma_fatten(inner, 1.0), ((1.0, 2, 0),))
    setups = [(inner, 1.0, comb, from_values(inner, inner.dist[0]),
               norming_functional(comb.element()))]
    setups += [_line_setup()[:5]] + [_tree_setup(n) for n in (4, 9, 14)]
    recorded = 0
    for space, gamma, comb, f, g in setups:
        res = perturbation_pipeline(space, gamma, comb, f, g, 0.04)
        N = [0] + [t[1] for t in comb.terms] + [t[2] for t in comb.terms]
        G, beta = lifts[-1], ssd.radius_beta(space, sorted(set(N)))
        in_n = np.zeros(space.n, dtype=bool)
        in_n[N] = True
        d0 = space.dist[0]
        bound = (2.0 * beta + gamma / 2.0) / (2.0 * beta + gamma)
        sl = np.abs(ssd.slope_matrix(G))
        worst = np.inf
        for p in range(space.n):
            for q in range(p + 1, space.n):
                if (in_n[p] and in_n[q]) or d0[p] > beta or d0[q] > beta:
                    continue
                worst = min(worst, bound - sl[p, q])
        got = [c.margin for c in res.verified if c.name == "inner_pair_bound"]
        assert got == ([float(worst) + lp_tol()] if np.isfinite(worst)
                       else [])
        recorded += len(got)
    assert recorded


@pytest.mark.parametrize("index", [4, 9, 16])
def test_certificate_interior_pairs_match_loop(index):
    space = _truncation(index)
    eps = 0.1
    f = norming_functional(molecule(space, 0, 1))
    f = from_values(space, f.values / lip_norm(f))
    cert = almost_aligned_certificate(space, lambda k: 2.0 ** -k, eps, f)
    diff = from_values(space, cert.h.values - f.values)
    m, n0 = space.n - 2, cert.n0
    worst4 = 0.0
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            dz = abs(pair_slope(diff, i + 1, j + 1))
            bound = (2.0 * eps if j <= n0 else 3.0 * eps if i <= n0
                     else 4.0 * eps)
            worst4 = max(worst4, dz - bound)
    got = [c.margin for c in cert.checks if c.name == "case4_interior_pairs"]
    assert got == [-worst4 + lp_tol()]


def test_witness_reports_the_first_failing_pair(monkeypatch):
    # the LP's norming function is tampered with until the shifted witness
    # fails on some pairs; the error names the first in the order of the
    # terms, with its margin, as the pair loop did.  The witness is built
    # at the unit scale s of the doubly fattened space, so the loop runs
    # on space / s with gamma / s
    space, gamma = branching_tree(6), 0.25
    double = gamma_fatten(space, 2 * gamma)
    comb = optimal_representation(FreeElement(
        double, np.array([0.0, 1.0, 1.0, -1.0, -1.0, 0.5, -0.5])))
    _, s = unit_scale(double)
    unit_gamma = gamma / s
    single = gamma_fatten(PointedMetricSpace(space.dist / s), unit_gamma)
    tol = lp_tol()
    xs, ys = [t[1] for t in comb.terms], [t[2] for t in comb.terms]
    original = lp.solve
    values = []
    later_first = 0
    for seed in range(8):
        noise = np.random.default_rng(seed).normal(size=space.n - 1)

        def tampered(problem, tol=None, start=None):
            sol = dataclasses.replace(original(problem, tol, start))
            sol.x = sol.x + noise
            values.append(np.concatenate([[0.0], sol.x]))
            return sol

        monkeypatch.setattr(lp, "solve", tampered)
        try:
            common_norming_witness(space, gamma, comb)
            message = ""
        except (SsdError, LipschitzError) as exc:
            message = str(exc)
        f = values[-1]
        shifted = {0: 0.0, **{x: f[x] - unit_gamma for x in xs},
                   **{y: f[y] for y in ys}}
        failing = []
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                diff = shifted[x] - shifted[y]
                margin = (single.d(x, y) - (f[x] - f[y] - unit_gamma)
                          if diff >= 0 else single.d(x, y) + diff)
                if x != y and margin < -tol:
                    failing.append((i, j, float(margin)))
        if not failing:
            assert not message.startswith("shifted witness")
            continue
        i, j, margin = failing[0]
        assert message == ("shifted witness is not 1-Lipschitz on the pair "
                           f"({xs[i]}, {ys[j]}); margin {margin!r}")
        later_first += len(failing) > 1 and (i, j) != (0, 0)
    assert later_first


def _witness_rows_loop(space, gamma, terms):
    """The loops that built the LP of `common_norming_witness`, kept as the
    reference for its array form: (A, senses, b)."""
    single = gamma_fatten(space, gamma)
    A, b, senses = ssd._norming_rows(gamma_fatten(space, 2.0 * gamma), terms)
    xs = [t[1] for t in terms]
    ys = [t[2] for t in terms]
    extra_rows, extra_rhs = [], []
    for x in set(xs):
        r = np.zeros(space.n - 1)
        r[x - 1] = 1.0
        extra_rows += [r, -r]
        extra_rhs += [single.d(0, x) + gamma, single.d(0, x) - gamma]
    for y in set(ys) - {0}:
        r = np.zeros(space.n - 1)
        r[y - 1] = 1.0
        extra_rows += [r, -r]
        extra_rhs += [single.d(0, y), single.d(0, y)]
    return (np.vstack([A, extra_rows]), senses + [lp.LE] * len(extra_rhs),
            np.concatenate([b, extra_rhs]))


def test_witness_rows_match_loops(monkeypatch):
    # bitwise, signed zeros included, and in the loops' row order, which
    # follows set iteration: points from 8 up can hash out of sorted order.
    # The LP is built at the unit scale s of the doubly fattened space, so
    # the loops run on space / s with gamma / s
    original, built = lp.solve, []

    def recording(problem, tol=None, start=None):
        built.append(problem)
        return original(problem, tol, start)

    monkeypatch.setattr(lp, "solve", recording)
    rng = np.random.default_rng(7200)
    checked = unsorted = 0
    for _ in range(40):
        n = int(rng.integers(4, 15))
        space = random_euclidean_space(rng, n, dim=2)
        gamma = float(rng.uniform(0.05, 0.5))
        comb = optimal_representation(FreeElement(
            gamma_fatten(space, 2.0 * gamma), random_zero_sum(rng, n)))
        built.clear()
        try:
            common_norming_witness(space, gamma, comb)
        except (SsdError, LipschitzError):
            pass
        if not built:       # rejected before its LP: the base is a source
            continue
        _, s = unit_scale(gamma_fatten(space, 2.0 * gamma))
        A, senses, b = _witness_rows_loop(
            PointedMetricSpace(space.dist / s), gamma / s, comb.terms)
        assert built[0].A.tobytes() == A.tobytes()
        assert built[0].b.tobytes() == b.tobytes()
        assert built[0].senses == tuple(senses)
        checked += 1
        points = {t[1] for t in comb.terms}
        unsorted += list(points) != sorted(points)
    assert checked >= 10 and unsorted


def test_projection_status_error_names_the_face_distance_lp(monkeypatch):
    space = line_space([0.0, 1.0, 2.0])
    monkeypatch.setattr(lp, "solve", lambda problem, tol=None, start=None:
                        lp.LpSolution("infeasible"))
    with pytest.raises(SsdError, match="^face-distance LP ended with status "
                                       "infeasible$"):
        ssd._FacePoints(DualFace(molecule(space, 1, 0), 1.0))(
            np.array([0.0, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# common norming search and the tilde-f witness
# ---------------------------------------------------------------------------

def test_find_common_norming_line():
    space = line_space([0.0, 1.0, 2.0, 3.0])
    comb = MoleculeCombination(space, ((0.5, 1, 0), (0.5, 3, 2)))
    f = find_common_norming(space, comb)
    assert lip_norm(f) <= 1.0 + 1e-9
    for _, x, y in comb.terms:
        assert f(x) - f(y) == pytest.approx(space.d(x, y), abs=1e-9)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_find_common_norming_does_not_depend_on_distance_scale(scale):
    # solved at the input's scale, f normed the pairs only to 2e-3
    # relative at distance scale 1e-6
    rng = np.random.default_rng(2025)
    for _ in range(40):
        n = int(rng.integers(4, 12))
        space = random_euclidean_space(rng, n, dim=2)
        mu = FreeElement(space, random_zero_sum(rng, n))
        terms = optimal_representation(mu).terms
        total = sum(t[0] for t in terms)
        scaled = PointedMetricSpace(scale * space.dist)
        comb = MoleculeCombination(
            scaled, tuple((lam / total, x, y) for lam, x, y in terms))
        f = find_common_norming(scaled, comb)
        for _, x, y in comb.terms:
            d = scaled.d(x, y)
            assert abs(f(x) - f(y) - d) <= 1e-9 * d
        assert lip_norm(f) <= 1.0 + 1e-9


def _scaled_cases():
    """Seeded random 2-D Euclidean spaces, each with random masses."""
    rng = np.random.default_rng(2026)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        yield random_euclidean_space(rng, n, dim=2), rng.normal(size=n)


def _perturb_status(space, gamma, masses, eps=1e-4):
    """The status of the `perturb` command's pipeline on these inputs."""
    fattened = gamma_fatten(space, gamma)
    comb = optimal_representation(FreeElement(fattened, masses))
    total = comb.weight_sum()
    comb = MoleculeCombination(
        fattened, tuple((lam / total, x, y) for lam, x, y in comb.terms))
    f = find_common_norming(space, MoleculeCombination(space, comb.terms))
    g = norming_functional(comb.element())
    return perturbation_pipeline(space, gamma, comb, f, g, eps).status


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_pipeline_status_does_not_depend_on_distance_scale(scale):
    # with gamma scaled too, the statuses are those at scale 1; solved at
    # the input's scale, the projection LP failed its primal residual on 2
    # of these 12 cases at 1e6
    for space, masses in _scaled_cases():
        ref = _perturb_status(space, 0.5, masses)
        scaled = PointedMetricSpace(scale * space.dist)
        assert _perturb_status(scaled, 0.5 * scale, masses) == ref


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_witness_does_not_depend_on_distance_scale(scale):
    # the witness norms every term to within 1e-9 relative at every scale
    for space, _ in _scaled_cases():
        space = PointedMetricSpace(scale * space.dist)
        gamma = 0.5 * scale
        comb = optimal_representation(
            molecule(gamma_fatten(space, 2.0 * gamma), 1, 0))
        witness = common_norming_witness(space, gamma, comb)
        single = gamma_fatten(space, gamma)
        for _, x, y in comb.terms:
            d = single.d(x, y)
            assert abs(witness(x) - witness(y) - d) <= 1e-9 * d


def test_find_common_norming_infeasible():
    space = line_space([0.0, 1.0, 2.0, 3.0])
    comb = MoleculeCombination(space, ((0.5, 1, 0), (0.5, 0, 3)))
    with pytest.raises(SsdError):
        find_common_norming(space, comb)


def test_witness_branching_tree():
    space = branching_tree(4)
    gamma = 0.5
    double = gamma_fatten(space, 2 * gamma)
    raw = molecule(double, 1, 2)
    mu = (1.0 / free_norm(raw).value) * raw if free_norm(raw).value != 1.0 \
        else raw
    comb = optimal_representation(mu)
    witness = common_norming_witness(space, gamma, comb)
    single = gamma_fatten(space, gamma)
    assert lip_norm(witness) <= 1.0 + 1e-9
    for _, x, y in comb.terms:
        assert witness(x) - witness(y) == pytest.approx(single.d(x, y),
                                                        abs=1e-9)


def test_witness_feeds_pipeline():
    space = branching_tree(4)
    gamma = 0.5
    double = gamma_fatten(space, 2 * gamma)
    comb = optimal_representation(molecule(double, 1, 2))
    witness = common_norming_witness(space, gamma, comb)
    single = gamma_fatten(space, gamma)
    comb_single = MoleculeCombination(single, comb.terms)
    g = norming_functional(MoleculeCombination(double, comb.terms).element())
    res = perturbation_pipeline(single, gamma, comb_single, witness, g, 1e-4)
    assert res.status == CERTIFIED


def test_witness_rejects_non_optimal():
    space = branching_tree(4)
    double = gamma_fatten(space, 1.0)
    comb = MoleculeCombination(double, ((0.6, 1, 2), (0.4, 2, 1)))
    with pytest.raises(SsdError):
        common_norming_witness(space, 0.5, comb)


def test_witness_single_molecule_trivial_case():
    space = line_space([0.0, 1.0, 2.0, 3.0])
    double = gamma_fatten(space, 0.6)
    comb = optimal_representation(molecule(double, 1, 0))
    witness = common_norming_witness(space, 0.3, comb)
    single = gamma_fatten(space, 0.3)
    assert witness(1) - witness(0) == pytest.approx(single.d(1, 0), abs=1e-9)


# ---------------------------------------------------------------------------
# the 4-eps certificate
# ---------------------------------------------------------------------------

def _truncation(n):
    return gallery("almost_aligned").generate(n)[0]


def test_certificate_exact_norming_input():
    space = _truncation(12)
    eps = 0.1
    f = norming_functional(molecule(space, 0, 1))
    f = from_values(space, f.values / lip_norm(f))
    cert = almost_aligned_certificate(space, lambda k: 2.0 ** -k, eps, f)
    assert cert.n0 == 4
    assert cert.gamma_cut == pytest.approx(eps / 4.0)
    assert pair_slope(cert.h, 0, 1) == pytest.approx(1.0, abs=1e-9)
    assert cert.distance <= 4.0 * eps + 1e-9
    assert all(c.ok for c in cert.checks)


def test_certificate_probe_sample_input():
    space = _truncation(12)
    eps = 0.1
    gamma_cut = eps / 4.0
    mol = molecule(space, 0, 1)
    A, b = lipschitz_ball_rows(space)
    rows = np.vstack([A, -mol.masses[1:]])
    rhs = np.concatenate([b, [-(1.0 - gamma_cut / 2.0)]])
    rng = np.random.default_rng(17)
    sol = lp.solve(lp.LpProblem.build(rng.standard_normal(space.n - 1), rows,
                                      [lp.LE] * len(rhs), rhs, maximize=True))
    f = from_values(space, np.concatenate([[0.0], sol.x]))
    f = from_values(space, f.values / lip_norm(f))
    cert = almost_aligned_certificate(space, lambda k: 2.0 ** -k, eps, f)
    assert cert.distance <= 4.0 * eps + 1e-8
    assert lip_norm(from_values(space, cert.h.values - f.values)) \
        == pytest.approx(cert.distance)
    # the far-tail case margins are recorded individually
    names = {c.name for c in cert.checks}
    assert "case3_xz_10" in names
    assert all(c.ok for c in cert.checks if c.name.startswith("case3"))


def test_certificate_rejects_far_f():
    space = _truncation(8)
    vals = np.zeros(space.n)
    vals[1] = -0.5   # slope 0.5 at the distinguished pair only
    f = from_values(space, vals)
    f = from_values(space, f.values / lip_norm(f))
    with pytest.raises(SsdError):
        almost_aligned_certificate(space, lambda k: 2.0 ** -k, 0.1, f)


def test_certificate_needs_deep_truncation():
    space = _truncation(3)   # all levels are >= eps = 0.1
    f = norming_functional(molecule(space, 0, 1))
    f = from_values(space, f.values / lip_norm(f))
    with pytest.raises(SsdError):
        almost_aligned_certificate(space, lambda k: 2.0 ** -k, 0.1, f)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -0.1])
def test_certificate_rejects_eps_outside_open_half_line(eps):
    # NaN was reported as "truncation too small", and inf gave a vacuous
    # certificate
    space = _truncation(12)
    f = norming_functional(molecule(space, 0, 1))
    f = from_values(space, f.values / lip_norm(f))
    with pytest.raises(SsdError, match="eps must be positive and finite"):
        almost_aligned_certificate(space, lambda k: 2.0 ** -k, eps, f)


# ---------------------------------------------------------------------------
# degenerate sizes and the unit of distance
# ---------------------------------------------------------------------------

def test_face_distance_on_a_one_point_space(recwarn):
    # its distance scale was 0: two RuntimeWarnings, then ZeroDivisionError
    one = PointedMetricSpace(np.zeros((1, 1)))
    assert face_distance(from_values(one, [0.0]),
                         FreeElement(one, [0.0])) == 0.0
    assert not recwarn.list


def test_find_common_norming_on_a_one_point_space(monkeypatch):
    # an LP over no variables and no rows: numpy's argmin of an empty
    # sequence raised in the simplex
    one = PointedMetricSpace(np.zeros((1, 1)))
    original, sols = lp.solve, []

    def recording(problem, tol=None, start=None):
        sols.append(original(problem, tol, start))
        return sols[-1]

    monkeypatch.setattr(lp, "solve", recording)
    f = find_common_norming(one, MoleculeCombination(one, ()))
    assert f.values.tolist() == [0.0]
    assert [(s.status, s.value) for s in sols] == [("optimal", 0.0)]


def _hexes(out):
    """The floats of a nested output in order, as float.hex: equal lists
    are bitwise equal outputs."""
    if isinstance(out, (tuple, list, np.ndarray)):
        return [h for v in out for h in _hexes(v)]
    return [float(out).hex()]


def _unit_outputs(space, c, masses, vals):
    """The outputs of every LP site over the ball on the space, with the
    values of f scaled by c and every returned value divided by c."""
    mu = FreeElement(space, masses)
    norm = free_norm(mu)
    f = from_values(space, c * vals)
    double = gamma_fatten(space, c)
    sink_base = masses if masses[0] <= 0.0 else -masses
    comb = optimal_representation(FreeElement(double, sink_base))
    dist, g = ssd._FacePoints(DualFace(mu, norm.value))(c * vals)
    probe = exposedness_probe(mu, [0.05, 0.2], 6, seed=4)
    return {
        "norm": (norm.value / c, norm.potential.values / c),
        "ranges": face_coordinate_ranges(dual_face(mu)) / c,
        "gateaux": is_gateaux(mu),
        "face_distance": face_distance(f, mu),
        "probe": probe.entries,
        "norming": find_common_norming(space, optimal_representation(
            mu)).values / c,
        "witness": common_norming_witness(space, 0.5 * c, comb).values / c,
        "projection": (dist, g / c),
    }


@pytest.mark.parametrize("k", [-20, -3, 5, 20])
def test_lp_sites_are_bitwise_covariant_in_the_unit_of_distance(k):
    # every LP over the ball runs on unit_scale(space), which is the same
    # space bitwise for t d and d when t = 2^k: values scale by t exactly
    # (dividing by t is exact), distances do not change
    t = 2.0 ** k
    rng = np.random.default_rng(2027)
    for _ in range(3):
        n = int(rng.integers(4, 8))
        space = random_euclidean_space(rng, n, dim=2)
        masses = FreeElement(space, random_zero_sum(rng, n)).masses
        vals = np.concatenate([[0.0], rng.normal(size=n - 1)])
        want = _unit_outputs(space, 1.0, masses, vals)
        got = _unit_outputs(PointedMetricSpace(t * space.dist), t, masses,
                            vals)
        for name in want:
            assert _hexes(got[name]) == _hexes(want[name]), name


@pytest.mark.parametrize("seed", [3, 26])
def test_witness_on_large_distances(seed):
    # random 2-D Euclidean points at distance scale 1e6, gamma half the
    # largest distance, for the molecule m_10 and for random masses with
    # the base as a sink: built at the input's scale, the witness failed
    # its term check (seed 26, molecule) or its pair check (seed 3,
    # masses, margin -1.9e-9)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    pts = rng.normal(size=(n, 2))
    space = PointedMetricSpace(
        1e6 * np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    rng.normal(size=n)      # the draws of the other library cases
    masses = FreeElement(space, rng.normal(size=n)).masses
    gamma = 0.5 * space.dist.max()
    double = gamma_fatten(space, 2.0 * gamma)
    single = gamma_fatten(space, gamma)
    for mu in (molecule(double, 1, 0), FreeElement(
            double, masses if masses[0] <= 0.0 else -masses)):
        comb = optimal_representation(mu)
        witness = common_norming_witness(space, gamma, comb)
        assert lip_norm(witness) <= 1.0 + 1e-9
        for _, x, y in comb.terms:
            d = single.d(x, y)
            assert abs(witness(x) - witness(y) - d) <= 1e-9 * d


# ---------------------------------------------------------------------------
# contract rows: an input that fails each named check
# ---------------------------------------------------------------------------

def _pipeline_row(eps, negate):
    """The status of the pipeline on the probe_trees input for n = 4
    (branching_tree(4), gamma = 1, g the norming functional, or -g)."""
    tree, gamma, comb, f, g = _tree_setup(4)
    if negate:
        g = from_values(g.space, -g.values)
    return perturbation_pipeline(tree, gamma, comb, f, g, eps).status


def _certificate_row(match, sign=1.0, n=12, eps=0.1):
    """The exception of the 4-eps certificate on the truncation with n
    interior points, for sign times the normalized norming functional of its
    molecule m_xy, with a message that matches `match`."""
    space = _truncation(n)
    f = norming_functional(molecule(space, 0, 1))
    f = from_values(space, sign * f.values / lip_norm(f))
    with pytest.raises(SsdError, match=match):
        almost_aligned_certificate(space, lambda k: 2.0 ** -k, eps, f)
    return SsdError


def _head_projection_row(monkeypatch):
    """The certificate's exception when every face point comes back at
    Lip-distance 1."""
    points = ssd._FacePoints.__call__
    monkeypatch.setattr(ssd._FacePoints, "__call__",
                        lambda self, vals: (1.0, points(self, vals)[1]))
    return _certificate_row(
        r"check head_projection_within_eps failed with margin -0\.9; "
        r"supply f with pairing closer to one")


def _zero_face_point_row(monkeypatch):
    """The certificate's exception when the head's face point comes back as
    the zero function, at Lip-distance 0: h, the extension of zero from
    the head, norms nothing and lies at Lip-distance 2 from f."""
    monkeypatch.setattr(ssd._FacePoints, "__call__",
                        lambda self, vals: (0.0, np.zeros_like(vals)))
    return _certificate_row("certificate checks failed")


def _halved_face_point_row(monkeypatch):
    """The certificate's exception when the head's face point comes back
    halved, at Lip-distance 0, on a truncation whose head is every point
    (3 interior points, eps = 0.2): h is the halved point, of norm 1/2."""
    points = ssd._FacePoints.__call__
    monkeypatch.setattr(ssd._FacePoints, "__call__",
                        lambda self, vals: (0.0, 0.5 * points(self, vals)[1]))
    return _certificate_row("certificate checks failed", n=3, eps=0.2)


def _anti_norming_row(monkeypatch):
    """The certificate's exception for -f, with f norming m_xy, when the
    pairing says that -f norms m_xy too: every slope floor fails, then the
    head projection."""
    monkeypatch.setattr(ssd, "pairing", lambda f, mu: 1.0)
    return _certificate_row("check head_projection_within_eps failed",
                            sign=-1.0)


# (check name, input, status or exception, margin as measured)
_CONTRACT = [
    ("rho_positive", lambda mp: _pipeline_row(0.5, False),
     PRECONDITION_FAILED, -0.5518),
    ("g_close_enough", lambda mp: _pipeline_row(0.04, True),
     PRECONDITION_FAILED, -1.99375),
    ("head_projection_within_eps", _head_projection_row, SsdError, -0.9),
    ("h_norms_molecule", _zero_face_point_row, SsdError, -1.0),
    ("h_norm_one", _halved_face_point_row, SsdError, -0.5),
    ("case1_molecule", _zero_face_point_row, SsdError, -0.9),
    ("case2_xz_1", _zero_face_point_row, SsdError, -0.8),
    ("case2_zy_1", _zero_face_point_row, SsdError, -0.3),
    ("total_distance_4eps", _zero_face_point_row, SsdError, -1.6),
    ("slope_floor_xz_1", _anti_norming_row, SsdError, -0.95),
    ("slope_floor_zy_1", _anti_norming_row, SsdError, -0.975),
]


@pytest.mark.parametrize("name,run,outcome,margin", _CONTRACT,
                         ids=[row[0] for row in _CONTRACT])
def test_named_check_fails_on_its_contract_input(name, run, outcome, margin,
                                                 monkeypatch):
    recorded = []
    check = ssd._check

    def recording(verified, name, margin, strict=False):
        ok = check(verified, name, margin, strict)
        recorded.append(verified[-1])
        return ok

    monkeypatch.setattr(ssd, "_check", recording)
    assert run(monkeypatch) == outcome
    got = [c for c in recorded if c.name == name]
    assert len(got) == 1 and not got[0].ok
    assert got[0].margin < 0.0
    assert got[0].margin == pytest.approx(margin, abs=1e-4)
