import numpy as np
import pytest
from scipy.optimize import linprog

import freegeo.free_space as free_space
from freegeo.free_space import (FreeElement, FreeSpaceError,
                                MoleculeCombination, delta, dual_face,
                                face_coordinate_ranges, free_norm,
                                is_gateaux, molecule, norming_functional,
                                optimal_representation, pairing)
from freegeo.lipschitz import from_values, lip_norm
from freegeo.lp import EQ, LE, LpProblem, solve
from freegeo.metric import (PointedMetricSpace, branching_tree,
                            cantor_endpoints, equilateral, line_space)
from conftest import random_euclidean_space, random_zero_sum


LINE = line_space([0, 1, 2, 3])


def combo(space, *terms):
    return MoleculeCombination(space, tuple(terms))


class TestPairing:
    def test_identity_molecule(self):
        f = from_values(LINE, [0, 1, 2, 3])
        assert pairing(f, molecule(LINE, 1, 0)) == pytest.approx(1.0)

    def test_zigzag_split_pair(self):
        g = from_values(LINE, [0, 1, 0, 1])
        mu = combo(LINE, (0.5, 1, 0), (0.5, 3, 2)).element()
        assert pairing(g, mu) == pytest.approx(1.0)

    def test_zero_element(self):
        f = from_values(LINE, [0, 1, 2, 3])
        zero = FreeElement(LINE, np.zeros(4))
        assert pairing(f, zero) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        s = random_euclidean_space(rng, 6)
        mu = FreeElement(s, random_zero_sum(rng, 6))
        v = rng.normal(size=6)
        f1 = from_values(s, v, shift_to_base=True)
        # same slopes, different constant: pairing must agree
        assert pairing(f1, mu) == pytest.approx(
            float(mu.masses @ v), abs=1e-9)


class TestFreeNorm:
    def test_molecule_norm_one(self):
        rng = np.random.default_rng(1)
        s = random_euclidean_space(rng, 6)
        for (x, y) in [(1, 0), (2, 5), (4, 3)]:
            assert free_norm(molecule(s, x, y)).value == pytest.approx(
                1.0, abs=1e-9)

    def test_branching_tree_leaf_difference(self):
        s = branching_tree(3)
        mu = delta(s, 1) + (-1.0) * delta(s, 2)
        assert free_norm(mu).value == pytest.approx(2.0, abs=1e-9)

    def test_split_pair_on_line(self):
        mu = combo(LINE, (0.5, 1, 0), (0.5, 3, 2)).element()
        assert free_norm(mu).value == pytest.approx(1.0, abs=1e-9)

    def test_strong_duality_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = random_euclidean_space(rng, int(rng.integers(4, 8)))
            mu = FreeElement(s, random_zero_sum(rng, s.n))
            cert = free_norm(mu)
            assert abs(cert.primal_value - cert.dual_value) <= 1e-9 * (
                1 + abs(cert.value))

    def test_norm_axioms_random(self):
        rng = np.random.default_rng(3)
        s = random_euclidean_space(rng, 6)
        for _ in range(10):
            a = FreeElement(s, random_zero_sum(rng, 6))
            b = FreeElement(s, random_zero_sum(rng, 6))
            t = float(rng.normal())
            na, nb = free_norm(a).value, free_norm(b).value
            assert free_norm(a + b).value <= na + nb + 1e-8
            assert free_norm(t * a).value == pytest.approx(
                abs(t) * na, abs=1e-8)

    def test_pairing_bounded_by_norms(self):
        rng = np.random.default_rng(4)
        s = random_euclidean_space(rng, 6)
        for _ in range(10):
            mu = FreeElement(s, random_zero_sum(rng, 6))
            f = from_values(s, rng.normal(size=6), shift_to_base=True)
            assert pairing(f, mu) <= lip_norm(f) * free_norm(mu).value + 1e-8

    def test_line_isometry(self):
        # collinear points: norm of signed consecutive-molecule sums is sum |c|
        rng = np.random.default_rng(5)
        coords = np.sort(rng.uniform(0, 10, size=9))
        coords[0] = 0.0
        s = line_space(list(coords))
        c = rng.normal(size=8)
        m = np.zeros(s.n)
        for i, ci in enumerate(c):
            gap = s.d(i + 1, i)
            m[i + 1] += ci / gap
            m[i] -= ci / gap
        assert free_norm(FreeElement(s, m)).value == pytest.approx(
            np.abs(c).sum(), abs=1e-9)

    def test_branching_tree_isometry(self):
        rng = np.random.default_rng(6)
        s = branching_tree(20)
        a = rng.normal(size=20)
        m = np.zeros(s.n)
        m[1:] = a
        assert free_norm(FreeElement(s, m)).value == pytest.approx(
            np.abs(a).sum(), abs=1e-9)

    def test_cantor_consecutive(self):
        s = cantor_endpoints(3)
        rng = np.random.default_rng(7)
        c = rng.normal(size=s.n - 1)
        m = np.zeros(s.n)
        for i, ci in enumerate(c):
            gap = s.d(i + 1, i)
            m[i + 1] += ci / gap
            m[i] -= ci / gap
        assert free_norm(FreeElement(s, m)).value == pytest.approx(
            np.abs(c).sum(), abs=1e-9)


def _oracle_norm(space, masses):
    """Min-cost flow on the complete graph by scipy (oracle only), solved
    at unit distance scale."""
    n = space.n
    p, q = np.nonzero(~np.eye(n, dtype=bool))
    A = np.zeros((n, p.size))
    A[p, np.arange(p.size)] += 1.0
    A[q, np.arange(p.size)] -= 1.0
    scale = space.dist.max()
    res = linprog(space.dist[p, q] / scale, A_eq=A[1:], b_eq=masses[1:],
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return scale * res.fun


def _assert_transport_certificate(mu):
    space, n = mu.space, mu.space.n
    cert = free_norm(mu)
    F = np.zeros((n, n))
    for (p, q), w in cert.flow.items():
        F[p, q] = w
    assert F.min() >= 0.0
    # entries at or below the tolerance are left out of the flow
    slack = n * n * 1e-9 * (1.0 + np.abs(mu.masses).max())
    assert np.abs(F.sum(axis=1) - F.sum(axis=0) - mu.masses).max() <= slack
    cost = float((F * space.dist).sum())
    assert cost == pytest.approx(cert.value, rel=1e-8,
                                 abs=slack * space.dist.max())
    assert cert.value == pytest.approx(_oracle_norm(space, mu.masses),
                                       rel=1e-7)
    assert lip_norm(cert.potential) <= 1.0 + 1e-9
    assert pairing(cert.potential, mu) == pytest.approx(
        cert.value, rel=1e-9, abs=1e-9 * space.dist.max())


class TestTransportCertificate:
    @pytest.mark.parametrize("kind, n, scale", [
        ("euclidean", 4, 1e-6), ("euclidean", 6, 1e-6),
        ("euclidean", 11, 1.0), ("euclidean", 17, 1e6),
        ("euclidean", 24, 1e-6), ("euclidean", 32, 1.0),
        ("euclidean", 27, 1e6), ("equilateral", 3, 1.0),
        ("equilateral", 8, 1e-6), ("equilateral", 16, 1.0),
        ("equilateral", 12, 1e6)])
    def test_flow_is_an_optimal_transport_plan(self, kind, n, scale):
        rng = np.random.default_rng(n)
        space = (random_euclidean_space(rng, n, scale=scale)
                 if kind == "euclidean" else equilateral(n, scale))
        _assert_transport_certificate(
            FreeElement(space, random_zero_sum(rng, n)))

    @pytest.mark.parametrize("n, dim, scale, seed", [
        (4, 2, 1e-6, 10), (8, 2, 1e-6, 8), (11, 2, 1e-6, 24),
        (4, 3, 1e6, 2), (6, 3, 1e6, 8)])
    def test_extreme_distance_scales(self, n, dim, scale, seed):
        # the LP's residual bounds are absolute: solved at its own distance
        # scale, each of these gives a potential with Lipschitz norm above
        # 1 + 1e-9 (1e-6) or fails the LP residual check (1e6)
        rng = np.random.default_rng([n, seed])
        space = random_euclidean_space(rng, n, dim=dim, scale=scale)
        _assert_transport_certificate(
            FreeElement(space, random_zero_sum(rng, n)))

    def test_one_lp_solve_per_norm(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(free_space, "solve", counting)
        rng = np.random.default_rng(32)
        s = random_euclidean_space(rng, 12)
        free_norm(FreeElement(s, random_zero_sum(rng, 12)))
        assert len(calls) == 1
        free_norm(FreeElement(s, np.zeros(12)))
        assert len(calls) == 1

    @pytest.mark.parametrize("tamper, check", [
        ("negate_flow", "flow_nonnegative"),
        ("double_flow", "flow_balance"),
        ("double_potential", "potential_lipschitz"),
        ("halve_potential", "duality_gap")])
    def test_tampered_solve_is_caught(self, monkeypatch, tamper, check):
        def tampered(*args, **kwargs):
            sol = solve(*args, **kwargs)
            if tamper == "negate_flow":
                k = int(np.argmax(sol.y))
                sol.y[k] = -sol.y[k]
            elif tamper == "double_flow":
                sol.y = 2.0 * sol.y
            else:
                sol.x = (2.0 if tamper == "double_potential" else 0.5) * sol.x
            return sol

        monkeypatch.setattr(free_space, "solve", tampered)
        rng = np.random.default_rng(33)
        s = random_euclidean_space(rng, 9)
        with pytest.raises(FreeSpaceError, match=check):
            free_norm(FreeElement(s, random_zero_sum(rng, 9)))


class TestNormingFunctional:
    def test_certificate(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_euclidean_space(rng, 6)
            mu = FreeElement(s, random_zero_sum(rng, 6))
            f = norming_functional(mu)
            assert lip_norm(f) <= 1.0 + 1e-9
            assert pairing(f, mu) == pytest.approx(free_norm(mu).value,
                                                   abs=1e-8)

    def test_zero_rejected(self):
        with pytest.raises(FreeSpaceError):
            norming_functional(FreeElement(LINE, np.zeros(4)))


class TestFaceRanges:
    def test_split_pair_middle_range(self):
        mu = combo(LINE, (0.5, 1, 0), (0.5, 3, 2)).element()
        ranges = face_coordinate_ranges(dual_face(mu))
        assert ranges[2][0] == pytest.approx(0.0, abs=1e-7)
        assert ranges[2][1] == pytest.approx(2.0, abs=1e-7)

    def test_molecule_pinned_difference(self):
        s = equilateral(3)
        mu = molecule(s, 1, 2)
        ranges = face_coordinate_ranges(dual_face(mu))
        # f(1) - f(2) = 1 pinned: widths of both ranges match
        w1 = ranges[1][1] - ranges[1][0]
        w2 = ranges[2][1] - ranges[2][0]
        assert w1 == pytest.approx(w2, abs=1e-7)

    def test_consecutive_combination_degenerate(self):
        mu = combo(LINE, (1 / 3, 1, 0), (1 / 3, 2, 1), (1 / 3, 3, 2)).element()
        ranges = face_coordinate_ranges(dual_face(mu))
        for p in range(1, 4):
            assert ranges[p][1] - ranges[p][0] <= 1e-7
            assert ranges[p][0] == pytest.approx(float(p), abs=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_warm_ranges_match_cold_solves(self, seed):
        # the 2(n-1) solves share one polytope and reuse one basis
        rng = np.random.default_rng(500 + seed)
        space = random_euclidean_space(rng, int(rng.integers(5, 10)))
        face = dual_face(FreeElement(space, random_zero_sum(rng, space.n)))
        A_ub, b_ub, prow, prhs = face.constraint_rows()
        A = np.vstack([A_ub, prow])
        b = np.concatenate([b_ub, [prhs]])
        senses = [LE] * len(b_ub) + [EQ]
        ranges = face_coordinate_ranges(face)
        for p in range(1, space.n):
            c = np.zeros(space.n - 1)
            c[p - 1] = 1.0
            lo = solve(LpProblem.build(c, A, senses, b)).value
            hi = solve(LpProblem.build(c, A, senses, b, maximize=True)).value
            assert ranges[p] == pytest.approx([lo, hi], abs=1e-12)


class TestGateaux:
    def test_consecutive_true(self):
        mu = combo(LINE, (1 / 3, 1, 0), (1 / 3, 2, 1), (1 / 3, 3, 2)).element()
        assert is_gateaux(mu)

    def test_split_pair_false(self):
        mu = combo(LINE, (0.5, 1, 0), (0.5, 3, 2)).element()
        assert not is_gateaux(mu)

    def test_equilateral_molecule_false(self):
        assert not is_gateaux(molecule(equilateral(3), 1, 2))

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_answer_does_not_depend_on_distance_scale(self, scale):
        # solved at the input's scale, the face LPs fail at 1e6 and an
        # absolute width bound passes the narrow face below at 1e-6
        cases = [combo(LINE, (0.5, 1, 0), (0.5, 3, 2)).element(),
                 combo(LINE, (0.5, 1, 0), (0.5, 2, 1)).element(),
                 molecule(equilateral(3), 1, 2),
                 molecule(line_space([0.0, 1.0, 1.01]), 1, 0)]
        rng = np.random.default_rng(2024)
        for _ in range(12):
            n = int(rng.integers(4, 9))
            space = random_euclidean_space(rng, n, dim=2)
            cases.append(FreeElement(space, rng.normal(size=n)))
        answers = [is_gateaux(mu) for mu in cases]
        assert True in answers and False in answers
        for mu, answer in zip(cases, answers):
            scaled = PointedMetricSpace(scale * mu.space.dist)
            assert is_gateaux(FreeElement(scaled, mu.masses)) is answer


class TestOptimalRepresentation:
    def test_single_molecule(self):
        rep = optimal_representation(molecule(LINE, 1, 0))
        assert rep.weight_sum() == pytest.approx(1.0, abs=1e-9)
        assert len(rep.terms) == 1

    def test_delta_three_on_line(self):
        rep = optimal_representation(delta(LINE, 3))
        assert rep.weight_sum() == pytest.approx(3.0, abs=1e-9)

    def test_tree_leaf_difference(self):
        s = branching_tree(3)
        mu = delta(s, 1) + (-1.0) * delta(s, 2)
        rep = optimal_representation(mu)
        assert rep.weight_sum() == pytest.approx(2.0, abs=1e-9)

    def test_read_off_the_norm_certificate(self):
        rng = np.random.default_rng(4)
        s = random_euclidean_space(rng, 6)
        mu = FreeElement(s, random_zero_sum(rng, 6))
        assert free_norm(mu).representation() == optimal_representation(mu)
        zero = free_norm(FreeElement(s, np.zeros(6)))
        with pytest.raises(FreeSpaceError, match="zero element"):
            zero.representation()

    def test_resums_to_element(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            s = random_euclidean_space(rng, 6)
            mu = FreeElement(s, random_zero_sum(rng, 6))
            rep = optimal_representation(mu)
            back = rep.element()
            assert np.abs(back.masses - mu.masses).max() <= 1e-9
            assert rep.weight_sum() == pytest.approx(free_norm(mu).value,
                                                     abs=1e-9)


class TestElementsAndRows:
    def test_rebuilding_an_element_leaves_it_unchanged(self):
        # the base mass was re-balanced on every construction
        # (m[0] -= m.sum()), which moved it by an ulp on about half of
        # these elements
        rng = np.random.default_rng(5)
        space = random_euclidean_space(rng, 6)
        for _ in range(100):
            mu = FreeElement(space, rng.normal(size=6))
            again = FreeElement(space, mu.masses)
            assert again.masses.tobytes() == mu.masses.tobytes()
            assert mu.masses[0] == -mu.masses[1:].sum()

    def test_balanced_base_mass_of_zero_is_positive_zero(self):
        mu = FreeElement(LINE, np.array([5.0, 1.0, -1.0, 0.0]))
        assert mu.masses.tolist() == [0.0, 1.0, -1.0, 0.0]
        assert not np.signbit(mu.masses[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_masses_are_rejected(self, bad):
        for m in ([0.0, bad, -1.0, 0.0], [bad, 1.0, -1.0, 0.0]):
            with pytest.raises(FreeSpaceError, match="finite"):
                FreeElement(LINE, np.array(m))

    def test_overflowing_base_mass_is_rejected(self):
        with pytest.raises(FreeSpaceError, match="finite"):
            FreeElement(LINE, np.array([0.0, 1e308, 1e308, 0.0]))

    def test_element_copies_the_callers_masses(self):
        m = np.array([0.0, 1.0, -1.0, 0.0])
        mu = FreeElement(LINE, m)
        m[1] = 7.0
        assert mu.masses[1] == 1.0

    def test_pair_rows_are_cached_and_read_only(self):
        first = free_space.pair_rows(7)
        assert free_space.pair_rows(7) is first
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
        p, q, R = first
        assert R.shape == (21, 6)
        assert (p < q).all()

    def test_norm_certificates_carry_the_norm_basis(self):
        cert = free_norm(molecule(branching_tree(8), 3, 0))
        assert cert.basis is not None and cert.basis.path == "dualized"
