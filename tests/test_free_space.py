import numpy as np
import pytest

from freegeo.free_space import (FreeElement, FreeSpaceError,
                                MoleculeCombination, delta, dual_face,
                                face_coordinate_ranges, free_norm,
                                is_gateaux, molecule, norming_functional,
                                optimal_representation, pairing)
from freegeo.lipschitz import from_values, lip_norm
from freegeo.lp import EQ, LE, LpProblem, solve
from freegeo.metric import branching_tree, cantor_endpoints, equilateral, line_space
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
