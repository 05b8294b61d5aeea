import json

import numpy as np
import pytest

from freegeo.metric import (MAX_FAMILY_INDEX, MAX_GALLERY_POINTS,
                            MetricError, MetricFamily, PointedMetricSpace,
                            _almost_aligned_family, branching_tree,
                            cantor_endpoints, equilateral, gallery,
                            gamma_fatten, gamma_thin, line_space,
                            metric_segment, radius_beta, subspace,
                            three_point_aligned,
                            uniform_discreteness_constant, validate)
from conftest import random_euclidean_space


def gromov_min(space):
    d = space.dist
    vals = []
    for x in range(space.n):
        for y in range(space.n):
            if x == y:
                continue
            for z in range(space.n):
                if z in (x, y):
                    continue
                vals.append(d[x, z] + d[z, y] - d[x, y])
    return min(vals)


class TestValidate:
    def test_collinear_ok(self):
        assert validate(line_space([0, 1, 2])).ok

    def test_equilateral_ok(self):
        assert validate(equilateral(4)).ok

    def test_overthinned_tree_violates(self):
        # subtracting 0.5 from the star yields 1.5 > 0.5 + 0.5
        thinned, rep = gamma_thin(branching_tree(3), 0.5)
        assert thinned is None
        assert not rep.ok
        assert any(t for t in rep.bad_triples)

    def test_reports_every_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        rep = validate(PointedMetricSpace(d))
        assert (0, 2, 1) in rep.bad_triples


class TestGammaFatten:
    def test_line(self):
        s = gamma_fatten(line_space([0, 1, 2, 3]), 1.0)
        assert s.d(0, 3) == 4.0
        assert s.d(1, 2) == 2.0

    def test_tree(self):
        s = gamma_fatten(branching_tree(3), 0.5)
        assert s.d(0, 1) == 1.5
        assert s.d(1, 2) == 2.5

    def test_always_valid_and_products_shift(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_euclidean_space(rng, int(rng.integers(3, 8)))
            g = float(rng.uniform(0.05, 2.0))
            f = gamma_fatten(s, g)
            assert validate(f).ok
            assert gromov_min(f) == pytest.approx(gromov_min(s) + g, abs=1e-12)

    def test_min_product_equilateral(self):
        f = gamma_fatten(equilateral(3), 0.25)
        assert gromov_min(f) == pytest.approx(1.25, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(MetricError):
            gamma_fatten(equilateral(3), 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, gamma):
        # inf passed the old `gamma > 0` test and made every distance inf
        with pytest.raises(MetricError, match="positive and finite"):
            gamma_fatten(equilateral(3), gamma)


class TestGammaThin:
    def test_equilateral_ok(self):
        s, rep = gamma_thin(equilateral(3), 0.4)
        assert rep.ok
        assert s.d(0, 1) == pytest.approx(0.6)

    def test_gamma_above_min_distance(self):
        s, rep = gamma_thin(equilateral(3), 1.0)
        assert s is None

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, gamma):
        with pytest.raises(MetricError, match="positive and finite"):
            gamma_thin(equilateral(3), gamma)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            s = random_euclidean_space(rng, int(rng.integers(3, 8)))
            g = float(rng.uniform(0.05, 2.0))
            back, rep = gamma_thin(gamma_fatten(s, g), g)
            assert rep.ok
            assert np.abs(back.dist - s.dist).max() <= 1e-12

    def test_validity_criterion(self):
        # thinned is a metric iff min distance > gamma and min product >= gamma
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = random_euclidean_space(rng, int(rng.integers(3, 7)))
            g = float(rng.uniform(0.01, 1.0))
            thinned, rep = gamma_thin(s, g)
            theta = uniform_discreteness_constant(s)
            tol = 1e-9 * max(1.0, float(s.dist.max()))
            expected = theta > g + tol and gromov_min(s) >= g - tol
            near_boundary = (abs(theta - g) <= tol
                             or abs(gromov_min(s) - g) <= tol)
            if not near_boundary:
                assert rep.ok == expected


class TestSegmentsAndSubspace:
    def test_line_segment(self):
        assert metric_segment(line_space([0, 1, 2, 3]), 0, 3) == [0, 1, 2, 3]

    def test_equilateral_segment(self):
        assert metric_segment(equilateral(3), 1, 2) == [1, 2]

    def test_three_point_aligned(self):
        s = three_point_aligned()
        assert metric_segment(s, 1, 2) == [0, 1, 2]

    def test_same_point_rejected(self):
        with pytest.raises(MetricError):
            metric_segment(equilateral(3), 1, 1)

    def test_subspace_reroots(self):
        s = line_space([0, 1, 2, 3])
        sub, kept = subspace(s, [3, 1])
        assert kept == [1, 3]
        assert sub.n == 2
        assert sub.d(0, 1) == 2.0


class TestScalars:
    def test_theta_tree(self):
        assert uniform_discreteness_constant(branching_tree(5)) == 1.0

    def test_beta_line(self):
        assert radius_beta(line_space([0, 1, 2, 3]), [0, 1]) == 1.0

    def test_theta_almost_aligned(self):
        fam = gallery("almost_aligned")
        space, _ = fam.generate(5)
        assert uniform_discreteness_constant(space) == 0.5


class TestGallery:
    def test_branching_tree(self):
        s = gallery("branching_tree", n=3)
        assert s.n == 4
        assert s.d(0, 1) == 1.0 and s.d(1, 2) == 2.0

    def test_cantor_level2(self):
        s = gallery("cantor", level=2)
        coords = [0, 1/9, 2/9, 1/3, 2/3, 7/9, 8/9, 1]
        assert s.n == 8
        for i, c in enumerate(coords):
            assert s.d(0, i) == pytest.approx(c, abs=1e-15)

    def test_rotund_no_gap_index2(self):
        space, (x, y) = gallery("rotund_no_gap").generate(2)
        z1, z2 = 2, 3
        assert space.d(x, z2) == pytest.approx(0.25)
        assert space.d(y, z2) == pytest.approx(0.875)
        assert space.d(z1, z2) == pytest.approx(0.75)

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan])
    def test_almost_aligned_rejects_non_positive_eps(self, bad):
        calls = []

        def eps_of(k):
            calls.append(k)
            return bad if k == 3 else 2.0 ** -k

        gen = _almost_aligned_family(eps_of).generator
        assert gen(2)[0].d(1, 3) == 0.75
        with pytest.raises(MetricError, match="eps values must be positive"):
            gen(4)
        # eps_of is called once per k and index
        assert calls == [1, 2, 1, 2, 3, 4]

    def test_all_gallery_items_validate(self):
        for name in ("line", "equilateral", "branching_tree", "cantor",
                     "three_point_aligned"):
            assert validate(gallery(name)).ok
        for name in ("almost_aligned", "rotund_no_gap",
                     "branching_tree_family", "nonaligned_not_discrete"):
            fam = gallery(name)
            assert isinstance(fam, MetricFamily)
            for idx in (2, 5):
                space, pair = fam.generate(idx)
                assert validate(space).ok

    def test_unknown_name(self):
        with pytest.raises(MetricError):
            gallery("nope")

    @pytest.mark.parametrize("name,key", [
        ("line", "n"), ("equilateral", "n"), ("branching_tree", "n"),
        ("cantor", "level")])
    @pytest.mark.parametrize("value", [2.7, np.nan, np.inf, -np.inf])
    def test_non_integral_sizes_are_rejected(self, name, key, value):
        # int() truncated 2.7 to 2 and raised ValueError or OverflowError
        # on NaN and inf
        with pytest.raises(MetricError, match=f"{key} must be an integer"):
            gallery(name, **{key: value})

    @pytest.mark.parametrize("name,params,key", [
        ("line", {"m": 3}, "m"), ("equilateral", {"n": 3, "size": 2}, "size"),
        ("branching_tree", {"level": 2}, "level"),
        ("three_point_aligned", {"n": 3}, "n"),
        ("almost_aligned", {"index": 2}, "index")])
    def test_unknown_parameter_is_rejected(self, name, params, key):
        # every family and line ignored an unknown key: line(m=3) was the
        # default 4-point line
        with pytest.raises(MetricError,
                           match=f"{name!r} takes no parameter {key!r}"):
            gallery(name, **params)

    def test_integral_float_sizes_are_accepted(self):
        assert gallery("line", n=5.0).n == 5
        assert gallery("cantor", level=1.0).n == 4

    @pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0])
    def test_equilateral_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(MetricError, match="positive finite scale"):
            gallery("equilateral", n=3, scale=scale)

    def test_sizes_at_the_cap_are_built(self):
        cap = MAX_GALLERY_POINTS
        assert gallery("line", n=cap).n == cap
        assert gallery("equilateral", n=cap).n == cap
        assert gallery("branching_tree", n=cap - 1).n == cap
        assert gallery("cantor", level=9).n == cap
        for name in ("almost_aligned", "rotund_no_gap"):
            assert gallery(name).generator(MAX_FAMILY_INDEX)[0].n == cap
        # almost_aligned's eps_k = 2^-k is still a normal float at the cap
        assert 2.0 ** -MAX_FAMILY_INDEX == np.finfo(float).tiny

    @pytest.mark.parametrize("name,params,says", [
        ("line", {"n": MAX_GALLERY_POINTS + 1}, "n <= 1024"),
        ("equilateral", {"n": MAX_GALLERY_POINTS + 1}, "n <= 1024"),
        ("branching_tree", {"n": MAX_GALLERY_POINTS}, "1 to 1023 leaves"),
        ("cantor", {"level": 10}, "level <= 9")])
    def test_sizes_above_the_cap_are_rejected(self, name, params, says):
        with pytest.raises(MetricError, match=says):
            gallery(name, **params)

    def test_family_index_above_the_cap_is_not_generated(self):
        calls = []
        fam = MetricFamily("f", {}, calls.append)
        for indices in ([MAX_FAMILY_INDEX + 1], [2, MAX_FAMILY_INDEX + 1]):
            with pytest.raises(MetricError, match="above the cap of 1022"):
                list(fam.spaces(indices))
        assert calls == []


class TestJson:
    def test_roundtrip(self):
        s = gallery("branching_tree", n=4)
        blob = json.dumps(s.to_json())
        back = PointedMetricSpace.from_json(json.loads(blob))
        assert np.array_equal(back.dist, s.dist)
        assert back.labels == s.labels


def test_space_copies_the_callers_matrix():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    space = PointedMetricSpace(d)
    assert d.flags.writeable and not space.dist.flags.writeable
    d[0, 1] = 2.0
    assert space.d(0, 1) == 1.0


@pytest.mark.xfail(strict=True, reason="the triangle tolerance "
                   "TAU_METRIC * max(1, s) is absolute for distances below 1")
def test_validate_is_covariant_in_the_unit_of_distance():
    # a triangle that fails by 1e-4 relative fails validation in every unit
    # of distance; at 1e-6 the tolerance is 1e-9 absolute, which it passes
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0002], [1.0, 2.0002, 0.0]])
    verdicts = [validate(PointedMetricSpace(s * d)).ok
                for s in (1e-6, 1.0, 1e6)]
    assert verdicts == [False, False, False]
