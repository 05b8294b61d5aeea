import numpy as np
import pytest

from freegeo.gromov import (PairError, analyze_pair, classify_space,
                            family_trend, gromov_product)
from freegeo.metric import gallery, gamma_fatten, line_space
from conftest import random_euclidean_space


def test_gromov_product_aligned_midpoint_is_zero():
    space = gallery("three_point_aligned")
    # base is the middle point; endpoints are indices 1 and 2
    assert gromov_product(space, 0, 1, 2) == 0.0


def test_gromov_product_equilateral():
    space = gallery("equilateral", n=3)
    assert gromov_product(space, 2, 0, 1) == pytest.approx(1.0, abs=0)


def test_gromov_product_almost_aligned_values():
    family = gallery("almost_aligned")
    space, (x, y) = family.generate(5)
    # the k-th interior point witnesses a product of exactly eps_k = 2^-k
    for k in range(1, 6):
        z = 1 + k
        assert gromov_product(space, z, x, y) == 2.0 ** -k


def test_gromov_product_rejects_equal_endpoints():
    space = gallery("equilateral", n=3)
    with pytest.raises(PairError):
        gromov_product(space, 2, 1, 1)


def test_analyze_pair_equilateral_four():
    space = gallery("equilateral", n=4)
    for x in range(4):
        for y in range(x + 1, 4):
            rep = analyze_pair(space, x, y)
            assert rep.eta == 1.0
            assert rep.delta_rotund == 1.0
            assert rep.has_gromov_gap and rep.is_rotund and rep.is_concave
            assert rep.extreme_molecule


def test_analyze_pair_rotund_no_gap_truncations():
    family = gallery("rotund_no_gap")
    for k in range(1, 11):
        space, (x, y) = family.generate(k)
        rep = analyze_pair(space, x, y)
        assert rep.eta == pytest.approx(1.0 / (4 * k), abs=1e-12)
        assert rep.delta_rotund == 0.5


def test_analyze_pair_aligned_triple():
    space = gallery("three_point_aligned")
    rep = analyze_pair(space, 1, 2)
    assert rep.eta == 0.0
    assert not rep.extreme_molecule
    assert not rep.has_gromov_gap


def test_analyze_pair_two_point_convention():
    space = line_space([0.0, 1.0])
    rep = analyze_pair(space, 0, 1)
    assert rep.eta == np.inf
    assert rep.delta_rotund == np.inf
    assert rep.concavity_profile == ()
    assert rep.has_gromov_gap and rep.is_rotund and rep.is_concave
    assert rep.extreme_molecule


def test_concavity_profile_nondecreasing():
    rng = np.random.default_rng(7)
    for _ in range(10):
        space = random_euclidean_space(rng, 9)
        rep = analyze_pair(space, 1, 2)
        vals = [v for _, v in rep.concavity_profile]
        eps = [e for e, _ in rep.concavity_profile]
        assert eps == sorted(eps)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # the first profile value is the global minimum, i.e. eta
        assert vals[0] == rep.eta


def test_rotund_bound_from_gap():
    # whenever eta > 0: delta_rotund >= min(1, eta / d(x,y))
    rng = np.random.default_rng(21)
    for _ in range(25):
        space = random_euclidean_space(rng, 8)
        for x in range(space.n):
            for y in range(x + 1, space.n):
                rep = analyze_pair(space, x, y)
                if rep.eta > 1e-9:
                    bound = min(1.0, rep.eta / space.d(x, y))
                    assert rep.delta_rotund >= bound - 1e-9


def test_classify_space_line_not_luna():
    report = classify_space(line_space([0.0, 1.0, 2.0, 3.0]))
    assert report["luna"] is False
    assert report["min_eta"] == pytest.approx(0.0, abs=1e-12)


def test_classify_space_equilateral():
    report = classify_space(gallery("equilateral", n=5))
    assert report["luna"] is True
    assert report["min_eta"] == 1.0


def test_classify_space_fattened_is_luna():
    rng = np.random.default_rng(3)
    for _ in range(10):
        space = random_euclidean_space(rng, 7)
        fat = gamma_fatten(space, 0.25)
        report = classify_space(fat)
        assert report["luna"] is True
        assert report["min_eta"] >= 0.25 - 1e-12


def test_classify_space_fatten_shift():
    # fattening shifts every Gromov product by exactly gamma
    rng = np.random.default_rng(11)
    space = random_euclidean_space(rng, 6)
    fat = gamma_fatten(space, 0.5)
    for x in range(6):
        for y in range(x + 1, 6):
            for z in range(6):
                if z in (x, y):
                    continue
                assert gromov_product(fat, z, x, y) == pytest.approx(
                    gromov_product(space, z, x, y) + 0.5, abs=1e-12)


def test_classify_space_single_point_error():
    space = line_space([0.0])
    with pytest.raises(PairError):
        classify_space(space)


def test_family_trend_almost_aligned():
    family = gallery("almost_aligned")
    rows = family_trend(family, range(1, 11))
    for row in rows:
        assert row["eta"] == 2.0 ** -row["index"]
    etas = [row["eta"] for row in rows]
    assert etas == sorted(etas, reverse=True)


def test_family_trend_rotund_no_gap():
    family = gallery("rotund_no_gap")
    rows = family_trend(family, range(1, 11))
    for row in rows:
        assert row["delta_rotund"] == 0.5
        assert row["eta"] == pytest.approx(1.0 / (4 * row["index"]),
                                           abs=1e-12)


def test_family_trend_branching_tree():
    family = gallery("branching_tree_family")
    rows = family_trend(family, range(2, 11))
    for row in rows:
        assert row["eta"] == 0.0


def test_report_json_roundtrip_shape():
    rep = analyze_pair(gallery("equilateral", n=4), 0, 1)
    blob = rep.to_json()
    assert blob["pair"] == [0, 1]
    assert blob["eta"] == 1.0
    assert isinstance(blob["concavity_profile"], list)


def test_almost_aligned_index_30_crosses_tolerance():
    # eta = 2^-30 lies below the metric tolerance while the rotundity ratio
    # 2 eta lies above it; every positivity flag follows the gap
    space, (x, y) = gallery("almost_aligned").generate(30)
    rep = analyze_pair(space, x, y)
    assert rep.eta == 2.0 ** -30
    assert rep.delta_rotund == 2.0 ** -29
    assert not rep.has_gromov_gap
    assert rep.is_rotund is rep.is_concave is rep.extreme_molecule is False
    rows = family_trend(gallery("almost_aligned"), range(28, 31))
    assert [r["index"] for r in rows] == [28, 29, 30]


def test_analyze_pair_rejects_out_of_range():
    space = gallery("line", n=4)
    with pytest.raises(PairError):
        analyze_pair(space, 1, 9)
    with pytest.raises(PairError):
        analyze_pair(space, -1, 2)
