import numpy as np
import pytest

from freegeo import metric
from freegeo.gromov import (PairError, analyze_pair, classify_space,
                            family_trend, gromov_product)
from freegeo.metric import (MetricError, MetricFamily, PointedMetricSpace,
                            gallery, gamma_fatten, line_space, validate)
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


# ---------------------------------------------------------------------------
# family_trend against generating and validating index by index
# ---------------------------------------------------------------------------

def generate_alone(family, idx):
    """MetricFamily.generate before nested trends: the space validated on
    its own, then its pair checked."""
    space, (x, y) = family.generator(idx)
    rep = validate(space)
    if not rep.ok:
        raise MetricError(f"family {family.name}[{idx}] invalid: {rep}")
    if x == y or not (0 <= x < space.n and 0 <= y < space.n):
        raise MetricError("bad distinguished pair")
    return space, (x, y)


def trend_reference(family, indices, generate=generate_alone):
    """family_trend as a loop of one-index generates."""
    rows = []
    for idx in indices:
        space, (x, y) = generate(family, idx)
        r = analyze_pair(space, x, y)
        rows.append({"index": int(idx), "eta": r.eta,
                     "delta_rotund": r.delta_rotund})
    return rows


def _outcome(fn, *args):
    """repr of the result, or the type and text of the error raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_trend_matches(family, indices):
    """family_trend is bitwise the per-index loop, in rows and in the
    error raised, with generate or with its old body; returns the
    outcome."""
    want = _outcome(trend_reference, family, indices)
    assert _outcome(family_trend, family, indices) == want
    assert _outcome(trend_reference, family, indices,
                    MetricFamily.generate) == want
    return want


def _prefix_family(d, raise_at=None):
    """Leading blocks of one matrix: index n is d[:n, :n], so the family
    is nested; index `raise_at` raises instead."""
    d = np.asarray(d, dtype=float)

    def gen(n):
        if n == raise_at:
            raise MetricError(f"no space at index {n}")
        if n < 2:
            raise MetricError("index must be >= 2")
        return PointedMetricSpace(d[:n, :n]), (0, 1)

    return MetricFamily("prefix", {}, gen)


def _line_broken_from(k, n=12):
    """n points on a line, with d(0, k - 1) too long: every block of k or
    more points breaks the triangle inequality."""
    d = line_space(list(range(n))).dist.copy()
    d[0, k - 1] = d[k - 1, 0] = 3.0 * (k - 1)
    return d


@pytest.mark.parametrize("name, lo, hi", [
    ("rotund_no_gap", 1, 40), ("almost_aligned", 1, 29),
    ("almost_aligned", 1, 30), ("nonaligned_not_discrete", 2, 40),
    ("branching_tree_family", 2, 20)])
def test_family_trend_matches_per_index_on_gallery_ranges(name, lo, hi):
    family = gallery(name)
    for indices in (list(range(lo, hi + 1)), list(range(lo, 9)), [hi]):
        assert _assert_trend_matches(family, indices).startswith("[")


def test_family_trend_non_nested_generator():
    # index n is n + 1 points spread over [0, 1]: no index is a block of
    # another, so each is validated on its own
    family = MetricFamily("unit_line", {}, lambda n: (
        line_space([k / n for k in range(n + 1)]), (0, n)))
    assert _assert_trend_matches(family, range(1, 12)).startswith("[")

    # a non-nested family whose odd indices are not metrics, while the
    # largest is: the first odd index raises
    def gen(n):
        d = line_space(list(range(n + 1))).dist.copy() * (1 + n % 7)
        if n % 2:
            d[0, n] = d[n, 0] = 5.0 * d[0, n]
        return PointedMetricSpace(d), (0, 1)

    family = MetricFamily("odd_broken", {}, gen)
    want = _assert_trend_matches(family, range(2, 11))
    assert want.startswith("MetricError: family odd_broken[3] invalid")


def test_family_trend_nested_with_invalid_middle_index():
    family = _prefix_family(_line_broken_from(5))
    want = _assert_trend_matches(family, range(2, 13))
    assert want.startswith("MetricError: family prefix[5] invalid")
    assert _assert_trend_matches(family, range(2, 5)).startswith("[")
    # the largest index raises; the earlier invalid index still raises first
    family = _prefix_family(_line_broken_from(5), raise_at=12)
    want = _assert_trend_matches(family, range(2, 13))
    assert want.startswith("MetricError: family prefix[5] invalid")


@pytest.mark.parametrize("error", [MetricError, ValueError, IndexError])
def test_family_trend_largest_index_raises_at_its_turn(error):
    def gen(n):
        if n == 9:
            raise error("no space at index 9")
        return line_space(list(range(n))), (0, 1)

    calls = []
    family = MetricFamily("line", {}, lambda n: calls.append(n) or gen(n))
    want = _assert_trend_matches(family, [2, 9, 3])
    assert want == f"{error.__name__}: no space at index 9"
    calls.clear()
    with pytest.raises(error):
        family_trend(family, [2, 3, 9])
    assert calls == [9, 2, 3, 9]


def test_family_trend_bad_pair_at_middle_index():
    def gen(n):
        return line_space(list(range(n))), ((0, 0) if n == 4 else (0, 1))

    family = MetricFamily("line", {}, gen)
    want = _assert_trend_matches(family, range(2, 8))
    assert want == "MetricError: bad distinguished pair"


@pytest.mark.parametrize("indices", [[5, 3, 5], [3, 5, 5, 3], [7, 2, 4, 2]])
def test_family_trend_unsorted_and_duplicate_indices(indices):
    for name in ("rotund_no_gap", "almost_aligned",
                 "nonaligned_not_discrete"):
        rows = family_trend(gallery(name), indices)
        assert [r["index"] for r in rows] == indices
        _assert_trend_matches(gallery(name), indices)
    _assert_trend_matches(_prefix_family(_line_broken_from(5)), indices)


def test_family_trend_takes_a_range():
    family = gallery("rotund_no_gap")
    assert repr(family_trend(family, range(1, 41))) == \
        repr(family_trend(family, list(range(1, 41)))) == \
        repr(trend_reference(family, range(1, 41)))
    assert family_trend(family, range(5, 5)) == []


def test_nested_trend_validates_once(monkeypatch):
    calls = []
    real = metric.validate

    def spy(space):
        calls.append(space.n)
        return real(space)

    monkeypatch.setattr(metric, "validate", spy)
    family_trend(gallery("rotund_no_gap"), range(1, 41))
    assert calls == [42]
    calls.clear()
    family_trend(gallery("nonaligned_not_discrete"), [9, 2, 9, 5])
    assert calls == [10]


def test_spaces_holds_one_space_at_a_time():
    made = []
    family = gallery("rotund_no_gap")
    lazy = MetricFamily(family.name, {}, lambda n: made.append(n) or
                        family.generator(n))
    it = lazy.spaces([1, 2, 3])
    assert made == []
    assert next(it)[0].n == 3
    assert made == [3, 1]
    assert [space.n for space, _ in it] == [4, 5]
    assert made == [3, 1, 2]


# ---------------------------------------------------------------------------
# family_trend rows without the pair reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, lo, hi", [
    ("rotund_no_gap", 1, 40), ("almost_aligned", 1, 30),
    ("nonaligned_not_discrete", 2, 40), ("branching_tree_family", 2, 40)])
def test_family_trend_rows_are_analyze_pair_bits(name, lo, hi):
    family = gallery(name)
    rows = family_trend(family, range(lo, hi + 1))
    assert [r["index"] for r in rows] == list(range(lo, hi + 1))
    for row in rows:
        space, (x, y) = family.generate(row["index"])
        rep = analyze_pair(space, x, y)
        assert row["eta"].hex() == rep.eta.hex()
        assert row["delta_rotund"].hex() == rep.delta_rotund.hex()


def test_pair_errors_unchanged():
    space = gallery("line", n=4)
    for (x, y), text in (((2, 2), "x and y must differ"),
                         ((1, 9), "pair (1, 9) is out of range for 4 "
                                  "points"),
                         ((-1, 2), "pair (-1, 2) is out of range for 4 "
                                   "points")):
        with pytest.raises(PairError) as err:
            analyze_pair(space, x, y)
        assert str(err.value) == text
    # a two-point space has no witness: every flag holds, eta is inf
    rep = analyze_pair(gallery("line", n=2), 0, 1)
    assert (rep.eta, rep.delta_rotund, rep.concavity_profile) == \
        (np.inf, np.inf, ())
    assert rep.has_gromov_gap and rep.extreme_molecule


@pytest.mark.parametrize("name, indices, text", [
    ("rotund_no_gap", [0, 3], "index must be >= 1"),
    ("nonaligned_not_discrete", [1, 4], "index must be >= 2"),
    ("almost_aligned", [2, metric.MAX_FAMILY_INDEX + 1],
     f"family index {metric.MAX_FAMILY_INDEX + 1} is above the cap of "
     f"{metric.MAX_FAMILY_INDEX}")])
def test_family_trend_metric_errors_unchanged(name, indices, text):
    with pytest.raises(MetricError) as err:
        family_trend(gallery(name), indices)
    assert str(err.value) == text


@pytest.mark.xfail(strict=True, reason="has_gromov_gap compares eta with "
                   "TAU_METRIC, an absolute bound in units of distance")
def test_gromov_gap_is_covariant_in_the_unit_of_distance():
    # the pair (1, 2) has eta = 1e-5 relative to its distances, a gap in
    # every unit of distance; at 1e-6 eta = 1e-11 falls below TAU_METRIC
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0 - 1e-5],
                  [1.0, 2.0 - 1e-5, 0.0]])
    gaps = [analyze_pair(PointedMetricSpace(s * d), 1, 2).has_gromov_gap
            for s in (1e-6, 1.0, 1e6)]
    assert gaps == [True, True, True]
