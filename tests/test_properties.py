"""The array code of the metric and Gromov layers against loop references.

Each reference below is the element-by-element loop that the array code
replaced; reports must agree exactly (same tuples, same float bits), on
generated metrics and on hostile matrices alike.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freegeo import metric
from freegeo.gromov import (PairGeometryReport, analyze_pair, classify_space,
                            gromov_product)
from freegeo.metric import (PointedMetricSpace, ValidationReport, gallery,
                            line_space, validate)
from freegeo.tolerances import TAU_METRIC

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# loop references
# ---------------------------------------------------------------------------

def validate_loop(space):
    d = space.dist
    n = space.n
    bad_pairs = []
    for i in range(n):
        if d[i, i] != 0.0:
            bad_pairs.append((i, i))
        for j in range(i + 1, n):
            if d[i, j] != d[j, i] or not 0.0 < d[i, j] < np.inf:
                bad_pairs.append((i, j))
    bad_triples = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = d[i] + d[:, j]
            tol = TAU_METRIC * np.maximum(1.0, s)
            for k in np.nonzero(d[i, j] > s + tol)[0]:
                if k != i and k != j:
                    bad_triples.append((i, j, int(k)))
    return ValidationReport(ok=not bad_pairs and not bad_triples,
                            bad_triples=tuple(bad_triples),
                            bad_pairs=tuple(bad_pairs))


def analyze_pair_loop(space, x, y):
    others = [z for z in space.points() if z not in (x, y)]
    if not others:
        return PairGeometryReport(x, y, np.inf, np.inf, (), True, True, True,
                                  True)
    d = space.dist
    prods = np.array([gromov_product(space, z, x, y) for z in others])
    near = np.array([min(d[x, z], d[y, z]) for z in others])
    eta = float(prods.min())
    delta_rotund = float((prods / near).min())
    order = np.argsort(near, kind="stable")
    profile = []
    suffix_min = np.minimum.accumulate(prods[order][::-1])[::-1]
    seen = set()
    for rank, idx in enumerate(order):
        eps = float(near[idx])
        if eps in seen:
            continue
        seen.add(eps)
        profile.append((eps, float(suffix_min[rank])))
    has_gap = eta > TAU_METRIC
    return PairGeometryReport(x, y, eta, delta_rotund, tuple(profile),
                              has_gap, has_gap, has_gap, has_gap)


def classify_space_loop(space):
    best = None
    for x, y in combinations(space.points(), 2):
        rep = analyze_pair_loop(space, x, y)
        if best is None or rep.eta < best.eta:
            best = rep
    return {"luna": bool(best.eta > TAU_METRIC), "min_eta": best.eta,
            "witness_pair": [best.x, best.y]}


def rotund_no_gap_loop(n):
    m = n + 2
    d = np.zeros((m, m))
    d[0, 1] = d[1, 0] = 1.0
    scale = 2.0 ** 51
    for k in range(1, n + 1):
        dxz = round(0.5 / k * scale) / scale
        g = 0.5 * dxz
        dyz = (1.0 + g) - dxz
        d[0, k + 1] = d[k + 1, 0] = dxz
        d[1, k + 1] = d[k + 1, 1] = dyz
        for j in range(1, k):
            v = 1.0 / (2 * k) + 1.0 / (2 * j)
            d[j + 1, k + 1] = d[k + 1, j + 1] = v
    return d


def nonaligned_not_discrete_loop(n):
    m = n + 1
    d = np.zeros((m, m))
    alphas = [1.0 / k for k in range(2, n + 2)]
    for i in range(1, m):
        d[0, i] = d[i, 0] = 1.0
        for j in range(i + 1, m):
            v = max(alphas[i - 1], alphas[j - 1])
            d[i, j] = d[j, i] = v
    return d


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 3.0, 1e3, 1e6])
SIZES = st.integers(min_value=0, max_value=40)


@st.composite
def euclidean(draw, n=SIZES):
    n = draw(n)
    dim = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    pts = np.random.default_rng(seed).normal(size=(n, dim))
    return draw(SCALES) * np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))


@st.composite
def ultrametric(draw, n=SIZES):
    # d(i, j) = max of the heights between positions i and j of a random
    # order: the subdominant ultrametric of a weighted path
    n = draw(n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.integers(1, 6, size=max(n - 1, 0)).astype(float)
    pos = rng.permutation(n)
    d = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            lo, hi = sorted((pos[a], pos[b]))
            d[a, b] = d[b, a] = h[lo:hi].max()
    return draw(SCALES) * d


@st.composite
def graph_geodesic(draw, n=SIZES):
    # shortest paths on a random connected weighted graph
    n = draw(n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.where(rng.random((n, n)) < 0.3, rng.uniform(0.1, 2.0, (n, n)),
                 np.inf)
    for i in range(1, n):
        w[i, rng.integers(0, i)] = rng.uniform(0.1, 2.0)
    d = np.minimum(w, w.T)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return draw(SCALES) * d


METRICS = st.one_of(euclidean(), ultrametric(), graph_geodesic())


@st.composite
def near_tie(draw):
    """A metric with one triangle inequality pushed to within one ulp of
    the TAU_METRIC boundary, on either side."""
    d = draw(euclidean(n=st.integers(3, 12))).copy()
    n = d.shape[0]
    i, j, k = draw(st.permutations(range(n)))[:3]
    s = d[i, k] + d[k, j]
    edge = s + TAU_METRIC * np.maximum(1.0, s)
    step = draw(st.sampled_from([-1, 0, 1]))
    v = edge if step == 0 else np.nextafter(edge, step * np.inf)
    d[i, j] = d[j, i] = v
    return d


@st.composite
def hostile(draw):
    """A metric with a few entries broken: asymmetric, NaN, infinite, zero
    or negative off-diagonal, or a nonzero diagonal."""
    d = draw(METRICS).copy()
    n = d.shape[0]
    if n == 0:
        return d
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        d[i, j] = draw(st.sampled_from([np.nan, np.inf, 0.0, -1.0, -0.0,
                                        1e-300, d[i, j] * 1.5,
                                        d[i, j] + 1.0]))
    return d


def _space(d):
    return PointedMetricSpace(np.array(d, dtype=float))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.one_of(METRICS, near_tie(), hostile()))
def test_validate_matches_loop(d):
    space = _space(d)
    new, ref = validate(space), validate_loop(space)
    assert new == ref
    assert repr(new) == repr(ref)


def test_validate_near_tie_is_bitwise_boundary():
    # d(0, 2) exactly at s + tol passes; one ulp above fails
    d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    s = 2.0
    edge = s + TAU_METRIC * s
    for v, ok in ((edge, True), (np.nextafter(edge, np.inf), False)):
        d[0, 2] = d[2, 0] = v
        rep = validate(_space(d))
        assert rep.ok is ok
        assert rep == validate_loop(_space(d))


def test_validate_multi_block_line():
    # 200 points: one row per block, about 200 blocks
    space = line_space(list(range(200)))
    assert space.n ** 2 > metric._BLOCK_CELLS
    assert validate(space) == validate_loop(space)
    broken = space.dist.copy()
    broken[3, 150] = broken[150, 3] = 400.0
    broken[199, 0] = -1.0
    space = _space(broken)
    rep = validate(space)
    assert rep == validate_loop(space)
    assert not rep.ok and len(rep.bad_triples) > 100


def test_validate_empty_and_single_point():
    for n in (0, 1):
        space = _space(np.zeros((n, n)))
        assert validate(space) == validate_loop(space)
        assert validate(space).ok


@pytest.mark.parametrize("d", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[0.0, np.inf], [np.inf, 0.0]],
    [[0.0, -np.inf], [-np.inf, 0.0]],
    [[0.0, np.inf, 1.0], [np.inf, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[0.0, np.inf, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[np.nan, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
    [[0.0, np.nan, 2.0], [np.nan, 0.0, 1.0], [2.0, 1.0, 0.0]],
    [[0.0, 1.0, 2.0], [1.0, -0.0, 1.0], [2.0, 1.0, -0.0]],
    [[0.0, 1.0, 2.0], [1.0, -1.0, 1.0], [2.0, 1.0, 0.0]],
    [[0.0, 1.0, 3.0], [1.0, -1.0, 1.0], [3.0, 1.0, 0.0]],
    [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]],
    [[0.0, 1.0, 3.0], [1.0, 0.0, np.nan], [3.0, np.nan, 0.0]],
    # the only violated pairs, (0, 1) and (1, 0), also have a NaN sum
    [[0.0, 3.0, 1.0, np.nan], [3.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0],
     [np.nan, 1.0, 1.0, 0.0]],
], ids=["n2", "n2-zero", "inf", "minus-inf", "inf-3", "inf-asym", "nan-diag",
        "nan-off", "minus-zero-diag", "negative-diag", "negative-diag-viol",
        "viol", "nan-sum", "nan-beside-violation"])
def test_validate_matches_loop_on_edge_cases(d):
    space = _space(d)
    new, ref = validate(space), validate_loop(space)
    assert new == ref
    assert repr(new) == repr(ref)


def test_validate_rejects_non_finite_distances():
    rep = validate(_space([[0.0, np.inf], [np.inf, 0.0]]))
    assert not rep.ok and rep.bad_pairs == ((0, 1),)
    assert validate(_space([[0.0, 1.0], [1.0, 0.0]])).ok


def test_validate_finds_a_violation_in_the_last_block_only(monkeypatch):
    # row 199 alone breaks the triangle inequality: d(199, 0) = 400 against
    # d(199, k) + d(k, 0) = 199; its mirror keeps d(0, 199) = 199
    d = line_space(list(range(200))).dist.copy()
    d[199, 0] = 400.0
    space = _space(d)
    seen = []
    enumerate_block = metric._block_triples

    def spy(d, lo, hi, s):
        seen.append((lo, hi))
        return enumerate_block(d, lo, hi, s)

    monkeypatch.setattr(metric, "_block_triples", spy)
    rep = validate(space)
    assert seen == [(199, 200)]
    assert rep == validate_loop(space)
    assert rep.bad_triples == tuple((199, 0, k) for k in range(1, 199))
    assert rep.bad_pairs == ((0, 199),)


def test_valid_space_is_not_enumerated(monkeypatch):
    # 40 points take four blocks of triangle sums; a metric flags none
    def spy(*args):
        raise AssertionError("a valid space reached the enumeration")

    monkeypatch.setattr(metric, "_block_triples", spy)
    space = line_space(list(range(40)))
    assert len(list(metric.triangle_sums(space.dist))) == 4
    assert validate(space).ok
    assert validate(gallery("equilateral", n=40)).ok


# ---------------------------------------------------------------------------
# Gromov products
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.one_of(euclidean(n=st.integers(2, 25)),
                 ultrametric(n=st.integers(2, 25)),
                 graph_geodesic(n=st.integers(2, 25)), near_tie()),
       st.data())
def test_analyze_pair_matches_loop(d, data):
    space = _space(d)
    x = data.draw(st.integers(0, space.n - 1))
    y = data.draw(st.integers(0, space.n - 1).filter(lambda v: v != x))
    new, ref = analyze_pair(space, x, y), analyze_pair_loop(space, x, y)
    assert new == ref
    assert repr(new) == repr(ref)


@SETTINGS
@given(st.one_of(euclidean(n=st.integers(2, 25)),
                 ultrametric(n=st.integers(2, 25)),
                 graph_geodesic(n=st.integers(2, 25)), near_tie()))
def test_classify_space_matches_loop(d):
    space = _space(d)
    new, ref = classify_space(space), classify_space_loop(space)
    assert new == ref
    assert repr(new) == repr(ref)


def test_classify_space_ties_take_first_pair():
    # every pair of an equilateral space ties; combinations order wins
    for n in (2, 3, 6):
        space = metric.equilateral(n)
        assert classify_space(space) == classify_space_loop(space)
        assert classify_space(space)["witness_pair"] == [0, 1]


def test_classify_space_nan_entries_match_loop():
    # an unvalidated space: a NaN eta wins only as the first pair's
    d = metric.line_space([0.0, 1.0, 3.0, 7.0]).dist.copy()
    for i, j in ((0, 1), (2, 3), (1, 3)):
        bad = d.copy()
        bad[i, j] = bad[j, i] = np.nan
        space = _space(bad)
        assert repr(classify_space(space)) == repr(classify_space_loop(space))


def test_classify_space_on_family_members():
    for name, indices in (("rotund_no_gap", range(1, 16)),
                          ("nonaligned_not_discrete", range(2, 16)),
                          ("almost_aligned", range(1, 31))):
        family = gallery(name)
        for k in indices:
            space, (x, y) = family.generate(k)
            assert repr(classify_space(space)) == \
                repr(classify_space_loop(space))
            assert repr(analyze_pair(space, x, y)) == \
                repr(analyze_pair_loop(space, x, y))


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, reference, first", [
    ("rotund_no_gap", rotund_no_gap_loop, 1),
    ("nonaligned_not_discrete", nonaligned_not_discrete_loop, 2),
])
def test_family_matrices_match_loop_bitwise(name, reference, first):
    family = gallery(name)
    for k in range(first, 61):
        space, _ = family.generator(k)
        assert space.dist.tobytes() == reference(k).tobytes(), (name, k)
    assert family.generate(60)[0].n == reference(60).shape[0]
