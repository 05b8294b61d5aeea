import re

import numpy as np
import pytest

from freegeo.lipschitz import (LipFunction, LipschitzError, aux_f_xy,
                               cutoff_xi, f_gamma_construct, from_values,
                               g_gamma_construct, lip_norm, mcshane_extend,
                               pair_slope, peaking_check)
from freegeo.metric import (branching_tree, equilateral, gallery,
                            gamma_fatten, line_space)
from freegeo.tolerances import lp_tol
from conftest import random_euclidean_space


class TestNormAndSlope:
    def test_identity_on_line(self):
        f = from_values(line_space([0, 1, 2, 3]), [0, 1, 2, 3])
        assert lip_norm(f) == 1.0

    def test_zigzag_on_line(self):
        g = from_values(line_space([0, 1, 2, 3]), [0, 1, 0, 1])
        assert lip_norm(g) == 1.0

    def test_constant_zero(self):
        f = from_values(equilateral(4), [0, 0, 0, 0])
        assert lip_norm(f) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        s = random_euclidean_space(rng, 6)
        f = from_values(s, rng.normal(size=6), shift_to_base=True)
        for p in range(6):
            for q in range(6):
                if p != q:
                    assert pair_slope(f, p, q) == pytest.approx(
                        -pair_slope(f, q, p), abs=1e-12)

    def test_same_point_rejected(self):
        f = from_values(equilateral(3), [0, 1, 0])
        with pytest.raises(LipschitzError):
            pair_slope(f, 1, 1)


class TestAuxFxy:
    def test_endpoint_values_before_shift(self):
        # raw values at the endpoints are +-d(x,y)/2; check via differences
        s = equilateral(3, scale=2.0)
        f = aux_f_xy(s, 1, 2)
        assert f(1) - f(2) == pytest.approx(2.0, abs=1e-12)

    def test_zero_at_equidistant_base(self):
        s = equilateral(3)
        f = aux_f_xy(s, 1, 2)
        assert f(0) == 0.0

    def test_slope_formula_to_third_point(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_euclidean_space(rng, 5)
            x, y = 1, 2
            f = aux_f_xy(s, x, y)
            d = s.dist
            for z in range(5):
                if z in (x, y):
                    continue
                expect = d[x, y] / (d[z, y] + d[z, x])
                assert abs(pair_slope(f, x, z)) == pytest.approx(
                    expect, abs=1e-12)

    def test_norm_at_most_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_euclidean_space(rng, int(rng.integers(3, 9)))
            f = aux_f_xy(s, 0, 1)
            assert lip_norm(f) <= 1.0 + 1e-9


class TestPeaking:
    def test_equilateral_witness_half(self):
        s = equilateral(3)
        f = aux_f_xy(s, 1, 2)
        assert peaking_check(f, 1, 2) == pytest.approx(0.5, abs=1e-12)

    def test_collinear_fails(self):
        s = line_space([0, 1, 2, 3])
        f = from_values(s, [0, 1, 2, 3])
        assert peaking_check(f, 1, 0) is None

    def test_almost_aligned_truncation(self):
        space, (x, y) = gallery("almost_aligned").generate(3)
        f = aux_f_xy(space, x, y)
        assert peaking_check(f, x, y) == pytest.approx(8.0 / 9.0, abs=1e-12)


class TestMcShane:
    def test_identity_case(self):
        s = line_space([0, 1, 2])
        f = mcshane_extend(s, [0, 1, 2], [0.0, 1.0, 0.5], 1.0)
        assert np.array_equal(f.values, [0.0, 1.0, 0.5])

    def test_line_extension_and_clip(self):
        s = line_space([0, 1, 2, 3])
        f = mcshane_extend(s, [0, 1], [0.0, 1.0], 1.0)
        assert np.allclose(f.values, [0, 1, 2, 3])
        g = mcshane_extend(s, [0, 1], [0.0, 1.0], 1.0, clip=(-1.0, 1.0))
        assert np.allclose(g.values, [0, 1, 1, 1])

    def test_equilateral(self):
        s = equilateral(3)
        f = mcshane_extend(s, [0, 1], [0.0, 1.0], 1.0)
        assert f(2) == pytest.approx(1.0)

    def test_restriction_exact_and_norm_kept(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_euclidean_space(rng, 7)
            sub = [0, 2, 4]
            base = from_values(s, rng.normal(size=7), shift_to_base=True)
            L = lip_norm(base)
            f = mcshane_extend(s, sub, base.values[sub], L)
            assert np.array_equal(f.values[sub], base.values[sub])
            assert lip_norm(f) <= L + 1e-9

    def test_not_lipschitz_rejected(self):
        s = line_space([0, 1, 2])
        with pytest.raises(LipschitzError):
            mcshane_extend(s, [0, 1], [0.0, 5.0], 1.0)

    def test_base_required(self):
        s = line_space([0, 1, 2])
        with pytest.raises(LipschitzError):
            mcshane_extend(s, [1, 2], [1.0, 2.0], 1.0)


class TestCutoff:
    def test_anchor_values(self):
        xi = cutoff_xi(1.0, 3.0)
        assert xi(1.0) == 1.0
        assert xi(3.0) == 0.0
        assert xi(2.0) == pytest.approx(0.5)
        assert xi(0.2) == 1.0
        assert xi(9.0) == 0.0


class TestFattenedLift:
    def _line_setup(self):
        s = line_space([0, 1, 2, 3])
        fat = gamma_fatten(s, 1.0)
        f = mcshane_extend(s, [0, 1], [0.0, 1.0], 1.0, clip=(-1.0, 1.0))
        return s, fat, f

    def test_line_values(self):
        s, fat, f = self._line_setup()
        fg = f_gamma_construct(s, 1.0, [(1.0, 1, 0)], f, fat)
        assert fg(1) == pytest.approx(2.0)
        assert fg(0) == 0.0
        assert fg(2) == pytest.approx(1.5)
        assert fg(3) == pytest.approx(1.5)

    def test_line_pairing_one(self):
        s, fat, f = self._line_setup()
        fg = f_gamma_construct(s, 1.0, [(1.0, 1, 0)], f, fat)
        assert (fg(1) - fg(0)) / fat.d(0, 1) == pytest.approx(1.0)

    def test_overlapping_supports_rejected(self):
        s = line_space([0, 1, 2, 3])
        fat = gamma_fatten(s, 1.0)
        f = from_values(s, [0, 1, 2, 3])
        with pytest.raises(LipschitzError):
            f_gamma_construct(s, 1.0, [(0.5, 1, 0), (0.5, 2, 1)], f, fat)

    def test_taper(self):
        s, fat, f = self._line_setup()
        fg = f_gamma_construct(s, 1.0, [(1.0, 1, 0)], f, fat)
        xi = cutoff_xi(1.0, 33.0)
        gg = g_gamma_construct(s, fg, xi)
        assert gg(1) == pytest.approx(2.0)
        assert gg(2) == pytest.approx(1.5 * 31 / 32)
        assert gg(3) == pytest.approx(1.5 * 30 / 32)


def test_function_copies_the_callers_values():
    v = np.array([0.0, 1.0, 2.0])
    f = from_values(line_space([0, 1, 2]), v)
    assert v.flags.writeable and not f.values.flags.writeable
    v[1] = 5.0
    assert f(1) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected(bad):
    # a NaN norm passed the norm-one preconditions, which test
    # abs(lip_norm(g) - 1) > tol: peaking_check returned a NaN witness
    space = gallery("line", n=4)
    for values in ([0.0, 1.0, bad, 3.0], [bad, 1.0, 2.0, 3.0]):
        with pytest.raises(LipschitzError,
                           match="^function values must be finite$"):
            LipFunction(space, values)
    with pytest.raises(LipschitzError, match="must be finite"), \
            np.errstate(invalid="ignore"):
        from_values(space, [bad, 1.0, 2.0, 3.0], shift_to_base=True)


def f_gamma_construct_loop(space, gamma, terms, f, fattened):
    """The nested-loop form of `f_gamma_construct`, kept as the reference
    for its broadcast pair checks."""
    tol = lp_tol()
    xs = [t[1] for t in terms]
    ys = [t[2] for t in terms]
    d = space.dist
    for i, (lam, x, y) in enumerate(terms):
        if abs((f(x) - f(y)) - d[x, y]) > tol:
            raise LipschitzError(
                f"term {i}: function does not norm the pair ({x}, {y})")
    vals = f.values + gamma / 2.0
    for x in xs:
        vals[x] = f(x) + gamma
    for y in ys:
        vals[y] = f(y)
    if 0 not in xs and 0 not in ys:
        vals[0] = f(0)
    out = from_values(fattened, vals, shift_to_base=True)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if abs(out(x) - out(y)) > d[x, y] + gamma + tol:
                raise LipschitzError(f"pair bound failed at (x_{i}, y_{j})")
    off = [p for p in space.points() if p not in set(xs) | set(ys) | {0}]
    for i, x in enumerate(xs):
        for p in off:
            if abs(out(x) - out(p)) > d[x, p] + gamma / 2.0 + tol:
                raise LipschitzError(f"slack bound failed at (x_{i}, {p})")
    for j, y in enumerate(ys):
        for p in off:
            if abs(out(y) - out(p)) > d[y, p] + gamma / 2.0 + tol:
                raise LipschitzError(f"slack bound failed at (y_{j}, {p})")
    if abs(lip_norm(out) - 1.0) > tol:
        raise LipschitzError("lifted function must have norm one")
    pairing = sum(lam * (out(x) - out(y)) / (d[x, y] + gamma)
                  for lam, x, y in terms)
    if abs(pairing - 1.0) > tol:
        raise LipschitzError("lifted function must pair to one")
    return out


def _outcome(construct, *args):
    try:
        return construct(*args).values.tobytes()
    except LipschitzError as exc:
        return str(exc)


def test_lift_checks_match_nested_loops():
    # random disjoint terms normed by f, with the values off the terms
    # scaled until some pairs are pushed past their bounds: the broadcast
    # checks raise on the first failing pair of the loops, with its text
    rng = np.random.default_rng(7100)
    kinds = set()
    for _ in range(400):
        n = int(rng.integers(3, 11))
        space = random_euclidean_space(rng, n, dim=2)
        gamma = float(rng.uniform(0.05, 1.0))
        k = int(rng.integers(1, n // 2 + 1))
        pts = rng.permutation(n)
        xs, ys = pts[:k], pts[k:2 * k]
        if rng.random() < 0.5:
            ys = rng.choice(ys, size=k)     # shared sinks
        vals = rng.normal(size=n) * rng.choice([0.1, 0.5, 2.0])
        vals[xs] = vals[ys] + space.dist[xs, ys]
        lams = rng.uniform(0.1, 1.0, size=k)
        terms = [(float(lam / lams.sum()), int(x), int(y))
                 for lam, x, y in zip(lams, xs, ys)]
        f = LipFunction(space, vals - vals[0])
        args = (space, gamma, terms, f, gamma_fatten(space, gamma))
        want = _outcome(f_gamma_construct_loop, *args)
        assert _outcome(f_gamma_construct, *args) == want
        failed = re.match(r"\w+ bound failed at \(\w", str(want))
        kinds.add(failed.group() if failed else type(want).__name__)
    assert {"bytes", "pair bound failed at (x", "slack bound failed at (x",
            "slack bound failed at (y"} <= kinds


def mcshane_extend_loop(space, subset, f_subset, L, clip=None):
    """The pair-loop form of `mcshane_extend`, kept as the reference for
    its broadcast data check."""
    subset = list(subset)
    vals = np.asarray(f_subset, dtype=float)
    if len(subset) != vals.size:
        raise LipschitzError("subset and value sizes differ")
    if 0 not in subset:
        raise LipschitzError("the base point must belong to the subset")
    if vals[subset.index(0)] != 0.0:
        raise LipschitzError("data must vanish at the base")
    tol = lp_tol()
    d = space.dist
    for a_i, a in enumerate(subset):
        for b_i, b in enumerate(subset):
            if a != b and abs(vals[a_i] - vals[b_i]) > L * d[a, b] + tol:
                raise LipschitzError(
                    f"data is not {L}-Lipschitz on pair ({a}, {b})")
    ext = (vals[None, :] + L * d[:, subset]).min(axis=1)
    if clip is not None:
        lo, hi = clip
        if np.any(vals < lo - tol) or np.any(vals > hi + tol):
            raise LipschitzError("data escapes the clipping window")
        ext = np.clip(ext, lo, hi)
    ext[subset] = vals
    return LipFunction(space, ext)


def test_mcshane_checks_match_loop():
    # random subsets, some with repeated points (whose pairs are skipped),
    # and values scaled until some pairs are pushed past the bound: the
    # broadcast check raises on the loop's first failing pair, with its
    # text, and otherwise the extension is bitwise the loop's
    rng = np.random.default_rng(7300)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(2, 10))
        space = random_euclidean_space(rng, n, dim=2)
        k = int(rng.integers(1, n + 1))
        subset = [0] + [int(p) for p in rng.choice(n, size=k)]
        if rng.random() < 0.5:
            subset = [int(p) for p in rng.permutation(subset)]
        L = float(rng.choice([0.5, 1.0, 2.0]))
        base = from_values(space, rng.normal(size=n), shift_to_base=True)
        vals = base.values[subset] * rng.choice([0.01, 0.1, 1.0, 3.0])
        vals[[p == 0 for p in subset]] = 0.0
        if rng.random() < 0.3:      # repeated points with other values
            vals = vals + rng.normal(size=len(subset)) * 1e-3 \
                * np.array([p != 0 for p in subset])
        clip = (-1.0, 1.0) if rng.random() < 0.3 else None
        args = (space, subset, vals, L, clip)
        want = _outcome(mcshane_extend_loop, *args)
        assert _outcome(mcshane_extend, *args) == want
        outcomes.add(want if isinstance(want, str) and "window" in want
                     else "pair" if isinstance(want, str) else "values")
    assert outcomes >= {"pair", "values"}
    # values half a tolerance inside and outside L d + tol
    space = line_space([0.0, 0.3, 1.1])
    for L in (0.5, 1.0, 2.0):
        for c in (0.5, 1.5):
            vals = [0.0, L * 0.8 + 0.3 * L + c * lp_tol(), 0.3 * L]
            args = (space, [0, 2, 1], vals, L)
            want = _outcome(mcshane_extend_loop, *args)
            assert _outcome(mcshane_extend, *args) == want
            assert isinstance(want, str) == (c > 1.0)
