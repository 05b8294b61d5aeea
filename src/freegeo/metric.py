"""Finite pointed metric spaces: construction, validation, transforms, gallery.

The base point is always index 0.  Distances are plain 64-bit floats; gallery
generators pick parameter defaults with exact binary representations wherever
the constructions allow it, so that downstream LP residuals are attributable
to the solver rather than to input rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .tolerances import TAU_METRIC


class MetricError(ValueError):
    """Invalid space, transform parameter, or gallery request."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    bad_triples: tuple = ()     # (i, j, k) with d(i,j) > d(i,k) + d(k,j)
    bad_pairs: tuple = ()       # symmetry / positivity / diagonal offenders

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class PointedMetricSpace:
    """Finite metric space with base point at index 0."""

    dist: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        # a copy: freezing the caller's own array would make it read-only
        d = np.array(self.dist, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricError("distance matrix must be square")
        if self.labels and len(self.labels) != d.shape[0]:
            raise MetricError("label count mismatch")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def base(self) -> int:
        return 0

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def points(self):
        return range(self.n)

    def pairs(self):
        """All unordered pairs (i, j), i < j."""
        return combinations(range(self.n), 2)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def to_json(self) -> dict:
        return {"n": self.n,
                "labels": list(self.labels) if self.labels else [],
                "dist": self.dist.tolist()}

    @staticmethod
    def from_json(obj: dict, check: bool = True) -> "PointedMetricSpace":
        space = PointedMetricSpace(np.array(obj["dist"], dtype=float),
                                   tuple(obj.get("labels") or ()))
        if obj.get("n") not in (None, space.n):
            raise MetricError("JSON field 'n' disagrees with matrix size")
        if check:
            rep = validate(space)
            if not rep.ok:
                raise MetricError(f"not a metric space: {rep}")
        return space


#: Cap on the cells of one block of triangle sums, so that the temporaries
#: of an n^3 check stay small for large n.
_BLOCK_CELLS = 2 ** 14


def triangle_sums(d: np.ndarray):
    """Yield (lo, hi, S) over blocks of rows, S[i - lo, j, k] = d[i, k] +
    d[k, j] for lo <= i < hi; each block holds at most about _BLOCK_CELLS
    cells (one row at least)."""
    n = d.shape[0]
    step = max(1, _BLOCK_CELLS // max(1, n * n))
    dT = d.T
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        yield lo, hi, d[lo:hi, None, :] + dT[None, :, :]


def _block_triples(d: np.ndarray, lo: int, hi: int, s: np.ndarray):
    """The bad triples (i, j, k), lo <= i < hi, of one block of
    `triangle_sums`, in lexicographic order."""
    idx = np.arange(d.shape[0])
    i = idx[lo:hi, None, None]
    j = idx[None, :, None]
    k = idx[None, None, :]
    viol = d[lo:hi, :, None] > s + TAU_METRIC * np.maximum(1.0, s)
    viol &= (i != j) & (k != i) & (k != j)
    bi, bj, bk = np.nonzero(viol)
    return zip((bi + lo).tolist(), bj.tolist(), bk.tolist())


def validate(space: PointedMetricSpace) -> ValidationReport:
    """Check symmetry, positivity, finiteness, zero diagonal and the
    triangle inequality.

    A pair (i, j), i <= j, is bad when d(i, i) != 0, or when i < j and
    d(i, j) differs from d(j, i) or is not in (0, inf).  A triple (i, j, k)
    of distinct points is bad when d(i, j) > s + TAU_METRIC * max(1, s) for
    s = d(i, k) + d(k, j); they are listed in lexicographic order.

    Each block of triangle sums is first reduced to m(i, j) = min over k of
    s (NaN sums skipped, k = i and k = j included), and only a block with
    some d(i, j) > m + TAU_METRIC * max(1, m) is enumerated.  This lists
    exactly the same triples:

    - the bound s -> fl(s + fl(TAU_METRIC * max(1, s))) is nondecreasing in
      s, so some k violates the inequality iff k = argmin s does;
    - `fmin` skips NaN sums, whose comparisons are false anyway;
    - k in {i, j} and i = j can only flag a block the masks then clear, so
      no block with a bad triple is skipped.
    """
    d = space.dist
    idx = np.arange(space.n)
    # upper triangle in row-major order: the diagonal must be 0, an
    # off-diagonal entry finite, positive and equal to its mirror
    off = idx[:, None] != idx[None, :]
    bad = np.where(off, (d != d.T) | ~((d > 0.0) & (d < np.inf)), d != 0.0)
    bad_pairs = list(zip(*(a.tolist() for a in np.nonzero(np.triu(bad)))))
    bad_triples = []
    for lo, hi, s in triangle_sums(d):
        m = np.fmin.reduce(s, axis=2)
        if (d[lo:hi] > m + TAU_METRIC * np.maximum(1.0, m)).any():
            bad_triples += _block_triples(d, lo, hi, s)
    return ValidationReport(ok=not bad_pairs and not bad_triples,
                            bad_triples=tuple(bad_triples),
                            bad_pairs=tuple(bad_pairs))


def _check_gamma(gamma: float) -> None:
    # NaN and inf fail too: an infinite gamma makes every distance inf
    if not 0.0 < gamma < np.inf:
        raise MetricError("gamma must be positive and finite")


def gamma_fatten(space: PointedMetricSpace, gamma: float) -> PointedMetricSpace:
    """Add gamma to every off-diagonal distance."""
    _check_gamma(gamma)
    d = space.dist + gamma
    np.fill_diagonal(d, 0.0)
    return PointedMetricSpace(d, space.labels)


def gamma_thin(space: PointedMetricSpace, gamma: float):
    """Subtract gamma off-diagonal.  Returns (space, report); space is None
    when the thinned matrix is not a metric."""
    _check_gamma(gamma)
    d = space.dist - gamma
    np.fill_diagonal(d, 0.0)
    thinned = PointedMetricSpace(d, space.labels)
    rep = validate(thinned)
    return (thinned if rep.ok else None), rep


def subspace(space: PointedMetricSpace, indices):
    """Restriction to `indices`, re-rooted at the smallest retained index.

    Returns (space, kept) where kept[i_new] = i_old.
    """
    kept = sorted(set(int(i) for i in indices))
    if not kept:
        raise MetricError("empty subspace")
    if any(i < 0 or i >= space.n for i in kept):
        raise MetricError("index out of range")
    d = space.dist[np.ix_(kept, kept)]
    labels = tuple(space.label(i) for i in kept) if space.labels else ()
    return PointedMetricSpace(d, labels), kept


def metric_segment(space: PointedMetricSpace, x: int, y: int):
    """All z with d(x,z) + d(z,y) = d(x,y) within relative tolerance."""
    if x == y:
        raise MetricError("segment endpoints must differ")
    d = space.dist
    s = d[x] + d[:, y]
    tol = TAU_METRIC * np.maximum(1.0, s)
    return [int(z) for z in np.nonzero(s <= d[x, y] + tol)[0]]


def uniform_discreteness_constant(space: PointedMetricSpace) -> float:
    """Minimum off-diagonal distance."""
    if space.n < 2:
        raise MetricError("need at least two points")
    d = space.dist.copy()
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def radius_beta(space: PointedMetricSpace, subset) -> float:
    """Max distance from the base over the subset."""
    subset = list(subset)
    if not subset:
        raise MetricError("empty subset")
    return float(max(space.dist[0, q] for q in subset))


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricFamily:
    """Indexed family of spaces, each with a distinguished pair of points."""

    name: str
    params: dict
    generator: Callable[[int], tuple]   # index -> (space, (x, y))

    def generate(self, index: int):
        space, pair = self.generator(index)
        rep = validate(space)
        if not rep.ok:
            raise MetricError(f"family {self.name}[{index}] invalid: {rep}")
        x, y = pair
        if x == y or not (0 <= x < space.n and 0 <= y < space.n):
            raise MetricError("bad distinguished pair")
        return space, pair


def _from_line(coords, labels=None) -> PointedMetricSpace:
    c = np.asarray(coords, dtype=float)
    d = np.abs(c[:, None] - c[None, :])
    return PointedMetricSpace(d, tuple(labels) if labels else
                              tuple(str(v) for v in coords))


def line_space(coords) -> PointedMetricSpace:
    """Points on the real line; the first coordinate is the base."""
    if len(set(coords)) != len(coords):
        raise MetricError("line coordinates must be distinct")
    return _from_line(coords)


def equilateral(n: int, scale: float = 1.0) -> PointedMetricSpace:
    if n < 2 or not 0 < scale < np.inf:
        raise MetricError("need n >= 2 and a positive finite scale")
    d = np.full((n, n), float(scale))
    np.fill_diagonal(d, 0.0)
    return PointedMetricSpace(d)


def branching_tree(n: int) -> PointedMetricSpace:
    """Star of n leaves: d(0,i) = 1 and d(i,j) = 2 between leaves."""
    if n < 1:
        raise MetricError("need at least one leaf")
    d = np.full((n + 1, n + 1), 2.0)
    d[0, :] = 1.0
    d[:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    return PointedMetricSpace(d, tuple(["0"] + [str(i) for i in range(1, n + 1)]))


def cantor_endpoints(level: int) -> PointedMetricSpace:
    """Endpoints of the middle-thirds construction after `level` removals."""
    if level < 0:
        raise MetricError("level must be >= 0")
    intervals = [(0.0, 1.0)]
    for _ in range(level):
        nxt = []
        for a, b in intervals:
            t = (b - a) / 3.0
            nxt.append((a, a + t))
            nxt.append((b - t, b))
        intervals = nxt
    coords = sorted({e for iv in intervals for e in iv})
    return _from_line(coords)


def three_point_aligned() -> PointedMetricSpace:
    """{-1, 0, 1} on the line with the middle point as base."""
    return _from_line([0.0, -1.0, 1.0], labels=("0", "-1", "1"))


def _almost_aligned_family(eps_of=None) -> MetricFamily:
    """Pair (x,y) at distance 1 with witnesses z_k nearly on the segment:
    d(x,z_k) = 1/2, d(y,z_k) = 1/2 + eps_k with eps_k -> 0."""
    if eps_of is None:
        eps_of = lambda k: 2.0 ** (-k)

    def gen(n):
        if n < 1:
            raise MetricError("index must be >= 1")
        m = n + 2
        d = np.ones((m, m))
        for k in range(1, n + 1):
            e = eps_of(k)
            if not 0 < e:
                raise MetricError("eps values must be positive")
            d[0, k + 1] = d[k + 1, 0] = 0.5
            d[1, k + 1] = d[k + 1, 1] = 0.5 + e
        np.fill_diagonal(d, 0.0)
        labels = tuple(["x", "y"] + [f"z{k}" for k in range(1, n + 1)])
        return PointedMetricSpace(d, labels), (0, 1)

    return MetricFamily("almost_aligned", {"eps": "2^-k"}, gen)


def _rotund_no_gap_family() -> MetricFamily:
    """Uniformly Gromov-rotund pair whose Gromov products still vanish:
    d(x,z_k) = 1/(2k), d(y,z_k) = 1 - 1/(4k), d(z_k,z_m) = 1/(2k) + 1/(2m)."""

    def gen(n):
        if n < 1:
            raise MetricError("index must be >= 1")
        m = n + 2
        d = np.zeros((m, m))
        d[0, 1] = d[1, 0] = 1.0
        k = np.arange(1, n + 1)
        # round d(x,z_k) to a multiple of 2^-51 so that the product
        # d(x,z_k) + d(y,z_k) - d(x,y) = d(x,z_k)/2 is exact in doubles
        scale = 2.0 ** 51
        dxz = np.round(0.5 / k * scale) / scale
        dyz = (1.0 + 0.5 * dxz) - dxz
        d[0, 2:] = d[2:, 0] = dxz
        d[1, 2:] = d[2:, 1] = dyz
        half = 1.0 / (2 * k)
        d[2:, 2:] = half[:, None] + half[None, :]
        np.fill_diagonal(d, 0.0)
        labels = tuple(["x", "y"] + [f"z{k}" for k in range(1, n + 1)])
        return PointedMetricSpace(d, labels), (0, 1)

    return MetricFamily("rotund_no_gap", {}, gen)


def _branching_tree_family() -> MetricFamily:
    def gen(n):
        if n < 2:
            raise MetricError("index must be >= 2")
        return branching_tree(n), (1, 2)

    return MetricFamily("branching_tree", {}, gen)


def _nonaligned_not_discrete_family(alpha_of=None) -> MetricFamily:
    """sup-norm distances of points (1, 0, ..., alpha_k, 0, ...) plus the
    origin: all pairs keep a Gromov gap while min distance tends to 0."""
    if alpha_of is None:
        alpha_of = lambda k: 1.0 / k

    def gen(n):
        if n < 2:
            raise MetricError("index must be >= 2")
        m = n + 1   # origin plus points indexed 2..n+1 -> 1..n here
        d = np.zeros((m, m))
        alphas = np.array([alpha_of(k) for k in range(2, n + 2)], dtype=float)
        d[0, 1:] = d[1:, 0] = 1.0
        d[1:, 1:] = np.maximum.outer(alphas, alphas)
        np.fill_diagonal(d, 0.0)
        return PointedMetricSpace(d), (1, 2)

    return MetricFamily("nonaligned_not_discrete", {"alpha": "1/k"}, gen)


_FAMILY_BUILDERS = {
    "almost_aligned": _almost_aligned_family,
    "rotund_no_gap": _rotund_no_gap_family,
    "branching_tree_family": _branching_tree_family,
    "nonaligned_not_discrete": _nonaligned_not_discrete_family,
}


def gallery(name: str, **params):
    """Named example spaces and families.

    Spaces: line(n or coords), equilateral(n, scale), branching_tree(n),
    cantor(level), three_point_aligned.
    Families: almost_aligned, rotund_no_gap, branching_tree_family,
    nonaligned_not_discrete.
    """
    if name == "line":
        coords = params.get("coords")
        if coords is None:
            n = _integer(params, "n", 4)
            if n < 2:
                raise MetricError("need n >= 2")
            coords = list(range(n))
        return line_space(coords)
    if name == "equilateral":
        return equilateral(_integer(params, "n", 3),
                           float(params.get("scale", 1.0)))
    if name == "branching_tree":
        return branching_tree(_integer(params, "n", 3))
    if name == "cantor":
        return cantor_endpoints(_integer(params, "level", 2))
    if name == "three_point_aligned":
        return three_point_aligned()
    if name in _FAMILY_BUILDERS:
        return _FAMILY_BUILDERS[name]()
    raise MetricError(f"unknown gallery name {name!r}")


def _integer(params: dict, key: str, default: int) -> int:
    """params[key] as an int; a float must be integral (so not NaN or
    infinite), where int() would truncate it or fail."""
    v = params.get(key, default)
    if isinstance(v, float) and not v.is_integer():
        raise MetricError(f"{key} must be an integer, got {v!r}")
    return int(v)


def space_to_json_str(space: PointedMetricSpace) -> str:
    return json.dumps(space.to_json(), sort_keys=True)
