"""Gromov-product analytics for pairs of points.

For a pair (x, y) the report carries the uniform product gap eta, the
rotundity ratio (products measured against the distance to the nearer
endpoint), and the concavity profile (running product minimum over points
at least eps away from both endpoints).  On a finite space the three
positivity notions collapse to eta > 0; the profile tables are where the
distinctions of the sequential counterexample families become visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .metric import MetricFamily, PointedMetricSpace, triangle_sums
from .tolerances import TAU_METRIC


class PairError(ValueError):
    pass


def gromov_product(space: PointedMetricSpace, z: int, x: int, y: int) -> float:
    """d(x,z) + d(z,y) - d(x,y); nonnegative by the triangle inequality."""
    if x == y:
        raise PairError("x and y must differ")
    d = space.dist
    return float(d[x, z] + d[z, y] - d[x, y])


@dataclass(frozen=True)
class PairGeometryReport:
    x: int
    y: int
    eta: float                    # min Gromov product over z outside {x, y}
    delta_rotund: float           # min of product / min(d(x,z), d(y,z))
    concavity_profile: tuple      # (eps, min product over z with r_z >= eps)
    has_gromov_gap: bool
    is_rotund: bool
    is_concave: bool
    extreme_molecule: bool

    def to_json(self) -> dict:
        return {"pair": [self.x, self.y], "eta": self.eta,
                "delta_rotund": self.delta_rotund,
                "concavity_profile": [list(t) for t in self.concavity_profile],
                "has_gromov_gap": self.has_gromov_gap,
                "is_rotund": self.is_rotund, "is_concave": self.is_concave,
                "extreme_molecule": self.extreme_molecule}


def _pair_products(space: PointedMetricSpace, x: int, y: int):
    """(eta, delta_rotund, prods, near) of the pair (x, y): over the points
    z outside {x, y}, prods holds the Gromov products and near the
    distances min(d(x,z), d(y,z)); eta is the least product and
    delta_rotund the least ratio, both inf when there is no such z."""
    if x == y:
        raise PairError("x and y must differ")
    if not (0 <= x < space.n and 0 <= y < space.n):
        raise PairError(f"pair ({x}, {y}) is out of range for {space.n} "
                        "points")
    others = np.delete(np.arange(space.n), [x, y])
    d = space.dist
    dx, dy = d[x, others], d[y, others]
    prods = dx + d[others, y] - d[x, y]
    near = np.where(dy < dx, dy, dx)     # min(d(x,z), d(y,z)), first on ties
    if not others.size:
        return np.inf, np.inf, prods, near
    return float(prods.min()), float((prods / near).min()), prods, near


def analyze_pair(space: PointedMetricSpace, x: int, y: int
                 ) -> PairGeometryReport:
    """Enumerate every witness point and classify the pair."""
    eta, delta_rotund, prods, near = _pair_products(space, x, y)
    if not prods.size:
        return PairGeometryReport(x, y, eta, delta_rotund, (), True, True,
                                  True, True)
    order = np.argsort(near, kind="stable")
    # running min of products over { z : r_z >= eps } at each breakpoint,
    # one entry per distinct eps (equal values are adjacent once sorted)
    suffix_min = np.minimum.accumulate(prods[order][::-1])[::-1]
    eps = near[order]
    first = np.ones(eps.size, dtype=bool)
    first[1:] = eps[1:] != eps[:-1]
    profile = tuple(zip(eps[first].tolist(), suffix_min[first].tolist()))
    # on a finite space rotundity, concavity and extremality of the molecule
    # all coincide with a positive gap; decide it once, at the metric
    # tolerance, so ratios that cross the tolerance elsewhere cannot disagree
    has_gap = eta > TAU_METRIC
    return PairGeometryReport(x, y, eta, delta_rotund, profile,
                              has_gap, has_gap, has_gap, has_gap)


def classify_space(space: PointedMetricSpace) -> dict:
    """Uniform non-alignment across all pairs, with the witness pair."""
    if space.n < 2:
        raise PairError("need at least two points")
    # eta of every pair (x, y): products with z in {x, y} masked to +inf
    d = space.dist
    n = space.n
    idx = np.arange(n)
    etas = np.empty((n, n))
    for lo, hi, s in triangle_sums(d):
        prods = s - d[lo:hi, :, None]
        x = idx[lo:hi, None, None]
        z = idx[None, None, :]
        prods[(z == x) | (z == idx[None, :, None])] = np.inf
        etas[lo:hi] = prods.min(axis=2)
    # the first minimum in combinations order; a NaN eta never wins unless
    # it is the first pair's, as with a running strict '<'
    xs, ys = np.triu_indices(n, 1)
    eta = etas[xs, ys]
    k = 0 if np.isnan(eta[0]) else int(np.argmin(np.where(np.isnan(eta),
                                                          np.inf, eta)))
    best = analyze_pair(space, int(xs[k]), int(ys[k]))
    return {"luna": bool(best.eta > TAU_METRIC),
            "min_eta": best.eta,
            "witness_pair": [best.x, best.y]}


def family_trend(family: MetricFamily, indices) -> list:
    """Per-index (index, eta, delta_rotund) for the distinguished pair.

    The spaces come from `family.spaces`: when the largest index's space is
    a metric, every space that is bitwise a leading block of it is one too,
    so a nested family is validated once, not once per index.  Rows and
    errors are those of `generate` called index by index.
    """
    indices = list(indices)
    rows = []
    for idx, (space, (x, y)) in zip(indices, family.spaces(indices)):
        eta, delta_rotund, _, _ = _pair_products(space, x, y)
        rows.append({"index": int(idx), "eta": eta,
                     "delta_rotund": delta_rotund})
    return rows
