"""Lipschitz functions vanishing at the base point.

Holds the slope machinery (norm, signed pair slopes), the canonical
pair-separating function, peaking detection, the clipped McShane extension,
and the fattened-metric function constructions used by the perturbation
pipeline.  All constructed functions are shifted by a constant to vanish at
the base; shifts change no slope and no pairing with a zero-sum element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import PointedMetricSpace
from .tolerances import lp_tol


class LipschitzError(ValueError):
    """Precondition violation in a function construction."""


@dataclass(frozen=True)
class LipFunction:
    """Real values over the points of a space, zero at the base."""

    space: PointedMetricSpace
    values: np.ndarray

    def __post_init__(self):
        # a copy: freezing the caller's own array would make it read-only
        v = np.array(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape != (self.space.n,):
            raise LipschitzError("value vector size mismatch")
        if not np.isfinite(v).all():
            raise LipschitzError("function values must be finite")
        if v[0] != 0.0:
            raise LipschitzError("function must vanish at the base point")

    def __call__(self, i: int) -> float:
        return float(self.values[i])

    @property
    def norm(self) -> float:
        return lip_norm(self)

    def to_json(self) -> dict:
        return {"values": self.values.tolist()}


def from_values(space, values, shift_to_base=False) -> LipFunction:
    """Wrap raw values; optionally subtract the base value first."""
    v = np.asarray(values, dtype=float)
    if shift_to_base:
        v = v - v[0]
    return LipFunction(space, v)


def lip_norm(f: LipFunction) -> float:
    """Max over pairs of |f(p) - f(q)| / d(p, q)."""
    return float(np.abs(slope_matrix(f)).max(initial=0.0))


def pair_slope(f: LipFunction, p: int, q: int) -> float:
    """Signed slope (f(p) - f(q)) / d(p, q)."""
    if p == q:
        raise LipschitzError("pair_slope needs two distinct points")
    return (f(p) - f(q)) / f.space.d(p, q)


def slope_matrix(f: LipFunction) -> np.ndarray:
    """Signed slopes for all ordered pairs; the diagonal is exactly zero
    (values are finite, and the diagonal distance is taken as inf)."""
    v = f.values
    d = f.space.dist.copy()
    np.fill_diagonal(d, np.inf)
    return (v[:, None] - v[None, :]) / d


def aux_f_xy(space: PointedMetricSpace, x: int, y: int) -> LipFunction:
    """The canonical norm-one function separating x from y:
    z -> (d(x,y)/2) * (d(z,y) - d(z,x)) / (d(z,y) + d(z,x)), base-shifted.

    Slope 1 at (x, y); norm at most 1 on any metric space (checked, and
    reported as an error rather than silently normalized if violated).
    """
    if x == y:
        raise LipschitzError("x and y must differ")
    d = space.dist
    dxy = d[x, y]
    raw = (dxy / 2.0) * (d[:, y] - d[:, x]) / (d[:, y] + d[:, x])
    f = from_values(space, raw, shift_to_base=True)
    tol = lp_tol()
    if lip_norm(f) > 1.0 + tol:
        raise LipschitzError(
            f"separating function exceeds norm one: {lip_norm(f)!r}")
    if abs(pair_slope(f, x, y) - 1.0) > tol:
        raise LipschitzError("separating function must have slope 1 at (x,y)")
    return f


def peaking_check(f: LipFunction, x: int, y: int, tol: float | None = None):
    """Minimal peaking witness, or None.

    Returns the max |slope| over unordered pairs other than {x, y} when the
    slope at (x, y) is 1 and that max stays strictly below 1; pairs are
    unordered, so (y, x) counts as the distinguished pair.
    """
    if tol is None:
        tol = lp_tol()
    if x == y:
        raise LipschitzError("x and y must differ")
    if abs(lip_norm(f) - 1.0) > tol:
        raise LipschitzError("peaking test needs a norm-one function")
    if abs(pair_slope(f, x, y) - 1.0) > tol:
        return None
    s = np.abs(slope_matrix(f))
    s[x, y] = s[y, x] = 0.0
    gamma = float(s.max())
    if gamma >= 1.0 - tol:
        return None
    return gamma


def mcshane_extend(space: PointedMetricSpace, subset, f_subset, L: float,
                   clip=None) -> LipFunction:
    """Upper McShane extension z -> min_p (f(p) + L d(z, p)) over p in the
    subset, optionally clamped to [lo, hi].  Agrees with the data on the
    subset and does not increase the Lipschitz constant."""
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
    # every ordered pair of distinct points at once; the first failing
    # pair in row-major order is the first of a loop over the subset
    idx = np.array(subset, dtype=int)
    bad = np.argwhere((np.abs(vals[:, None] - vals[None, :])
                       > L * d[np.ix_(idx, idx)] + tol)
                      & (idx[:, None] != idx[None, :]))
    if bad.size:
        a_i, b_i = bad[0]
        raise LipschitzError(f"data is not {L}-Lipschitz on pair "
                             f"({subset[a_i]}, {subset[b_i]})")
    ext = (vals[None, :] + L * d[:, subset]).min(axis=1)
    if clip is not None:
        lo, hi = clip
        if np.any(vals < lo - tol) or np.any(vals > hi + tol):
            raise LipschitzError("data escapes the clipping window")
        ext = np.clip(ext, lo, hi)
    ext[subset] = vals   # exact agreement, no roundoff through the min
    return LipFunction(space, ext)


def cutoff_xi(beta: float, T: float):
    """Plateau-then-ramp cutoff: 1 on [0, beta], affine to 0 at T, 0 after."""
    if not T > beta > 0:
        raise LipschitzError("need T > beta > 0")

    def xi(t: float) -> float:
        if t <= beta:
            return 1.0
        if t >= T:
            return 0.0
        return -(t - T) / (T - beta)

    return xi


def f_gamma_construct(space: PointedMetricSpace, gamma: float, terms,
                      f: LipFunction, fattened: PointedMetricSpace
                      ) -> LipFunction:
    """Lift a common norming function to the fattened metric.

    terms: [(lam, x_i, y_i)] with lam > 0 summing to 1; f is 1-Lipschitz in
    the original metric with f(x_i) - f(y_i) = d(x_i, y_i) for every i.
    The lift takes f(x_i) + gamma at x_i, f(y_i) at y_i and f(z) + gamma/2
    elsewhere off N = {0} u {x_i} u {y_i}; it has norm one in the fattened
    metric and pairs to exactly 1 with the normalized combination.
    """
    tol = lp_tol()
    xs = [t[1] for t in terms]
    ys = [t[2] for t in terms]
    lams = [t[0] for t in terms]
    if any(l <= 0 for l in lams):
        raise LipschitzError("weights must be positive")
    if set(xs) & set(ys):
        raise LipschitzError("source and sink point sets must be disjoint")
    d = space.dist
    for i, (lam, x, y) in enumerate(terms):
        if abs((f(x) - f(y)) - d[x, y]) > tol:
            raise LipschitzError(
                f"term {i}: function does not norm the pair ({x}, {y})")
    vals = f.values + gamma / 2.0
    vals[xs] = f.values[xs] + gamma
    vals[ys] = f.values[ys]
    if 0 not in xs and 0 not in ys:
        vals[0] = f(0)   # keep the base at zero instead of the off-N bump
    out = from_values(fattened, vals, shift_to_base=True)

    # per-pair slack checks in the fattened metric, one broadcast per bound:
    # sources against sinks, then sources and sinks against the points off
    # N; the first failing pair in row-major order is reported
    ends = [f"x_{i}" for i in range(len(xs))] + [
        f"y_{j}" for j in range(len(ys))]
    off = [p for p in space.points() if p not in {0, *xs, *ys}]
    for what, rows, cols, names, slack in (
            ("pair", xs, ys, ends[len(xs):], gamma),
            ("slack", xs + ys, off, [str(p) for p in off], gamma / 2.0)):
        bad = np.argwhere(
            np.abs(out.values[rows][:, None] - out.values[cols][None, :])
            > d[np.ix_(rows, cols)] + slack + tol)
        if bad.size:
            i, j = bad[0]
            raise LipschitzError(
                f"{what} bound failed at ({ends[i]}, {names[j]})")
    if abs(lip_norm(out) - 1.0) > tol:
        raise LipschitzError("lifted function must have norm one")
    pairing = sum(lam * (out(x) - out(y)) / (d[x, y] + gamma)
                  for lam, x, y in terms)
    if abs(pairing - 1.0) > tol:
        raise LipschitzError("lifted function must pair to one")
    return out


def g_gamma_construct(space: PointedMetricSpace, f_gamma: LipFunction,
                      xi) -> LipFunction:
    """Taper the lifted function by the cutoff of the base distance
    (distance measured in the original metric)."""
    base_dist = space.dist[0]
    vals = np.array([f_gamma(i) * xi(float(base_dist[i]))
                     for i in range(space.n)])
    return LipFunction(f_gamma.space, vals)
