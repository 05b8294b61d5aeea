import numpy as np

from freegeo.metric import PointedMetricSpace


def random_euclidean_space(rng, n, dim=3, scale=1.0):
    """Random point cloud; Euclidean distances are always a metric."""
    while True:
        pts = rng.normal(size=(n, dim)) * scale
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        off = d[~np.eye(n, dtype=bool)]
        if off.min() > 1e-3 * scale:
            return PointedMetricSpace(d)


def random_zero_sum(rng, n, nonzero=True):
    m = rng.normal(size=n)
    m -= m.mean()
    if nonzero and np.abs(m).max() < 1e-6:
        m[0] += 1.0
        m[1] -= 1.0
    return m


def record_warm_solves(monkeypatch):
    """A list that gains (A2, b, cols, accepted) per seed of a warm
    `lp.solve`: the standard form, right-hand side and basic columns its
    one lane starts from (`lp._Batch.seed`, for a start on the path the
    solve takes first), and whether the warm solve gave the answer
    (`lp._solve_warm`) rather than leaving the problem to a cold solve."""
    from freegeo import lp
    calls, seeds = [], []
    seed, warm = lp._Batch.seed, lp._solve_warm

    def seeding(problem, canon, start, C, tol):
        path = lp._paths(canon)[0]
        if start is not None and start.path == path:
            rhs = lp._Lanes.of(problem, canon, path, C[:1]).rhs[0]
            seeds.append((canon.form(path)[0].A2, rhs, tuple(start.cols)))
        return seed(problem, canon, start, C, tol)

    def solving(*args):
        seeds.clear()
        out = warm(*args)
        calls.extend(seed + (out is not None,) for seed in seeds)
        return out

    monkeypatch.setattr(lp._Batch, "seed", staticmethod(seeding))
    monkeypatch.setattr(lp, "_solve_warm", solving)
    return calls
