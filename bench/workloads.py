"""The benchmark's two workloads.

A workload turns a seed into rounds of operations.  One operation is one
public call into ``freegeo``.  A round is a stratified sample of the
workload's input mix, so every round covers the same spread of sizes and
kinds and only the draws inside each stratum change with the seed.  Round
``r`` is generated from the pair ``(seed, r)`` and nothing else, so a round
can be generated again for checking.

Each workload provides:

- ``setup()``: per-run preparation that is part of the measured set-up time;
- ``round(r)``: the operations of round ``r``;
- ``warmup_op()``: the one operation run during set-up;
- ``call(op)``: the timed public call;
- ``check(op, out)``: checks run right after the call, outside the timed
  region; returns ``(problem or None, kept)``, where ``kept`` is a small
  value for ``final_check``, or None if the op needs no further check;
- ``final_check(op, kept)``: checks run after the timed loop;
- ``labels(op)``: the op's category in each dimension of the input mix;
- ``describe(op)``: bytes that identify the op's inputs, for the digest;
- ``close()``: removes what ``setup`` wrote.

The modules of ``freegeo`` are reached only through their public functions,
always looked up as module attributes so that the tracer's wrappers are
called in traced mode.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from freegeo import cli, free_space, metric, ssd

TOL = 1e-7
WARMUP = 2 ** 31    # stream of the warm-up op; rounds never reach it

# ---------------------------------------------------------------------------
# probe_trees
# ---------------------------------------------------------------------------


class ProbeTrees:
    """One ``ssd.exposedness_probe`` per op on ``branching_tree(n)``.

    A round has 26 ops: every n in 4..16, once plain and once fattened, in
    random order, each with its own probe seed.  Plain ops probe the
    uniform leaf-to-base combination at eta = 0.05; fattened ops probe the
    same combination on the gamma = 1 fattened tree at eta = rho / 2, with
    rho and the bound from ``perturbation_pipeline`` at eps = 0.04.
    """

    name = "probe_trees"
    SIZES = range(4, 17)
    SAMPLES = 8
    ETA_PLAIN = 0.05
    GAMMA = 1.0
    EPS = 0.04

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = {}

    def setup(self):
        self.cases = {}
        for n in self.SIZES:
            tree = metric.branching_tree(n)
            terms = tuple((1.0 / n, k, 0) for k in range(1, n + 1))
            plain = free_space.MoleculeCombination(tree, terms).element()
            fat = metric.gamma_fatten(tree, self.GAMMA)
            comb = free_space.MoleculeCombination(fat, terms)
            f = ssd.find_common_norming(
                tree, free_space.MoleculeCombination(tree, terms))
            g = free_space.norming_functional(comb.element())
            res = ssd.perturbation_pipeline(tree, self.GAMMA, comb, f, g,
                                            self.EPS)
            if res.status != ssd.CERTIFIED:
                raise RuntimeError(f"pipeline on tree {n}: {res.status}")
            self.cases[n, "plain"] = (plain, self.ETA_PLAIN, math.inf)
            self.cases[n, "fattened"] = (comb.element(), res.rho / 2.0,
                                         res.bound)

    def close(self):
        pass

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        keys = [(n, kind) for n in self.SIZES
                for kind in ("plain", "fattened")]
        return [{"n": keys[i][0], "kind": keys[i][1],
                 "seed": int(rng.integers(2 ** 31)), "round": r}
                for i in rng.permutation(len(keys))]

    def warmup_op(self):
        rng = np.random.default_rng([self.seed, WARMUP])
        return {"n": 10, "kind": "plain", "seed": int(rng.integers(2 ** 31)),
                "round": None}

    def call(self, op):
        mu, eta, _ = self.cases[op["n"], op["kind"]]
        return ssd.exposedness_probe(mu, [eta], self.SAMPLES, op["seed"])

    def check(self, op, out):
        _, eta, bound = self.cases[op["n"], op["kind"]]
        if len(out.entries) != 1:
            return "probe returned the wrong number of entries", None
        e_eta, worst, k = out.entries[0]
        if e_eta != eta or k != self.SAMPLES or out.seed != op["seed"]:
            return "probe entry does not echo its inputs", None
        if not 0.0 <= worst <= bound:
            return f"worst distance {worst!r} outside [0, {bound!r}]", None
        # round 0 covers every case; its ops are rerun after the loop
        return None, out.entries if op["round"] == 0 else None

    def final_check(self, op, entries):
        """Rerun the op with the same seed; the entries must be identical."""
        again = self.call(op).entries
        if again != entries:
            return f"rerun with seed {op['seed']} gave {again!r}"
        return None

    def labels(self, op):
        n = op["n"]
        band = "4-7" if n <= 7 else "8-11" if n <= 11 else "12-16"
        return {"n": band, "kind": op["kind"]}

    def describe(self, op):
        return f"{op['n']},{op['kind']},{op['seed']};".encode()


# ---------------------------------------------------------------------------
# cli_gallery
# ---------------------------------------------------------------------------

REPORT_KEYS = {"command", "version", "tolerances", "statement", "inputs",
               "outputs"}

OUTPUT_KEYS = {
    "validate": {"ok", "n", "bad_triples", "bad_pairs"},
    "classify-space": {"luna", "min_eta", "witness_pair"},
    "family-trend": {"rows"},
    "perturb": {"status", "bound", "rho", "psi", "verified"},
    "perturb-single": {"h", "bound", "distance", "gamma_peak"},
    "certify-almost-aligned": {"eps", "n0", "distance", "h", "checks"},
    "represent": {"combination", "weight_sum", "norm"},
    "distort": {"distortion"},
}

# Defect probes: requests whose outcome is specified but which the package
# is known to get wrong.  The first four are the malformed requests of the
# robustness item in ROADMAP.md and must end in an ``error:`` line with exit
# code 1 or 2.  The last crosses the metric tolerance on the almost-aligned
# family (eps = 2^-30 < 1e-9 < 2 eps) and must end in a report (exit 0) or
# an ``error:`` line (exit 2).  None may end in a traceback.
PROBES = {"index7_on_3_points": (1, 2), "pair_a_b": (1, 2),
          "pair_1_9": (1, 2), "params_n_x": (1, 2),
          "almost_aligned_1_30": (0, 2)}

# family-trend: (family, first index, last index allowed).  almost_aligned
# stops at 29; index 30 is the last defect probe above.
FAMILIES = (("rotund_no_gap", 1, 40), ("almost_aligned", 1, 29),
            ("nonaligned_not_discrete", 2, 40))
TREND_FROM = 8     # the last index lies in [8, last allowed]


class Kronecker:
    """Low-discrepancy draws for one round of a workload.

    The ``j``-th draw of round ``r`` is ``frac(phase_j + r * alpha_j)``,
    with ``phase_j`` from the seed and ``alpha_j`` the fractional part of
    the square root of the ``j``-th prime.  A round makes the same draws in
    the same order every time, so draw ``j`` of successive rounds runs
    through [0, 1) evenly, and jointly with the other draws, where
    independent draws would leave gaps and clusters.  Over any stretch of
    rounds the mix of sizes is then nearly the same for every seed, and a
    run's latency percentiles, which fall where few op kinds lie (the
    trends' time grows with the cube of their last index), do not depend
    on the luck of the draws.
    """

    ALPHAS = np.array([math.sqrt(p) % 1.0 for p in (
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
        61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)])

    def __init__(self, seed: int, r: int, stream: int):
        self.u = (np.random.default_rng([seed, stream]).random(
            self.ALPHAS.size) + r * self.ALPHAS) % 1.0
        self.j = 0

    def random(self) -> float:
        self.j += 1
        return float(self.u[self.j - 1])

    def integers(self, lo: int, hi: int | None = None) -> int:
        """An integer in [lo, hi), or in [0, lo) if ``hi`` is None."""
        if hi is None:
            lo, hi = 0, lo
        return lo + int(self.random() * (hi - lo))


DRAW_STREAM = 2 ** 31 - 1    # seeds the phases; rounds never reach it


class CliGallery:
    """One in-process ``cli.main(argv)`` per op, stdout and stderr captured.

    A round has 18 ops in random order: two each of ``validate``,
    ``classify-space``, ``perturb``, ``perturb-single``,
    ``certify-almost-aligned``, ``represent`` and ``distort``; three
    ``family-trend`` (one per family, the range ending in 8..40, or 8..29
    for almost_aligned, as set by ``_trend``); and one defect probe,
    cycling through the five in ``PROBES``.
    """

    name = "cli_gallery"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.dir = None
        self.files = {}
        self.seen = {}         # argv -> hash of stdout, for determinism

    def setup(self):
        self.close()
        os.makedirs(self.workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        self.seen = {}
        files = {"three": metric.three_point_aligned().to_json(),
                 "broken": {"n": 3, "labels": ["a", "b", "c"],
                            "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
                 "mol_7_0": {"molecules": [[1.0, 7, 0]]}}
        for n in range(4, 9):
            files[f"line{n}"] = metric.line_space(
                [float(i) for i in range(n)]).to_json()
        for n in range(3, 9):
            files[f"tree{n}"] = metric.branching_tree(n).to_json()
        for x in range(1, 9):
            files[f"mol_{x}_0"] = {"molecules": [[1.0, x, 0]]}
        files["masses_line"] = {"masses": [0.0, 0.5, -1.0, 0.0, 0.5, 0.0]}
        files["masses_tree"] = {"masses": [0.0, 1.0, -0.5, -0.5, 0.0, 0.0]}
        self.files = {}
        for key, obj in files.items():
            path = os.path.join(self.dir, key + ".json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            self.files[key] = path

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    # -- op construction ---------------------------------------------------

    def _validate(self, rng, bad):
        if bad:
            return ["validate", "--space", self.files["broken"]], 2
        name, key, lo, hi = _pick(rng, (("cantor", "level", 2, 4),
                                        ("line", "n", 8, 32),
                                        ("equilateral", "n", 4, 16),
                                        ("branching_tree", "n", 3, 16)))
        v = int(rng.integers(lo, hi + 1))
        return ["validate", "--gallery", name, "--params", f"{key}={v}"], 0

    def _classify_space(self, rng):
        name, key, lo, hi = _pick(rng, (("equilateral", "n", 4, 12),
                                        ("branching_tree", "n", 3, 10),
                                        ("line", "n", 4, 12),
                                        ("cantor", "level", 1, 3),
                                        ("almost_aligned", "index", 2, 10)))
        v = int(rng.integers(lo, hi + 1))
        if key == "index":
            return ["classify-space", "--gallery", name, "--index", str(v)], 0
        return ["classify-space", "--gallery", name, "--params",
                f"{key}={v}"], 0

    def _perturb(self, rng, too_large):
        if rng.random() < 0.5:
            n = int(rng.integers(4, 9))
            space, mol = f"line{n}", "mol_1_0"
            gamma = _pick(rng, ("1", "2"))
        else:
            n = int(rng.integers(3, 9))
            space, mol = f"tree{n}", f"mol_{int(rng.integers(1, n + 1))}_0"
            gamma = "2"
        eps = "0.9" if too_large else "0.04"
        return ["perturb", "--space", self.files[space], "--element",
                self.files[mol], "--gamma", gamma, "--epsilon", eps], \
            2 if too_large else 0

    def _perturb_single(self, rng):
        name, pairs = _pick(rng, (
            ("equilateral", ("1,2", "2,1", "0,1", "1,0", "0,2", "2,0")),
            ("line", ("0,1", "1,0", "1,2", "2,1")),
            ("branching_tree", ("0,1", "0,2", "1,0", "2,0"))))
        n = int(rng.integers(3, 9))
        return ["perturb-single", "--gallery", name, "--params", f"n={n}",
                "--pair", _pick(rng, pairs), "--epsilon", "0.1"], 0

    def _certify(self, rng):
        return ["certify-almost-aligned", "--index",
                str(int(rng.integers(4, 17))), "--epsilon", "0.1"], 0

    def _represent(self, rng):
        key = _pick(rng, ("line", "tree"))
        space = self.files["line6" if key == "line" else "tree5"]
        return ["represent", "--space", space, "--element",
                self.files[f"masses_{key}"]], 0

    def _distort(self, rng):
        name = _pick(rng, ("branching_tree", "equilateral", "line"))
        n = int(rng.integers(3, 12))
        gamma = _pick(rng, ("0.25", "0.5", "1"))
        return ["distort", "--gallery", name, "--params", f"n={n}",
                "--gamma", gamma], 0

    def _trend(self, u, k):
        """The trend of family ``k``; ``u`` in [0, 1) is shifted by k / 3,
        so a round's three trends end in different thirds of their
        ranges."""
        family, lo, last = FAMILIES[k]
        u = (u + k / len(FAMILIES)) % 1.0
        hi = TREND_FROM + int(u * (last - TREND_FROM + 1))
        return ["family-trend", "--gallery", family, "--indices",
                f"{lo}-{hi}"], 0

    def _probe(self, kind):
        if kind == "index7_on_3_points":
            return ["norm", "--space", self.files["three"], "--element",
                    self.files["mol_7_0"]]
        if kind == "pair_a_b":
            return ["classify-pair", "--gallery", "line", "--params", "n=4",
                    "--pair", "a,b"]
        if kind == "pair_1_9":
            return ["classify-pair", "--gallery", "line", "--params", "n=4",
                    "--pair", "1,9"]
        if kind == "params_n_x":
            return ["classify-space", "--gallery", "equilateral", "--params",
                    "n=x"]
        return ["family-trend", "--gallery", "almost_aligned", "--indices",
                "1-30"]

    def round(self, r: int) -> list:
        # parameters from low-discrepancy draws; only the order is random
        d = Kronecker(self.seed, r, DRAW_STREAM)
        made = [self._validate(d, False), self._validate(d, True),
                self._classify_space(d), self._classify_space(d),
                self._perturb(d, False), self._perturb(d, True),
                self._perturb_single(d), self._perturb_single(d),
                self._certify(d), self._certify(d),
                self._represent(d), self._represent(d),
                self._distort(d), self._distort(d)]
        u = d.random()
        made += [self._trend(u, k) for k in range(len(FAMILIES))]
        rng = np.random.default_rng([self.seed, r])
        ops = [{"argv": argv, "expect": code, "probe": None}
               for argv, code in made]
        kinds = sorted(PROBES)
        kind = kinds[(r + self.seed) % len(kinds)]
        ops.append({"argv": self._probe(kind), "expect": PROBES[kind],
                    "probe": kind})
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup_op(self):
        return {"argv": ["classify-space", "--gallery", "equilateral",
                         "--params", "n=8"], "expect": 0, "probe": None}

    # -- call and checks ---------------------------------------------------

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:      # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out):
        code, stdout, stderr = out
        command = op["argv"][0]
        if op["probe"] is not None:
            if code not in op["expect"]:
                return f"exit code {code!r}, expected {op['expect']}", None
            if code != 0:
                if not any(line.startswith("error:")
                           for line in stderr.splitlines()):
                    return "no 'error:' line on stderr", None
                return None, None
        elif code != op["expect"]:
            return (f"{command}: exit code {code!r}, expected "
                    f"{op['expect']}: {stderr.strip()[:200]}"), None
        try:
            rep = json.loads(stdout)
        except ValueError:
            return f"{command}: stdout is not JSON", None
        if set(rep) != REPORT_KEYS or rep["command"] != command:
            return f"{command}: report keys {sorted(rep)}", None
        outputs = rep["outputs"]
        missing = OUTPUT_KEYS[command] - set(outputs)
        if missing:
            return f"{command}: outputs lack {sorted(missing)}", None
        problem = _semantic_check(op, outputs)
        if problem:
            return f"{command}: {problem}", None
        key = tuple(op["argv"])
        digest = hash(stdout)
        if self.seen.setdefault(key, digest) != digest:
            return f"{command}: output differs between identical calls", None
        return None, None

    def final_check(self, op, kept):
        """Never called: ``check`` keeps nothing for cli ops."""
        return None

    def labels(self, op):
        kind = op["probe"]
        return {"command": op["argv"][0] if kind is None
                else f"probe:{kind}"}

    def describe(self, op):
        # file arguments differ by temporary directory; describe by name
        argv = [os.path.basename(a) if os.path.isabs(a) else a
                for a in op["argv"]]
        return ("\0".join(argv) + "\n").encode()


def _semantic_check(op, out):
    argv = op["argv"]
    command = argv[0]
    if command == "validate":
        if out["ok"] != (op["expect"] == 0):
            return f"ok is {out['ok']!r}"
        if not out["ok"] and not out["bad_triples"]:
            return "an invalid metric reported no violated triple"
    elif command == "family-trend":
        lo, hi = (int(t) for t in argv[argv.index("--indices") + 1]
                  .split("-"))
        if [row["index"] for row in out["rows"]] != list(range(lo, hi + 1)):
            return "rows do not match the requested indices"
    elif command == "perturb":
        want = "certified" if op["expect"] == 0 else "precondition_failed"
        if out["status"] != want:
            return f"status {out['status']!r}, expected {want!r}"
    elif command == "perturb-single":
        if not out["distance"] <= out["bound"] + TOL:
            return f"distance {out['distance']!r} above {out['bound']!r}"
    elif command == "certify-almost-aligned":
        eps = float(argv[argv.index("--epsilon") + 1])
        if not out["distance"] <= 4.0 * eps + TOL:
            return f"distance {out['distance']!r} above 4 eps"
    elif command == "represent":
        if abs(out["weight_sum"] - out["norm"]) > TOL * (1 + out["norm"]):
            return "weight sum differs from the norm"
    elif command == "distort":
        if not out["distortion"] >= 1.0:
            return f"distortion {out['distortion']!r} below 1"
    return None


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def make(name: str, seed: int, workdir: str):
    if name == "probe_trees":
        return ProbeTrees(seed)
    if name == "cli_gallery":
        return CliGallery(seed, workdir)
    raise KeyError(name)


NAMES = ("probe_trees", "cli_gallery")
