"""Digests of freegeo's observable output, to show that a change leaves it
byte-identical.

    python3 tools/cli_digest.py [--seed 11] [--rounds 40] [--dump FILE]

Run it in two checkouts and compare the three lines it prints:

- ``cli_gallery``: the op count and one SHA-1 over the argv (file paths
  cut to basenames), stdout, stderr and exit code of every op of the
  benchmark's ``cli_gallery`` workload, rounds 0 to ``rounds - 1`` of the
  seed, defect probes included.  The workload's input files live in a
  temporary directory that is removed afterwards.
- ``probe_trees``: one SHA-1 over the entries of every exposedness probe
  of the ``probe_trees`` workload, rounds 0-3 for seeds 1-3, with every
  float as ``float.hex``; beside it, how many face-distance LPs and slab
  lanes those probes solved, counted by wrapping ``lp.solve`` and
  ``lp.solve_many``, and how many of their solves ran cold, counted by
  wrapping ``lp._solve_cold``, so that a change in solve counts, or one
  that sends warm solves cold, shows next to the hash.
- ``library``: one SHA-1 over the outputs of ``common_norming_witness``,
  ``find_common_norming``, ``face_coordinate_ranges``, ``face_distance``,
  ``lip_norm``, ``peaking_check`` and the ``perturb`` command's steps
  (ending in ``perturbation_pipeline``) on seeded random 2-D Euclidean
  spaces at distance scales 1e-6, 1 and 1e6, inputs that the ops and
  probes above do not reach; every float as ``float.hex`` (the pipeline's
  result as its sorted JSON, whose floats round-trip) and every error as
  its type and text.

With ``--dump FILE`` it also writes the text behind every hashed field to
one JSON file, per op, probe and library case, so that two checkouts whose
digests differ can be compared item by item.

The package is imported from the checkout's ``src`` and the workloads from
its ``bench/workloads.py``, which this script only reads.  BLAS runs on one
thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROBE_SEEDS = (1, 2, 3)
PROBE_ROUNDS = 4
LIBRARY_SPACES = 6
LIBRARY_SCALES = (1e-6, 1.0, 1e6)


def _field(h, data: bytes) -> None:
    """Hash one field, length-prefixed so that fields cannot run together."""
    h.update(b"%d:" % len(data))
    h.update(data)


def cli_digest(workloads, seed: int, rounds: int, dump: list):
    """(op count, SHA-1) over every cli_gallery op of rounds 0..rounds-1;
    appends each op's fields to dump."""
    h = hashlib.sha1()
    count = 0
    workdir = tempfile.mkdtemp(prefix="cli-digest-")
    wl = workloads.CliGallery(seed, workdir)
    try:
        wl.setup()
        for r in range(rounds):
            for op in wl.round(r):
                code, out, err = wl.call(op)
                # describe() is the argv with file paths cut to basenames
                fields = [wl.describe(op).decode(),
                          out.replace(wl.dir, "<dir>"),
                          err.replace(wl.dir, "<dir>"), repr(code)]
                for text in fields:
                    _field(h, text.encode())
                dump.append(dict(zip(("op", "stdout", "stderr", "exit"),
                                     fields), round=r))
                count += 1
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return count, h.hexdigest()


def probe_digest(workloads, dump: list):
    """(probe count, SHA-1, solves) over the probe entries of the fixed
    rounds, with solves the numbers of face-distance LPs and slab lanes
    the probes solved and of their solves that ran cold; appends each
    probe's entries to dump."""
    from freegeo import lp

    h = hashlib.sha1()
    count = 0
    solves = {"face": 0, "lanes": 0, "cold": 0}
    points = None       # of the probe running; None outside probes
    solve, solve_many, solve_cold = lp.solve, lp.solve_many, lp._solve_cold

    def counting_solve(problem, tol=None, start=None):
        # the face-distance LP is the probe's one LP with a variable per
        # point (g(1..n-1) and t); the slab LP has n - 1, and a slab lane
        # that leaves its batch is solved by lp.solve
        solves["face"] += problem.A.shape[1] == points
        return solve(problem, tol, start)

    def counting_many(problem, objectives, start=None):
        if points is not None:
            solves["lanes"] += len(objectives)
        return solve_many(problem, objectives, start)

    def counting_cold(problem, canon, tol):
        solves["cold"] += points is not None
        return solve_cold(problem, canon, tol)

    lp.solve, lp.solve_many = counting_solve, counting_many
    lp._solve_cold = counting_cold
    try:
        for seed in PROBE_SEEDS:
            wl = workloads.ProbeTrees(seed)
            wl.setup()
            for r in range(PROBE_ROUNDS):
                for op in wl.round(r):
                    points = wl.cases[op["n"], op["kind"]][0].space.n
                    curve = wl.call(op)
                    points = None
                    entries = [f"{eta.hex()} {worst.hex()} {k}"
                               for eta, worst, k in curve.entries]
                    for text in entries:
                        _field(h, text.encode())
                    dump.append({"seed": seed, "round": r,
                                 "op": wl.describe(op).decode(),
                                 "entries": entries})
                    count += 1
    finally:
        lp.solve, lp.solve_many = solve, solve_many
        lp._solve_cold = solve_cold
    return count, h.hexdigest(), solves


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def _perturb(fg, space, masses, gamma, eps=1e-4):
    """The ``perturb`` command's steps: the optimal representation of the
    masses in the fattened metric, normalized, a common norming f in the
    original one, g norming the combination, and the pipeline."""
    fattened = fg.gamma_fatten(space, gamma)
    comb = fg.optimal_representation(fg.FreeElement(fattened, masses))
    total = comb.weight_sum()
    comb = fg.MoleculeCombination(
        fattened, tuple((lam / total, x, y) for lam, x, y in comb.terms))
    f = fg.find_common_norming(space,
                               fg.MoleculeCombination(space, comb.terms))
    g = fg.norming_functional(comb.element())
    return fg.perturbation_pipeline(space, gamma, comb, f, g, eps)


def _library_case(fg, space, rng):
    """(name, text) per output of the library calls on one space; a call
    that raises gives its error's type and text."""
    n, s = space.n, space.dist.max()
    values = rng.normal(size=n) * s
    values[0] = 0.0
    f = fg.LipFunction(space, values)
    mu = fg.FreeElement(space, rng.normal(size=n))
    x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
    gamma = 0.5 * s
    # masses whose base point is a sink, as the witness needs
    sink_base = mu.masses if mu.masses[0] <= 0.0 else -mu.masses
    calls = (
        ("lip_norm", lambda: fg.lip_norm(f)),
        ("peaking_check", lambda: fg.peaking_check(
            fg.aux_f_xy(space, x, y), x, y)),
        ("face_distance", lambda: fg.face_distance(
            fg.from_values(space, values / fg.lip_norm(f)), mu)),
        ("face_coordinate_ranges",
         lambda: fg.face_coordinate_ranges(fg.dual_face(mu))),
        ("find_common_norming", lambda: fg.find_common_norming(
            space, fg.optimal_representation(mu)).values),
        ("common_norming_witness", lambda: fg.common_norming_witness(
            space, gamma, fg.optimal_representation(fg.molecule(
                fg.gamma_fatten(space, 2.0 * gamma), 1, 0))).values),
        ("common_norming_witness_masses",
         lambda: fg.common_norming_witness(
             space, gamma, fg.optimal_representation(fg.FreeElement(
                 fg.gamma_fatten(space, 2.0 * gamma), sink_base))).values),
        ("perturb", lambda: _perturb(fg, space, mu.masses, gamma)),
    )
    for name, call in calls:
        try:
            out = call()
            if isinstance(out, fg.PerturbationResult):
                text = json.dumps(out.to_json(), sort_keys=True)
            else:
                text = "none" if out is None else _hex(out)
        except (ValueError, fg.lp.LpError) as exc:
            text = f"{type(exc).__name__}: {exc}"
        yield name, text


def library_digest(dump: list):
    """(case count, SHA-1) over the library outputs of every space and
    scale; appends each output to dump.  Case k draws from a generator
    seeded with k, the same draws at every scale: only the unit of
    distance changes."""
    import freegeo as fg

    h = hashlib.sha1()
    count = 0
    for k in range(LIBRARY_SPACES):
        for scale in LIBRARY_SCALES:
            rng = np.random.default_rng(k)
            n = int(rng.integers(4, 10))
            pts = rng.normal(size=(n, 2))
            dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
            space = fg.PointedMetricSpace(scale * dist)
            for name, text in _library_case(fg, space, rng):
                _field(h, f"{k} {scale!r} {name} {text}".encode())
                dump.append({"case": k, "scale": scale, "name": name,
                             "text": text})
            count += 1
    return count, h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=11,
                   help="cli_gallery seed (default 11)")
    p.add_argument("--rounds", type=int, default=40,
                   help="cli_gallery rounds 0..ROUNDS-1 (default 40)")
    p.add_argument("--dump", metavar="FILE",
                   help="also write the text behind every hashed field "
                        "to FILE as JSON")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    dump = {"cli_gallery": [], "probe_trees": [], "library": []}
    count, digest = cli_digest(workloads, args.seed, args.rounds,
                               dump["cli_gallery"])
    print(f"cli_gallery seed {args.seed} rounds 0-{args.rounds - 1}: "
          f"{count} ops sha1 {digest}")
    count, digest, solves = probe_digest(workloads, dump["probe_trees"])
    print(f"probe_trees seeds 1-3 rounds 0-{PROBE_ROUNDS - 1}: "
          f"{count} probes sha1 {digest}; solved {solves['face']} "
          f"face-distance LPs, {solves['lanes']} slab lanes, "
          f"{solves['cold']} cold solves")
    count, digest = library_digest(dump["library"])
    print(f"library scales {', '.join(map(repr, LIBRARY_SCALES))}: "
          f"{count} cases sha1 {digest}")
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(dump, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
