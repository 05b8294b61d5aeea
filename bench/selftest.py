"""Self-tests of the benchmark harness (not of freegeo itself).

    python3 bench/selftest.py

Run from the root of a freegeo checkout.  Checks that

- the same seed gives byte-identical inputs (equal digests) and a different
  seed gives different inputs, for every workload;
- the first round of every workload covers every stratum of its input mix;
- the tracer wraps every binding of every target function, restores them
  all, and reports a binding it missed;
- the metric names that ``run.py`` prints are exactly those declared in
  ``BENCHMARK.json``, in both modes, and all match ``[A-Za-z0-9_.-]+``.

Prints one line per check and exits with status 1 if any check failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

FAILED = []


def report(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILED.append(name)


def check_inputs(workloads):
    expected_mix = {
        "probe_trees": {"n": 3, "kind": 2},
        "cli_gallery": {"command": 9},
    }
    for name in workloads.NAMES:
        digests = []
        for seed in (1, 1, 2):
            wl = workloads.make(name, seed, str(run.WORKDIR))
            try:
                wl.setup()
                digests.append(run._digest(wl))
                mix = {}
                for op in wl.round(0):
                    for dim, label in wl.labels(op).items():
                        mix.setdefault(dim, set()).add(label)
            finally:
                wl.close()
        report(f"{name}: same seed, same inputs", digests[0] == digests[1],
               digests[0][:16])
        report(f"{name}: other seed, other inputs", digests[0] != digests[2])
        sizes = {dim: len(labels) for dim, labels in mix.items()}
        report(f"{name}: round 0 covers the mix",
               sizes == expected_mix[name], str(sizes))


def check_tracer(tracing):
    import freegeo
    from freegeo import cli, free_space, lipschitz, lp, ssd

    originals = (lp.solve, free_space.free_norm, lipschitz.lip_norm,
                 cli.analyze_pair)
    tr = tracing.Tracer()
    tr.install()
    try:
        report("tracer wraps every binding", tr.unwrapped_bindings() == [],
               ", ".join(tr.unwrapped_bindings()))
        same = (free_space.solve is lp.solve
                and ssd.free_norm is free_space.free_norm
                and cli.free_norm is free_space.free_norm
                and ssd.lip_norm is lipschitz.lip_norm
                and freegeo.free_norm is free_space.free_norm)
        report("imported names share one wrapper", same)
        ssd.lip_norm = originals[2]          # simulate a missed binding
        report("tracer reports a missed binding",
               tr.unwrapped_bindings() == ["freegeo.ssd.lip_norm"],
               ", ".join(tr.unwrapped_bindings()))
        ssd.lip_norm = lipschitz.lip_norm
    finally:
        tr.uninstall()
    restored = (lp.solve is originals[0]
                and free_space.free_norm is originals[1]
                and ssd.lip_norm is originals[2]
                and cli.analyze_pair is originals[3])
    report("tracer restores every binding", restored)


def check_metric_names():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = [m["name"] for m in bench[key]]
        report(f"{key} names are well formed",
               all(run.NAME_RE.fullmatch(n) for n in declared))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "cli_gallery", "--seed", "1",
                             "--seconds", "0", "--trace", str(mode)])
        result = json.loads(out.getvalue().splitlines()[-1])
        printed = list(result["metrics"])
        report(f"--trace {mode} prints exactly the {key} metrics",
               code == 0 and sorted(printed) == sorted(declared),
               f"missing {sorted(set(declared) - set(printed))}, "
               f"extra {sorted(set(printed) - set(declared))}")
        report(f"--trace {mode} run is correct", result["correct"])


def main() -> int:
    run._import_package()
    import tracer as tracing
    import workloads

    check_inputs(workloads)
    check_tracer(tracing)
    check_metric_names()
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
