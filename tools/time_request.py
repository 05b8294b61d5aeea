"""Time one freegeo CLI request in-process.

    python3 tools/time_request.py [--repeat 3] -- ARGV...

Runs ``freegeo.cli.main(ARGV)`` REPEAT times in one process, its standard
output and error discarded, and prints one line per run with its wall time
and exit code, then the process's peak resident set size (``ru_maxrss``,
which covers the import and every run) and the pivots that the simplex
kernel made in the first run: in cold solves, and in the dual and primal
phases of warm lanes (see ``cli_digest.kernel_pivots``).  For example, the
128-point ``modulus`` request:

    python3 tools/time_request.py -- modulus --gallery line \\
        --params n=128 --element mol.json --eta-grid 0.1 --samples 1 \\
        --seed 1

with ``mol.json`` holding ``{"molecules": [[0.5, 1, 0], [0.5, 3, 2]]}``.

The package is imported from the checkout's ``src``.  BLAS runs on one
thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeat", type=int, default=3,
                   help="runs of the request (default 3)")
    p.add_argument("request", nargs=argparse.REMAINDER,
                   help="the CLI argv, after --")
    args = p.parse_args(argv)
    request = args.request[1:] if args.request[:1] == ["--"] else \
        args.request
    if not request or args.repeat < 1:
        p.error("give a request after -- and a positive --repeat")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src")]
    from cli_digest import kernel_pivots
    from freegeo import cli, lp

    pivots = None
    for run in range(args.repeat):
        sink = io.StringIO()
        with kernel_pivots(lp) as counts, \
                contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(request)
            except SystemExit as exc:       # argparse usage errors
                code = exc.code
            wall = time.perf_counter() - start
        pivots = pivots or counts
        print(f"run {run}: {wall:.3f} s, exit {code}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS {peak:.1f} MB")
    print(f"pivots in run 0: {pivots['cold']} cold, {pivots['dual']} dual, "
          f"{pivots['primal']} primal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
