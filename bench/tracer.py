"""Span tracer for the benchmark's traced mode.

The tracer wraps public functions of the ``freegeo`` modules from outside the
package.  Every module-level binding of a target function in every loaded
``freegeo`` module is replaced, so a function imported by name elsewhere
(``from .lp import solve`` in ``free_space``, ``from .free_space import
free_norm`` in ``ssd`` and ``cli``) is traced too.  ``unwrapped_bindings``
lists any binding that still holds an original target; the benchmark treats
a non-empty list as a failed self-check.

A span covers one call of a wrapped function.  Its self time is its
duration minus the time covered by wrapped calls it made.  Spans are summed
per function as they close; no per-span record is kept.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

#: module -> public functions wrapped in traced mode.  A span is named
#: ``<layer>.<function>``, where the layer is the module name without the
#: ``freegeo.`` prefix.
TARGETS = {
    "freegeo.lp": ("solve",),
    "freegeo.free_space": ("free_norm", "lipschitz_ball_rows"),
    "freegeo.ssd": ("exposedness_probe", "face_distance",
                    "perturbation_pipeline", "find_common_norming",
                    "almost_aligned_certificate"),
    "freegeo.lipschitz": ("lip_norm", "slope_matrix", "mcshane_extend",
                          "aux_f_xy", "peaking_check"),
    "freegeo.gromov": ("analyze_pair", "classify_space", "family_trend"),
    "freegeo.metric": ("validate",),
    "freegeo.cli": ("main",),
}


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0


@dataclass
class LpStats:
    """Counts read from the arguments and results of ``lp.solve``."""

    cells: int = 0          # sum of rows * cols of the constraint matrices
    rows: int = 0
    nonoptimal: int = 0
    durations: list = field(default_factory=list)   # seconds per solve


class Tracer:
    """Builds one wrapper per target; ``install`` and ``uninstall`` swap the
    bindings and may alternate, with statistics summed over every install."""

    def __init__(self):
        self.stats: dict = {}
        self.lp = LpStats()
        self._stack: list = []          # child time of each open span
        self._originals: dict = {}      # id(original) -> (original, wrapper)
        self._patched: list = []        # (module, attribute, original)
        for modname, funcs in TARGETS.items():
            mod = importlib.import_module(modname)
            layer = modname.split(".", 1)[1]
            for fname in funcs:
                fn = getattr(mod, fname)
                name = f"{layer}.{fname}"
                self.stats[name] = SpanStats()
                self._originals[id(fn)] = (fn, self._wrap(name, fn))

    def install(self) -> None:
        for mod, attr, original, wrapper in self._original_bindings():
            setattr(mod, attr, wrapper)
            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def unwrapped_bindings(self) -> list:
        """``module.attribute`` names still bound to an original target."""
        return sorted(f"{mod.__name__}.{attr}"
                      for mod, attr, _, _ in self._original_bindings())

    def _original_bindings(self):
        """(module, attribute, original, wrapper) for every attribute of a
        loaded freegeo module that holds an original target."""
        found = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "freegeo"
                                   or name.startswith("freegeo.")):
                continue
            for attr, value in vars(mod).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    found.append((mod, attr, value, entry[1]))
        return found

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def _wrap(self, name, fn):
        stats = self.stats
        stack = self._stack
        lp = self.lp if name == "lp.solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if lp is not None:
                problem = args[0] if args else kwargs["problem"]
                rows, cols = problem.A.shape
                lp.cells += rows * cols
                lp.rows += rows
            stack.append(0.0)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st = stats[name]
                st.calls += 1
                st.self_s += dt - child
                if lp is not None:
                    lp.durations.append(dt)
                if not ok:
                    st.errors += 1
            if lp is not None and result.status != "optimal":
                lp.nonoptimal += 1
            return result

        return traced

