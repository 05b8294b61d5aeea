"""Shared numeric tolerances.

Both the metric checks and the LP residual checks run at the same scale so
that duality gaps are attributable to the solver, not to input rounding.
"""

import os

#: Relative tolerance for triangle-inequality and metric-segment checks.
TAU_METRIC = 1e-9

#: Default absolute tolerance on LP residuals.
TAU_LP_DEFAULT = 1e-9


def lp_tol() -> float:
    """Absolute LP tolerance; FREEGEO_TOL overrides it (test-only knob)."""
    raw = os.environ.get("FREEGEO_TOL")
    if raw is None:
        return TAU_LP_DEFAULT
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"FREEGEO_TOL={raw!r} is not a number") from None
