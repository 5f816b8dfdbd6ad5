"""A dense-grid reading of the three mapping conditions, the test oracle.

``grid_verdicts`` samples f at 10,001 evenly spaced points and applies the
three comparisons there with an absolute margin.  It can miss a violation
that lies between its points, so it only cross-checks ``check_conditions``:
where it finds a violation, the exact check must find one too.
"""

import numpy as np

from prefgame.mappings import eval_mapping_array

MARGIN = 1e-12


def grid_verdicts(spec) -> tuple[bool, bool, bool]:
    """``(condorcet_ok, mixed_ok, smith_ok)`` as sampled on the grid."""
    ts = np.linspace(0.0, 1.0, 10_001)
    f = eval_mapping_array(spec, ts)
    mid = f[5_000]  # ts[5_000] is exactly 1/2
    sym = f + eval_mapping_array(spec, 1.0 - ts) - 2.0 * mid
    strictly_below = bool(np.all(f[:5_000] < mid - MARGIN))
    condorcet = strictly_below and bool(np.all(f[5_000:] >= mid - MARGIN))
    mixed = condorcet and bool(np.all(sym >= -MARGIN))
    smith = strictly_below and bool(np.all(np.abs(sym) <= MARGIN))
    return condorcet, mixed, smith
