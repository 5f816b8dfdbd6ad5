"""A subset-scan reading of a tournament's top group, the test oracle.

``brute_minimal_dominant_set`` tries every subset in order of size, so it
needs no theory of the tournament; it cross-checks ``smith_decomposition``,
which reads the group off the score sequence.
"""

from itertools import combinations

import numpy as np


def brute_minimal_dominant_set(p: np.ndarray) -> tuple[int, ...]:
    """Smallest set whose members all beat every outsider, by subset scan."""
    n = p.shape[0]
    beats = p > 0.5
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            outside = [j for j in range(n) if j not in subset]
            if all(beats[i, j] for i in subset for j in outside):
                return subset
    raise AssertionError("tournament without a dominant set")
