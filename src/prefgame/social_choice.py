"""Tournament structure of a preference matrix.

The majority digraph has an edge i -> j when response i beats response j
(preference above 1/2).  With no ties that digraph is a tournament, and
its strongly connected components admit a total order: the first group is
the smallest set whose members beat everything outside it, the next group
beats everything after it, and so on.  ``consistency_verdict`` relates a
solved game to that structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_SUPPORT_THRESHOLD,
    PreferenceMatrix,
    PrefGameError,
    TieError,
)
from .solver import NashReport

DEFAULT_MASS_TOL = 1e-6

SINGLETON = "singleton"
CYCLE = "cycle"


@dataclass(frozen=True)
class Decomposition:
    """Ordered partition of responses into dominance groups.

    Earlier groups beat every member of later groups pairwise.  A group is
    either a single response or a set inducing a strongly connected
    sub-tournament (tagged ``cycle``).  The first group is the smallest
    dominating set.
    """

    groups: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]

    def top_group(self) -> tuple[int, ...]:
        return self.groups[0]

    def to_dict(self) -> dict:
        return {
            "groups": [list(g) for g in self.groups],
            "kinds": list(self.kinds),
        }


@dataclass(frozen=True)
class ConsistencyVerdict:
    """How a game solution relates to the tournament structure.

    ``condorcet_consistent`` is None when no single response beats all
    others; otherwise it records whether the solution is exactly that
    response.  ``smith_consistent`` means the solution's mass outside the
    top group is below the mass tolerance.
    """

    condorcet_winner: int | None
    condorcet_consistent: bool | None
    smith_consistent: bool
    is_mixed: bool
    mass_outside_smith: float

    def to_dict(self) -> dict:
        return {
            "condorcet_winner": self.condorcet_winner,
            "condorcet_consistent": self.condorcet_consistent,
            "smith_consistent": self.smith_consistent,
            "is_mixed": self.is_mixed,
            "mass_outside_smith": self.mass_outside_smith,
        }


def condorcet_winner(pref: PreferenceMatrix) -> int | None:
    """Index of the response beating every other one, if it exists."""
    if pref.n == 1:
        return 0
    beats = pref.p > 0.5
    for i in range(pref.n):
        row = np.delete(beats[i], i)
        if np.all(row):
            return i
    return None


def _strongly_connected(successors: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm with an explicit stack.

    Components come out in reverse topological order of the condensation.
    """
    n = len(successors)
    unvisited = -1
    index = [unvisited] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != unvisited:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        frames: list[tuple[int, object]] = [(root, iter(successors[root]))]
        while frames:
            v, edges = frames[-1]
            advanced = False
            for w in edges:  # type: ignore[union-attr]
                if index[w] == unvisited:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(successors[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def smith_decomposition(pref: PreferenceMatrix) -> Decomposition:
    """Ordered dominance decomposition of the majority tournament.

    Refuses preference matrices with ties: without strict pairwise
    preferences the ordered partition is not guaranteed to exist or be
    unique, and inventing a tie-break would fabricate structure.
    """
    if not pref.no_tie:
        raise TieError(
            "preference matrix has pairwise ties; the ordered decomposition "
            "requires strict preferences everywhere"
        )
    beats = pref.p > 0.5
    successors = [np.flatnonzero(beats[i]).tolist() for i in range(pref.n)]
    components = _strongly_connected(successors)
    ordered = [sorted(c) for c in reversed(components)]
    # The condensation of a tournament must be a total order; verify rather
    # than trust the traversal.
    for gi in range(len(ordered)):
        for gj in range(gi + 1, len(ordered)):
            for x in ordered[gi]:
                for y in ordered[gj]:
                    if not beats[x, y]:
                        raise PrefGameError(
                            f"dominance order verification failed between groups "
                            f"{ordered[gi]} and {ordered[gj]}"
                        )
    kinds = tuple(SINGLETON if len(g) == 1 else CYCLE for g in ordered)
    return Decomposition(groups=tuple(tuple(g) for g in ordered), kinds=kinds)


def consistency_verdict(
    pref: PreferenceMatrix,
    nash: NashReport,
    support_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
    mass_tolerance: float = DEFAULT_MASS_TOL,
) -> ConsistencyVerdict:
    """Relate a solved game's row strategy to the tournament structure.

    The Condorcet winner is read off the decomposition: in a tournament a
    response beats every other one exactly when it forms the top group alone.
    """
    top = smith_decomposition(pref).top_group()
    winner = top[0] if len(top) == 1 else None
    outside = [i for i in range(pref.n) if i not in top]
    mass_outside = float(nash.row_strategy.w[outside].sum()) if outside else 0.0
    support = nash.row_strategy.support(support_threshold)
    is_mixed = len(support) > 1
    condorcet_consistent = None if winner is None else support == [winner]
    return ConsistencyVerdict(
        condorcet_winner=winner,
        condorcet_consistent=condorcet_consistent,
        smith_consistent=mass_outside <= mass_tolerance,
        is_mixed=is_mixed,
        mass_outside_smith=mass_outside,
    )
