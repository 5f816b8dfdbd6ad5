"""Tournament structure of a preference matrix.

The majority relation has i beating j when response i is preferred to
response j with probability above 1/2.  With no ties it is a tournament,
and its strongly connected groups admit a total order: the first group is
the smallest set whose members beat everything outside it, the next group
beats everything after it, and so on.  All of that structure is read off
the score sequence (wins per response) through Landau's score theorem
(H. G. Landau, "On dominance relations and the structure of animal
societies III", Bull. Math. Biophys. 15, 1953), without building the
digraph.  ``consistency_verdict`` relates a solved game to that structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PreferenceMatrix, Record, TieError
from .solver import NashReport

MASS_TOL = 1e-6

SINGLETON = "singleton"
CYCLE = "cycle"


@dataclass(frozen=True)
class Decomposition(Record):
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


@dataclass(frozen=True)
class ConsistencyVerdict(Record):
    """How a game solution relates to the tournament structure.

    ``condorcet_consistent`` is None when no single response beats all
    others; otherwise it records whether the solution is exactly that
    response.  ``smith_consistent`` means the solution's mass outside the
    top group is at most ``MASS_TOL``.
    """

    condorcet_winner: int | None
    condorcet_consistent: bool | None
    smith_consistent: bool
    is_mixed: bool
    mass_outside_smith: float


def _scores(pref: PreferenceMatrix) -> np.ndarray:
    """Number of other responses each response beats."""
    beats = pref.p > 0.5
    np.fill_diagonal(beats, False)
    return beats.sum(axis=1)


def condorcet_winner(pref: PreferenceMatrix) -> int | None:
    """Index of the response beating every other one, if it exists."""
    winners = np.flatnonzero(_scores(pref) == pref.n - 1)
    return int(winners[0]) if winners.size else None


def smith_decomposition(pref: PreferenceMatrix) -> Decomposition:
    """Ordered dominance decomposition of the majority tournament.

    By Landau's score theorem, the k highest-scoring responses beat every
    other response exactly when their scores sum to k(k-1)/2 + k(n-k): the
    games among themselves plus a win over each outsider.  Every dominating
    set is such a prefix of the responses sorted by score, so the cuts of
    that sorted order are the group boundaries.

    Refuses preference matrices whose majority relation is not a
    tournament (``no_tie`` false): without strict pairwise preferences the
    ordered partition is not guaranteed to exist or be unique, and
    inventing a tie-break would fabricate structure.
    """
    if not pref.no_tie:
        raise TieError(
            "preference matrix has pairwise ties; the ordered decomposition "
            "requires strict preferences everywhere"
        )
    n = pref.n
    score = _scores(pref)
    order = np.argsort(-score, kind="stable")
    k = np.arange(1, n + 1)
    cuts = np.flatnonzero(np.cumsum(score[order]) == k * (k - 1) // 2 + k * (n - k)) + 1
    # The whole order (k = n) always meets the bound, so the last cut is the end.
    groups = tuple(tuple(sorted(g.tolist())) for g in np.split(order, cuts[:-1]))
    kinds = tuple(SINGLETON if len(g) == 1 else CYCLE for g in groups)
    return Decomposition(groups=groups, kinds=kinds)


def consistency_verdict(pref: PreferenceMatrix, nash: NashReport) -> ConsistencyVerdict:
    """Relate a solved game's row strategy to the tournament structure.

    The Condorcet winner is read off the decomposition: in a tournament a
    response beats every other one exactly when it forms the top group alone.
    """
    top = smith_decomposition(pref).top_group()
    winner = top[0] if len(top) == 1 else None
    outside = [i for i in range(pref.n) if i not in top]
    mass_outside = float(nash.row_strategy.w[outside].sum()) if outside else 0.0
    support = nash.row_strategy.support()
    is_mixed = len(support) > 1
    condorcet_consistent = None if winner is None else support == [winner]
    return ConsistencyVerdict(
        condorcet_winner=winner,
        condorcet_consistent=condorcet_consistent,
        smith_consistent=mass_outside <= MASS_TOL,
        is_mixed=is_mixed,
        mass_outside_smith=mass_outside,
    )
