"""Winner detection, ordered dominance decomposition, consistency verdicts."""

from itertools import combinations

import numpy as np
import pytest

import prefgame as pg

RPS = [[0.5, 0.9, 0.1], [0.1, 0.5, 0.9], [0.9, 0.1, 0.5]]

TRANSITIVE = [
    [0.5, 0.8, 0.8, 0.8],
    [0.2, 0.5, 0.8, 0.8],
    [0.2, 0.2, 0.5, 0.8],
    [0.2, 0.2, 0.2, 0.5],
]

# Three-cycle on {0, 1, 2}, both beating 3, 3 beating 4.
LAYERED = [
    [0.5, 0.9, 0.1, 0.7, 0.7],
    [0.1, 0.5, 0.9, 0.7, 0.7],
    [0.9, 0.1, 0.5, 0.7, 0.7],
    [0.3, 0.3, 0.3, 0.5, 0.6],
    [0.3, 0.3, 0.3, 0.4, 0.5],
]


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


def test_winner_transitive():
    assert pg.condorcet_winner(pg.validate_preferences(TRANSITIVE)) == 0


def test_winner_cycle():
    assert pg.condorcet_winner(pg.validate_preferences(RPS)) is None


def test_winner_single():
    assert pg.condorcet_winner(pg.validate_preferences([[0.5]])) == 0


def test_winner_with_ties_still_defined():
    # A winner needs strict majorities only in its own row.
    p = [
        [0.5, 0.7, 0.7],
        [0.3, 0.5, 0.5],
        [0.3, 0.5, 0.5],
    ]
    assert pg.condorcet_winner(pg.validate_preferences(p)) == 0


class TestDecomposition:
    def test_transitive_is_all_singletons(self):
        d = pg.smith_decomposition(pg.validate_preferences(TRANSITIVE))
        assert d.groups == ((0,), (1,), (2,), (3,))
        assert d.kinds == ("singleton",) * 4
        assert d.top_group() == (0,)

    def test_cycle_is_one_group(self):
        d = pg.smith_decomposition(pg.validate_preferences(RPS))
        assert d.groups == ((0, 1, 2),)
        assert d.kinds == ("cycle",)

    def test_layered(self):
        d = pg.smith_decomposition(pg.validate_preferences(LAYERED))
        assert d.groups == ((0, 1, 2), (3,), (4,))
        assert d.kinds == ("cycle", "singleton", "singleton")

    def test_groups_partition_and_dominate(self):
        rng = np.random.default_rng(321)
        for k in range(40):
            n = int(rng.integers(2, 8))
            pref = pg.random_tournament(pg.GeneratorConfig(n=n, seed=9000 + k))
            d = pg.smith_decomposition(pref)
            flat = [i for g in d.groups for i in g]
            assert sorted(flat) == list(range(n))
            for gi in range(len(d.groups)):
                for gj in range(gi + 1, len(d.groups)):
                    for i in d.groups[gi]:
                        for j in d.groups[gj]:
                            assert pref.p[i, j] > 0.5

    def test_no_two_member_groups(self):
        # A strict tournament cannot strongly connect exactly two nodes.
        rng = np.random.default_rng(55)
        for k in range(30):
            n = int(rng.integers(2, 9))
            pref = pg.random_tournament(pg.GeneratorConfig(n=n, seed=600 + k))
            for group in pg.smith_decomposition(pref).groups:
                assert len(group) != 2

    def test_top_group_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for k in range(60):
            n = int(rng.integers(2, 8))
            pref = pg.random_tournament(pg.GeneratorConfig(n=n, seed=1000 + k))
            expected = brute_minimal_dominant_set(pref.p)
            assert pg.smith_decomposition(pref).top_group() == expected

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        pref = pg.random_tournament(pg.GeneratorConfig(n=7, seed=42))
        base = pg.smith_decomposition(pref)
        for _ in range(5):
            perm = rng.permutation(7)
            shuffled = pg.validate_preferences(pref.p[np.ix_(perm, perm)])
            d = pg.smith_decomposition(shuffled)
            relabeled = tuple(tuple(sorted(int(perm[i]) for i in g)) for g in d.groups)
            assert relabeled == base.groups

    def test_ties_are_refused(self):
        tied = pg.validate_preferences([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(pg.TieError):
            pg.smith_decomposition(tied)

    def test_winner_iff_singleton_top(self):
        rng = np.random.default_rng(404)
        for k in range(40):
            n = int(rng.integers(2, 8))
            pref = pg.random_tournament(pg.GeneratorConfig(n=n, seed=7700 + k))
            winner = pg.condorcet_winner(pref)
            top = pg.smith_decomposition(pref).top_group()
            if winner is None:
                assert len(top) > 1
            else:
                assert top == (winner,)
            nash = pg.solve_maximin(pg.apply_mapping(pref, pg.identity()))
            assert pg.consistency_verdict(pref, nash).condorcet_winner == winner


class TestVerdict:
    def test_winner_game_is_consistent(self):
        pref = pg.validate_preferences(TRANSITIVE)
        nash = pg.solve_maximin(pg.apply_mapping(pref, pg.identity()))
        v = pg.consistency_verdict(pref, nash)
        assert v.condorcet_winner == 0
        assert v.condorcet_consistent is True
        assert v.smith_consistent is True
        assert v.is_mixed is False
        assert v.mass_outside_smith <= 1e-9

    def test_cycle_game_mixes_inside_top_group(self):
        pref = pg.validate_preferences(LAYERED)
        nash = pg.solve_maximin(pg.apply_mapping(pref, pg.log_odds()))
        v = pg.consistency_verdict(pref, nash)
        assert v.condorcet_winner is None
        assert v.condorcet_consistent is None
        assert v.smith_consistent is True
        assert v.is_mixed is True
        assert v.mass_outside_smith <= 1e-9

    def test_dict_shape(self):
        pref = pg.validate_preferences(RPS)
        nash = pg.solve_maximin(pg.apply_mapping(pref, pg.identity()))
        d = pg.consistency_verdict(pref, nash).to_dict()
        assert set(d) == {
            "condorcet_winner",
            "condorcet_consistent",
            "smith_consistent",
            "is_mixed",
            "mass_outside_smith",
        }
