"""Winner detection, ordered dominance decomposition, consistency verdicts."""

import numpy as np
import pytest

import prefgame as pg
from smith_oracle import brute_minimal_dominant_set

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

# Response i beats i + 1 and i + 2 (mod 5): one top group of all five.
CYCLE5 = [[0.5 if i == j else 0.8 if (j - i) % 5 in (1, 2) else 0.2 for j in range(5)] for i in range(5)]


def reference_decomposition(p: np.ndarray) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """Strongly connected groups and kinds from the reachability closure, top group first."""
    n = p.shape[0]
    reach = (p > 0.5) | np.eye(n, dtype=bool)
    while True:
        closed = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(closed, reach):
            break
        reach = closed
    groups = {tuple(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in range(n)}
    # A group that reaches another one reaches strictly more responses.
    ordered = tuple(sorted(groups, key=lambda g: -int(reach[g[0]].sum())))
    return ordered, tuple("singleton" if len(g) == 1 else "cycle" for g in ordered)


def planted_tournament(rng: np.random.Generator, sizes: list[int]) -> pg.PreferenceMatrix:
    """Blocks of the given sizes, each beating every later block, random inside, labels shuffled."""
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    strength = rng.uniform(0.55, 0.95, (n, n))
    row_wins = np.where(block[:, None] == block, rng.random((n, n)) < 0.5, block[:, None] < block)
    upper = np.triu(np.where(row_wins, strength, 1.0 - strength), 1)
    p = upper + np.tril(1.0 - upper.T, -1) + 0.5 * np.eye(n)
    perm = rng.permutation(n)
    return pg.validate_preferences(p[np.ix_(perm, perm)])


def random_sizes(rng: np.random.Generator, n: int) -> list[int]:
    """A random composition of n into block sizes."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    return np.diff(np.concatenate([[0], cuts, [n]])).tolist()


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


@pytest.mark.parametrize("base", [RPS, TRANSITIVE], ids=["cycle", "transitive"])
def test_diagonal_noise_is_ignored(base):
    # validate_preferences accepts a diagonal within its tolerance of 1/2; a
    # response never beats itself.
    noisy = np.array(base)
    noisy[0, 0] = 0.5 + 1e-10
    exact, noisy = pg.validate_preferences(base), pg.validate_preferences(noisy)
    assert pg.smith_decomposition(noisy) == pg.smith_decomposition(exact)
    assert pg.condorcet_winner(noisy) == pg.condorcet_winner(exact)


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

    def test_matches_reachability_reference(self):
        rng = np.random.default_rng(2024)
        group_counts = []
        for _ in range(300):
            pref = planted_tournament(rng, random_sizes(rng, int(rng.integers(1, 61))))
            d = pg.smith_decomposition(pref)
            assert (d.groups, d.kinds) == reference_decomposition(pref.p)
            group_counts.append(len(d.groups))
        for k in range(100):
            n = int(rng.integers(1, 13))
            pref = pg.random_tournament(pg.GeneratorConfig(n=n, seed=3100 + k))
            d = pg.smith_decomposition(pref)
            assert (d.groups, d.kinds) == reference_decomposition(pref.p)
        assert max(group_counts) >= 30

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        random_7 = pg.random_tournament(pg.GeneratorConfig(n=7, seed=42))
        planted_50 = planted_tournament(np.random.default_rng(50), [3, 1, 5, 1, 1, 4, 7, 1, 3, 6, 1, 1, 8, 3, 5])
        for pref in (random_7, planted_50):
            base = pg.smith_decomposition(pref)
            for _ in range(5):
                perm = rng.permutation(pref.n)
                shuffled = pg.validate_preferences(pref.p[np.ix_(perm, perm)])
                d = pg.smith_decomposition(shuffled)
                relabeled = tuple(tuple(sorted(int(perm[i]) for i in g)) for g in d.groups)
                assert relabeled == base.groups

    def test_ties_are_refused(self):
        tied = pg.validate_preferences([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(pg.TieError):
            pg.smith_decomposition(tied)

    def test_pair_both_above_half_is_a_tie(self):
        # p[0, 1] and p[1, 0] both lie 1e-10 above 1/2, within the complement
        # and tie tolerances: each response beats the other, so the majority
        # relation is no tournament.
        p = [[0.5, 0.5 + 1e-10, 0.9], [0.5 + 1e-10, 0.5, 0.1], [0.1, 0.9, 0.5]]
        pref = pg.validate_preferences(p)
        assert pref.no_tie is False
        with pytest.raises(pg.TieError):
            pg.smith_decomposition(pref)

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

    @pytest.mark.parametrize("pref_rows, game_rows", [(RPS, CYCLE5), (CYCLE5, RPS)], ids=["3-of-5", "5-of-3"])
    def test_report_of_the_wrong_size_raises(self, pref_rows, game_rows):
        # Each top group is every response, so an unchecked call returns a verdict.
        pref = pg.validate_preferences(pref_rows)
        nash = pg.solve_maximin(pg.apply_mapping(pg.validate_preferences(game_rows), pg.identity()))
        n, m = len(pref_rows), len(game_rows)
        with pytest.raises(pg.ValidationError, match=f"dimension mismatch: preferences n={n}, report n={m}"):
            pg.consistency_verdict(pref, nash)

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
