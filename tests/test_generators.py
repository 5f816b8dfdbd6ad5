"""Seeded tournament generation, the pinned example games, blend weights."""

import numpy as np
import pytest

import prefgame as pg
from prefgame import generators
from prefgame.generators import REJECTION_CAP

# Piecewise nodes of t + 4 (t - 1/2)^2 at every argument the blend and the
# six-player game ever evaluate.
QUAD = [(0.0, 1.0), (0.1, 0.74), (0.4, 0.44), (0.5, 0.5), (0.6, 0.64), (0.9, 1.54), (1.0, 2.0)]


class TestConfig:
    def test_rejects_bad_n(self):
        with pytest.raises(pg.ValidationError):
            pg.GeneratorConfig(n=0, seed=1)

    @pytest.mark.parametrize("low,high", [(0.5, 0.9), (0.6, 1.0), (0.8, 0.7), (0.4, 0.45)])
    def test_rejects_bad_strengths(self, low, high):
        with pytest.raises(pg.ValidationError):
            pg.GeneratorConfig(n=3, seed=1, strength_low=low, strength_high=high)

    @pytest.mark.parametrize("field", ["strength_low", "strength_high"])
    def test_strengths_must_be_numbers(self, field):
        with pytest.raises(pg.ValidationError, match=f"^{field} must be a number, got '0.7'$"):
            pg.GeneratorConfig(n=3, seed=1, **{field: "0.7"})


def loop_tournament(cfg):
    """The pair-by-pair draw loop that ``random_tournament`` vectorizes."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    n = cfg.n
    for _ in range(REJECTION_CAP):
        p = np.full((n, n), 0.5)
        for i in range(n):
            for j in range(i + 1, n):
                strength = rng.uniform(cfg.strength_low, cfg.strength_high)
                if rng.random() < 0.5:
                    p[i, j] = strength
                    p[j, i] = 1.0 - strength
                else:
                    p[j, i] = strength
                    p[i, j] = 1.0 - strength
        pref = pg.validate_preferences(p)
        if not cfg.force_no_winner or pg.condorcet_winner(pref) is None:
            return pref
    raise pg.GenerationError("no winner-free tournament")


def build_and_reject_tournament(cfg):
    """The vectorized draw that builds, validates and checks every rejected draw."""
    n = cfg.n
    if cfg.force_no_winner and n < 3:
        raise pg.GenerationError(f"no tournament of size {n} is winner-free; force_no_winner needs n >= 3")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    rows, cols = np.triu_indices(n, 1)
    low, high = cfg.strength_low, cfg.strength_high
    for _ in range(generators.REJECTION_CAP):
        draws = rng.random(2 * rows.size)
        strength = low + (high - low) * draws[0::2]
        row_wins = draws[1::2] < 0.5
        p = np.full((n, n), 0.5)
        p[rows, cols] = np.where(row_wins, strength, 1.0 - strength)
        p[cols, rows] = np.where(row_wins, 1.0 - strength, strength)
        pref = pg.validate_preferences(p)
        if not cfg.force_no_winner or pg.condorcet_winner(pref) is None:
            return pref
    raise pg.GenerationError(f"no winner-free tournament of size {n} in {generators.REJECTION_CAP} attempts")


def outcome(draw, cfg):
    """The matrix's bytes and no_tie flag, or the error's type and message."""
    try:
        pref = draw(cfg)
    except pg.GenerationError as exc:
        return type(exc), str(exc)
    return pref.p.tobytes(), pref.no_tie


class TestRandomTournament:
    @pytest.mark.parametrize("force", [False, True])
    def test_bit_identical_to_building_every_rejected_draw(self, force):
        for n in range(1, 11):
            for seed in range(50):
                cfg = pg.GeneratorConfig(n=n, seed=seed, force_no_winner=force)
                assert outcome(pg.random_tournament, cfg) == outcome(build_and_reject_tournament, cfg), (n, seed)

    def test_attempt_cap_exhaustion_matches_building_every_draw(self, monkeypatch):
        # Three of every four 3-tournaments have a winner, so two attempts
        # often run out.
        monkeypatch.setattr(generators, "REJECTION_CAP", 2)
        results = []
        for seed in range(50):
            cfg = pg.GeneratorConfig(n=3, seed=seed, force_no_winner=True)
            results.append(outcome(pg.random_tournament, cfg))
            assert results[-1] == outcome(build_and_reject_tournament, cfg), seed
        exhausted = (pg.GenerationError, "no winner-free tournament of size 3 in 2 attempts")
        assert 0 < results.count(exhausted) < len(results)

    def test_bit_identical_to_the_draw_loop(self):
        for seed in range(25):
            for n in range(1, 10):
                # Below three responses a winner-free draw cannot exist.
                for force in (False, True) if n >= 3 else (False,):
                    cfg = pg.GeneratorConfig(
                        n=n,
                        seed=seed * 7919 + n,
                        strength_low=0.55 + 0.01 * (seed % 5),
                        force_no_winner=force,
                    )
                    assert pg.random_tournament(cfg).p.tobytes() == loop_tournament(cfg).p.tobytes()

    def test_deterministic(self):
        a = pg.random_tournament(pg.GeneratorConfig(n=5, seed=123))
        b = pg.random_tournament(pg.GeneratorConfig(n=5, seed=123))
        np.testing.assert_array_equal(a.p, b.p)

    def test_seed_changes_draw(self):
        a = pg.random_tournament(pg.GeneratorConfig(n=5, seed=123))
        b = pg.random_tournament(pg.GeneratorConfig(n=5, seed=124))
        assert np.abs(a.p - b.p).max() > 0.0

    def test_entry_ranges(self):
        pref = pg.random_tournament(pg.GeneratorConfig(n=6, seed=5))
        assert pref.no_tie
        np.testing.assert_array_equal(np.diag(pref.p), 0.5)
        off = pref.p[~np.eye(6, dtype=bool)]
        winning = off[off > 0.5]
        assert winning.min() >= 0.55
        assert winning.max() <= 0.95
        # The complement must hold exactly, not merely within tolerance.
        np.testing.assert_array_equal(pref.p + pref.p.T, np.ones((6, 6)))

    def test_single_alternative(self):
        pref = pg.random_tournament(pg.GeneratorConfig(n=1, seed=0))
        assert pref.p.shape == (1, 1)
        assert pg.condorcet_winner(pref) == 0

    def test_force_no_winner(self):
        for seed in range(15):
            cfg = pg.GeneratorConfig(n=4, seed=seed, force_no_winner=True)
            assert pg.condorcet_winner(pg.random_tournament(cfg)) is None

    def test_force_no_winner_needs_three(self):
        with pytest.raises(pg.GenerationError):
            pg.random_tournament(pg.GeneratorConfig(n=2, seed=0, force_no_winner=True))

    @pytest.mark.parametrize("n", [1, 2])
    def test_force_no_winner_below_three_draws_nothing(self, monkeypatch, n):
        calls = []

        def counting(p):
            calls.append(p)
            return pg.validate_preferences(p)

        monkeypatch.setattr(generators, "validate_preferences", counting)
        with pytest.raises(pg.GenerationError, match="force_no_winner needs n >= 3"):
            pg.random_tournament(pg.GeneratorConfig(n=n, seed=0, force_no_winner=True))
        assert calls == []


class TestTableGames:
    def test_two_player(self):
        pay = pg.game_two(pg.identity(), 0.7)
        np.testing.assert_allclose(pay.a, [[0.5, 0.7], [0.3, 0.5]], atol=1e-12)

    def test_two_player_solution(self):
        nash = pg.solve_maximin(pg.game_two(pg.identity(), 0.7))
        np.testing.assert_allclose(nash.row_strategy.w, [1.0, 0.0], atol=1e-9)
        assert nash.value == pytest.approx(0.5, abs=1e-9)

    def test_four_player_layout(self):
        pay = pg.game_four(pg.identity(), 0.8, 0.7)
        expected = [
            [0.5, 0.8, 0.2, 0.7],
            [0.2, 0.5, 0.8, 0.7],
            [0.8, 0.2, 0.5, 0.7],
            [0.3, 0.3, 0.3, 0.5],
        ]
        np.testing.assert_allclose(pay.a, expected, atol=1e-12)

    def test_six_player_layout(self):
        pay = pg.game_six(pg.identity(), 0.8, 0.7)
        cycle = np.array([[0.5, 0.8, 0.2], [0.2, 0.5, 0.8], [0.8, 0.2, 0.5]])
        np.testing.assert_allclose(pay.a[:3, :3], cycle, atol=1e-12)
        np.testing.assert_allclose(pay.a[3:, 3:], cycle, atol=1e-12)
        np.testing.assert_allclose(pay.a[:3, 3:], 0.7, atol=1e-12)
        np.testing.assert_allclose(pay.a[3:, :3], 0.3, atol=1e-12)

    def test_degenerate_four_player(self):
        mapping = pg.piecewise_linear([(0.0, -4.5), (0.5, 0.5), (1.0, 1.0)])
        pay = pg.game_four(mapping, 0.9, 0.55)
        expected = [
            [0.5, 0.9, -3.5, 0.55],
            [-3.5, 0.5, 0.9, 0.55],
            [0.9, -3.5, 0.5, 0.55],
            [0.0, 0.0, 0.0, 0.5],
        ]
        np.testing.assert_allclose(pay.a, expected, atol=1e-12)


# Mappings of every kind, including a table with more breakpoints than a
# proof game has entries and a symmetric extension of a bumpy base.
PINNED_MAPPINGS = [
    pg.identity(),
    pg.log_odds(),
    pg.affine(-3.0, 2.5),
    pg.power(0.5),
    pg.power(2.0),
    pg.power(-1.0, clamp_epsilon=1e-3),
    pg.piecewise_constant(-1.0, 0.0, 1.0),
    pg.piecewise_linear(QUAD),
    pg.piecewise_linear([(i / 40, np.sin(7.0 * i / 40)) for i in range(41)]),
    pg.symmetric_extension(pg.piecewise_linear([(0.0, -1.0), (0.2, -0.3), (0.3, -0.6), (0.5, 0.0)])),
]


def _entrywise(mapping, pref):
    """The payoff built one scalar ``eval_mapping`` call per entry, diagonal at exactly 1/2."""
    n = pref.n
    return np.array(
        [[pg.eval_mapping(mapping, 0.5 if i == j else pref.p[i, j]) for j in range(n)] for i in range(n)]
    )


@pytest.mark.parametrize("mapping", PINNED_MAPPINGS, ids=lambda m: m.kind)
def test_proof_games_are_their_tables_under_the_mapping(mapping):
    for t1 in (0.5 + 1e-9, 0.55, 0.6, 0.7, 0.9, 1.0):
        games = [
            (pg.game_two(mapping, t1), pg.table_preferences("table2", t1)),
            (pg.game_four(mapping, t1, 0.55), pg.table_preferences("table4", t1, 0.55)),
            (pg.game_six(mapping, t1, 0.8), pg.table_preferences("table6", t1, 0.8)),
        ]
        for game, table in games:
            assert game.a.tobytes() == pg.apply_mapping(table, mapping).a.tobytes()
            assert game.a.tobytes() == _entrywise(mapping, table).tobytes()


class TestTablePreferences:
    @pytest.mark.parametrize(
        "args,message",
        [
            (("table2", 0.4), "t must lie in (1/2, 1], got 0.4"),
            (("table2", 0.7, 0.6), "table2 takes one strength"),
            (("table4", 0.7), "t2 must lie in (1/2, 1], got None"),
            (("table6", 1.2, 0.6), "t1 must lie in (1/2, 1], got 1.2"),
            (("table5", 0.7, 0.6), "unknown table 'table5'"),
            (("table2", "0.7"), "t must be a number, got '0.7'"),
            (("table4", 0.7, True), "t2 must be a number, got True"),
            (("table6", float("nan"), 0.6), "t1 must be finite, got nan"),
        ],
    )
    def test_bad_arguments_are_validation_errors(self, args, message):
        with pytest.raises(pg.ValidationError) as info:
            pg.table_preferences(*args)
        assert str(info.value).startswith(message)


class TestMixtureWeights:
    def test_pinned_blend(self):
        blend, primed = pg.mixture_weights(pg.piecewise_linear(QUAD), 0.9, 0.6)
        mu1 = 3.0 * blend.w[0]
        assert mu1 == pytest.approx(0.6293103448275861, abs=1e-12)
        np.testing.assert_allclose(blend.w[:3], blend.w[0])
        np.testing.assert_allclose(blend.w[3:], blend.w[3])
        assert blend.w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(primed.w, np.concatenate([blend.w[3:], blend.w[:3]]))

    def test_blend_equalizes_the_game(self):
        blend, primed = pg.mixture_weights(pg.piecewise_linear(QUAD), 0.9, 0.6)
        pay = pg.game_six(pg.piecewise_linear(QUAD), 0.9, 0.6)
        assert pg.best_response_gap(pay, blend, primed) <= 1e-12

    def test_symmetric_case_is_even(self):
        spec = pg.piecewise_linear([(0.0, 0.0), (0.4, 0.2), (0.5, 0.5), (0.6, 0.2), (1.0, 3.0)])
        blend, primed = pg.mixture_weights(spec, 1.0, 0.6)
        np.testing.assert_allclose(blend.w, 1.0 / 6.0, atol=1e-12)
        np.testing.assert_allclose(primed.w, 1.0 / 6.0, atol=1e-12)

    def test_no_positive_solution_raises(self):
        with pytest.raises(pg.ValidationError):
            pg.mixture_weights(pg.identity(), 0.9, 0.6)
