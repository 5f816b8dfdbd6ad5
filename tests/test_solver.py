"""LP core, maximin solves, equilibrium enumeration, uniqueness probing."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import prefgame as pg
from prefgame import _simplex, solver
from prefgame._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, optimal_face_ranges, solve_standard_lp
from support_enumeration import enumerate_equilibria, total_payoff

RPS = [[0.5, 0.9, 0.1], [0.1, 0.5, 0.9], [0.9, 0.1, 0.5]]


class TestSimplex:
    def test_basic_optimum(self):
        # min -x1 - 2 x2  s.t.  x1 + x2 + s = 4, x2 + t = 3
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        a = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = np.array([4.0, 3.0])
        res = solve_standard_lp(c, a, b)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-7.0)
        np.testing.assert_allclose(res.x[:2], [1.0, 3.0], atol=1e-9)

    def test_negative_rhs_is_flipped(self):
        c = np.array([1.0, 0.0])
        a = np.array([[-1.0, -1.0]])
        b = np.array([-2.0])
        res = solve_standard_lp(c, a, b)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_infeasible(self):
        c = np.array([0.0, 0.0])
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        res = solve_standard_lp(c, a, b)
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        c = np.array([-1.0, 0.0])
        a = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        res = solve_standard_lp(c, a, b)
        assert res.status == UNBOUNDED

    def test_redundant_row_is_dropped(self):
        c = np.array([1.0, 1.0])
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        res = solve_standard_lp(c, a, b)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(1.0)

    def test_degenerate_does_not_cycle(self):
        # Classic cycling-prone data; Bland's rule must terminate.
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        a = np.array(
            [
                [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        res = solve_standard_lp(c, a, b)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-0.05)


def rps_game():
    return pg.apply_mapping(pg.validate_preferences(RPS), pg.identity())


class TestMaximin:
    def test_rps(self):
        nash = pg.solve_maximin(rps_game())
        assert nash.value == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(nash.row_strategy.w, 1.0 / 3.0, atol=1e-9)
        np.testing.assert_allclose(nash.col_strategy.w, 1.0 / 3.0, atol=1e-9)
        assert nash.exploitability <= 1e-9
        assert nash.solver_iterations > 0

    def test_value_never_negative_zero(self):
        pay = pg.make_payoff([[0.0, 0.0], [0.0, 0.0]])
        nash = pg.solve_maximin(pay)
        assert nash.value == 0.0
        assert math.copysign(1.0, nash.value) == 1.0

    def test_report_dict_fields(self):
        d = pg.solve_maximin(rps_game()).to_dict()
        assert list(d) == ["row_strategy", "col_strategy", "value", "exploitability", "solver_iterations"]

    def test_shifted_scaled_value(self):
        pay = rps_game()
        scaled = pg.make_payoff(3.0 * pay.a - 2.0)
        nash = pg.solve_maximin(scaled)
        assert nash.value == pytest.approx(3.0 * 0.5 - 2.0, abs=1e-8)

    def test_random_duality(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            pay = pg.make_payoff(rng.uniform(-5.0, 5.0, size=(n, n)))
            nash = pg.solve_maximin(pay)
            gap = pg.best_response_gap(pay, nash.row_strategy, nash.col_strategy)
            assert np.float64(nash.exploitability).tobytes() == np.float64(gap).tobytes()
            assert nash.exploitability <= 1e-9 * (pay.a.max() - pay.a.min())

    def test_exploitable_pair_is_a_solver_error(self):
        # Under affine(1e-6, 0) the LPs' absolute pivot tolerance loses this
        # game; the returned pair would be 0.105 of the span from best response.
        pref = pg.random_tournament(pg.GeneratorConfig(n=6, seed=18))
        with pytest.raises(pg.SolverError, match=r"^exploitability .* exceeds 1e-09 x payoff span "):
            pg.solve_maximin(pg.apply_mapping(pref, pg.affine(1e-6, 0.0)))

    def test_positive_affine_invariance_of_strategies(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pay = pg.make_payoff(rng.uniform(-1.0, 1.0, size=(4, 4)))
            nash = pg.solve_maximin(pay)
            shifted = pg.make_payoff(2.5 * pay.a + 0.75)
            # The original equilibrium pair must stay an equilibrium pair.
            assert pg.best_response_gap(shifted, nash.row_strategy, nash.col_strategy) <= 1e-7


def assert_value_is_the_guarantee(payoff, nash):
    """The report's value is its row strategy's guarantee, bit for bit, its
    exploitability the gap above it, and its column slacks start at 0."""
    a = payoff.a
    value = float(np.min(nash.row_strategy.w @ a)) + 0.0
    assert np.float64(nash.value).tobytes() == np.float64(value).tobytes()
    gap = float(np.max(a @ nash.col_strategy.w)) - nash.value
    assert np.float64(nash.exploitability).tobytes() == np.float64(gap).tobytes()
    slacks = pg.uniqueness_report(payoff, nash).column_slacks
    assert slacks.min() == 0.0 and np.all(slacks >= 0.0)


VALUE_MAPPINGS = {
    "identity": pg.identity,
    "log_odds": pg.log_odds,
    "piecewise_constant": lambda: pg.piecewise_constant(-1.0, 0.0, 1.0),
    "power": lambda: pg.power(2.0),
}


class TestValueIsTheGuarantee:
    def test_wide_btl_target(self):
        # The row LP's objective put this game's value 3.49e-9 below the
        # guarantee of its own row strategy, whose exploitability is 0, and
        # uniqueness_report's slacks started at that miss.
        rewards = np.random.default_rng([7, 40, 19, 5]).normal(0.0, 4.0, size=19)
        pay = pg.ratio_payoff(pg.btl_family(), pg.pm_policy(pg.make_btl(rewards)))
        nash = pg.solve_maximin(pay)
        assert nash.value == float(np.min(nash.row_strategy.w @ pay.a)) == 0.5
        assert pg.uniqueness_report(pay, nash).column_slacks.min() == 0.0

    @pytest.mark.parametrize("n, seed", [(3, 36), (5, 23), (5, 31), (6, 0), (6, 26), (6, 32)])
    def test_affine_scaled_value_passes_the_face_check(self, n, seed):
        # Under affine(1e-6, 0) the row LP's objective missed the value 5e-7 by
        # up to 3.4 % of the span, with exploitability 0, and uniqueness_report
        # rejected the report.
        pay = mapped_tournament(pg.affine(1e-6, 0.0), n, seed)
        nash = pg.solve_maximin(pay)
        assert nash.value == pytest.approx(5e-7, rel=1e-9, abs=0.0)
        assert pg.uniqueness_report(pay, nash).unique

    @settings(deadline=None, max_examples=150)
    @given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(VALUE_MAPPINGS)))
    def test_solved_games(self, n, seed, kind):
        pay = mapped_tournament(VALUE_MAPPINGS[kind](), n, seed)
        try:
            nash = pg.solve_maximin(pay)
        except pg.SolverError:
            assume(False)
        assert_value_is_the_guarantee(pay, nash)

    @settings(deadline=None, max_examples=150)
    @given(
        rewards=st.integers(2, 10).flatmap(lambda n: arrays(np.float64, n, elements=st.floats(-4.0, 4.0))),
        family=st.sampled_from(["btl", "degenerate", "mismatched"]),
    )
    def test_probe_games(self, rewards, family):
        target = pg.pm_policy(pg.make_btl(rewards))
        n = target.n
        spec = {
            "btl": pg.btl_family(),
            "degenerate": pg.degenerate_family(n),
            "mismatched": pg.degenerate_family(n + 1),
        }[family]
        probe = pg.pm_gap(spec, target)
        assert_value_is_the_guarantee(pg.ratio_payoff(spec, target), probe.nash)


def test_best_response_gap_pinned():
    pay = rps_game()
    uniform = pg.make_policy(np.full(3, 1.0 / 3))
    gap = pg.best_response_gap(pay, pg.make_policy(np.eye(3)[0]), uniform)
    assert gap == pytest.approx(0.4, abs=1e-12)
    assert pg.best_response_gap(pay, uniform, uniform) <= 1e-15


def test_best_response_gap_dimension_check():
    with pytest.raises(pg.ValidationError):
        pg.best_response_gap(rps_game(), pg.make_policy(np.full(2, 0.5)), pg.make_policy(np.full(3, 1.0 / 3)))


# Finite entries whose span max - min overflows a float.
OVERFLOWING_SPAN = [[1e308, -1e308], [0.0, 0.0]]


@pytest.mark.parametrize(
    "call",
    [
        lambda pay: pg.solve_maximin(pay),
        lambda pay: pg.uniqueness_report(pay, pg.solve_maximin(pg.make_payoff(np.eye(2)))),
        lambda pay: pg.kkt_verify(pay, pg.make_policy(np.full(2, 0.5))),
    ],
    ids=["solve_maximin", "uniqueness_report", "kkt_verify"],
)
def test_overflowing_span_is_a_validation_error(call):
    # Warnings are errors in this suite, so an overflow warning fails here too.
    pay = pg.make_payoff(OVERFLOWING_SPAN)
    with pytest.raises(pg.ValidationError) as info:
        call(pay)
    assert str(info.value) == "payoff span is not finite: max 1e+308 - min -1e+308 = inf"


# Entries at the float extremes, mixed with small ones: the tableaux of
# games built from them overflow.
EXTREME_ENTRIES = sorted(
    {sign * size * factor for sign in (1.0, -1.0) for size in (0.0, 0.5, 1.0, 1e-300, 1e300, 5e307, 1e308)
     for factor in (1.0, 0.999, 0.5)}
)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_extreme_payoffs_are_certified_or_a_typed_error(data):
    # Warnings are errors in this suite, so a numpy warning fails here too.
    n = data.draw(st.integers(2, 5))
    a = data.draw(arrays(np.float64, (n, n), elements=st.sampled_from(EXTREME_ENTRIES)))
    span = float(a.max()) - float(a.min())
    assume(math.isfinite(span))
    pay = pg.make_payoff(a)
    for solve in (pg.solve_maximin, lambda pay: solver._solve_dantzig(pay)[0]):
        try:
            nash = solve(pay)
        except pg.PrefGameError:
            continue
        assert np.all(np.isfinite(nash.row_strategy.w)) and np.all(np.isfinite(nash.col_strategy.w))
        assert math.isfinite(nash.value)
        assert nash.exploitability <= 1e-9 * (span or 1.0)
        try:
            ranges = pg.uniqueness_report(pay, nash).coordinate_ranges
        except pg.PrefGameError:
            continue
        assert np.all((ranges >= 0.0) & (ranges <= 1.0))


class TestEnumeration:
    def test_rps_unique(self):
        eqs = enumerate_equilibria(rps_game())
        assert len(eqs) == 1
        x, y, value = eqs[0]
        np.testing.assert_allclose(x.w, 1.0 / 3.0, atol=1e-9)
        np.testing.assert_allclose(y.w, 1.0 / 3.0, atol=1e-9)
        assert value == pytest.approx(0.5)

    def test_matching_pennies(self):
        pay = pg.make_payoff([[1.0, -1.0], [-1.0, 1.0]])
        eqs = enumerate_equilibria(pay)
        assert len(eqs) == 1
        assert eqs[0][2] == pytest.approx(0.0)

    def test_constant_game_contains_pure_pairs(self):
        pay = pg.make_payoff([[0.7, 0.7], [0.7, 0.7]])
        eqs = enumerate_equilibria(pay)
        seen = {(tuple(x.w.round(9)), tuple(y.w.round(9))) for x, y, _ in eqs}
        for i in (0, 1):
            for j in (0, 1):
                assert (tuple(np.eye(2)[i]), tuple(np.eye(2)[j])) in seen

    def test_unequal_support_sizes_are_found(self):
        # Degenerate game whose row optimum is pure while every optimal
        # column strategy mixes three columns.
        mapping = pg.piecewise_linear([(0.0, -4.5), (0.5, 0.5), (1.0, 1.0)])
        pay = pg.apply_mapping(pg.table_preferences("table4", 0.9, 0.55), mapping)
        eqs = enumerate_equilibria(pay)
        assert eqs
        assert all(v == pytest.approx(0.0, abs=1e-9) for _, _, v in eqs)
        supports = {tuple(y.support()) for _, y, _ in eqs}
        assert supports == {(0, 1, 2)}
        assert any(x.support() == [3] for x, _, _ in eqs)

    def test_all_pairs_verify(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            pay = pg.make_payoff(rng.uniform(-2.0, 2.0, size=(n, n)))
            for x, y, value in enumerate_equilibria(pay):
                assert pg.best_response_gap(pay, x, y) <= 1e-8
                assert total_payoff(pay, x, y) == pytest.approx(value, abs=1e-9)

    def test_deduplication(self):
        eqs = enumerate_equilibria(rps_game())
        for i in range(len(eqs)):
            for j in range(i + 1, len(eqs)):
                dx = np.abs(eqs[i][0].w - eqs[j][0].w).max()
                dy = np.abs(eqs[i][1].w - eqs[j][1].w).max()
                assert max(dx, dy) > 1e-7

    def test_size_cap(self):
        pay = pg.make_payoff(np.zeros((9, 9)))
        with pytest.raises(pg.ValidationError):
            enumerate_equilibria(pay)
        # Raising the cap admits matrices above the default limit.
        rng = np.random.default_rng(3)
        small = pg.make_payoff(rng.uniform(-1.0, 1.0, size=(5, 5)))
        with pytest.raises(pg.ValidationError):
            enumerate_equilibria(small, max_n=4)
        assert enumerate_equilibria(small, max_n=5)


class TestUniqueness:
    def test_rps_is_unique(self):
        pay = rps_game()
        report = pg.uniqueness_report(pay, pg.solve_maximin(pay))
        assert report.unique
        assert report.dual_support_full
        widths = report.coordinate_ranges[:, 1] - report.coordinate_ranges[:, 0]
        assert widths.max() <= 1e-8
        np.testing.assert_allclose(report.column_slacks, 0.0, atol=1e-9)

    def test_constant_game_is_not_unique(self):
        pay = pg.make_payoff([[0.7, 0.7], [0.7, 0.7]])
        report = pg.uniqueness_report(pay, pg.solve_maximin(pay))
        assert not report.unique
        np.testing.assert_allclose(report.coordinate_ranges, [[0.0, 1.0], [0.0, 1.0]], atol=1e-8)

    def test_swap_game_is_unique(self):
        pay = pg.make_payoff([[0.0, 1.0], [1.0, 0.0]])
        report = pg.uniqueness_report(pay, pg.solve_maximin(pay))
        assert report.unique
        for lo, hi in report.coordinate_ranges:
            assert lo == pytest.approx(0.5, abs=1e-8)
            assert hi == pytest.approx(0.5, abs=1e-8)

    def test_duplicated_rps_ranges_are_exact(self):
        # Rock-paper-scissors with the last row and column duplicated: the
        # duplicate pair splits a third between them in every proportion.
        pay = pg.make_payoff([[0, 1, -1, -1], [-1, 0, 1, 1], [1, -1, 0, 0], [1, -1, 0, 0]])
        report = pg.uniqueness_report(pay, pg.solve_maximin(pay))
        assert not report.unique
        third = 1.0 / 3.0
        expected = [[third, third], [third, third], [0.0, third], [0.0, third]]
        np.testing.assert_allclose(report.coordinate_ranges, expected, rtol=0.0, atol=1e-12)

    def test_report_of_the_wrong_size_raises(self):
        nash = pg.solve_maximin(pg.make_payoff(np.eye(4)))
        with pytest.raises(pg.ValidationError, match="payoff n=3, report n=4 and n=4"):
            pg.uniqueness_report(rps_game(), nash)

    def test_face_tolerance_is_unit_free_on_surplus_columns(self):
        # The span here is 1.4e9.  A slack column's reduced cost is a column
        # weight over 2 - value on the unit-span payoff, at most 1, so a
        # tolerance of 1e-9 times the span would keep every slack column and
        # leave the whole simplex as the face.
        w = pg.pm_policy(pg.make_btl(np.random.default_rng(28).normal(0.0, 1.0, size=8))).w
        pay = pg.make_payoff(1e9 * pg.construction_one(pg.make_policy(w)).a)
        report = pg.uniqueness_report(pay, pg.solve_maximin(pay))
        assert report.unique
        np.testing.assert_allclose(report.coordinate_ranges, np.column_stack([w, w]), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "stream, sizes, count",
        [(1_605_627, (4, 7, 10, 13, 16), 20), (555, (4, 10, 16), 100)],
    )
    def test_construction_one_targets_are_unique(self, stream, sizes, count):
        # construction_one's optimum is the target alone.  The second stream
        # holds [555, 16, 7], whose smallest weight is 5.7e-4.
        for n in sizes:
            for k in range(count):
                rng = np.random.default_rng(np.random.SeedSequence([stream, n, k]))
                w = pg.pm_policy(pg.make_btl(rng.normal(0.0, 1.0, size=n))).w
                pay = pg.construction_one(pg.make_policy(w))
                report = pg.uniqueness_report(pay, pg.solve_maximin(pay))
                assert report.unique, (stream, n, k)
                np.testing.assert_allclose(report.coordinate_ranges, np.column_stack([w, w]), rtol=0.0, atol=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_report_does_not_move_under_affine_maps(self, data):
        # The face is taken on the payoff mapped onto [0, 1], which a·A + b
        # leaves in place.  The solve itself is not affine-robust, so the
        # scaled report reuses the unscaled solve with its value mapped.
        n = data.draw(st.integers(2, 6))
        a = data.draw(arrays(np.float64, (n, n), elements=st.integers(-3, 3).map(float)))
        if data.draw(st.booleans()):
            a[-1] = a[0]
        scale = 10.0 ** data.draw(st.floats(-9.0, 9.0))
        pay = pg.make_payoff(a)
        nash = pg.solve_maximin(pay)
        report = pg.uniqueness_report(pay, nash)
        scaled = pg.uniqueness_report(
            pg.make_payoff(scale * a + 0.5 * scale),
            dataclasses.replace(nash, value=scale * nash.value + 0.5 * scale),
        )
        assert scaled.unique == report.unique
        np.testing.assert_allclose(scaled.coordinate_ranges, report.coordinate_ranges, rtol=0.0, atol=1e-9)

    def test_large_span_report_is_measured_on_its_certified_face(self):
        # Entries near 1e300 and 1e308.  A second, uncertified face LP on
        # 2 - Âᵀ missed the value by 5.5e-8 of the span and rejected this
        # certified report ("the payoff's value -4.95e+300 is not the
        # report's 5.0e+299"); the face is now that of a certified solve.
        pay = pg.make_payoff([[0, 9.99e-301, -5e299], [-0.0, 9.99e307, 0.5], [5e299, 0.999, 9.99e307]])
        nash = solver._solve_dantzig(pay)[0]
        assert nash.exploitability <= 1e-9 * (9.99e307 + 5e299)
        report = pg.uniqueness_report(pay, nash)
        assert report.unique and report.face_vertex

    def test_face_that_lost_accuracy_is_an_error(self):
        # The solve is certified, but its final tableau puts a weight 1e-3
        # outside [0, 1], so the face read off it is not an optimal face.
        pay = pg.make_payoff(
            [
                [-9.99e307, -0.999, 0.0, -1e-300, 9.99e299],
                [5e-301, -2.5e307, -0.999, 1e-300, -0.25],
                [5e299, -0.999, -9.99e-301, 9.99e299, 5e-301],
                [-9.99e-301, -2.5e307, -0.5, 0.999, -1e308],
                [5e307, 5e299, -0.999, -1e308, 5e299],
            ]
        )
        nash = solver._solve_dantzig(pay)[0]
        with pytest.raises(pg.SolverError, match=r"^the optimal face lost accuracy: weight ranges span -0\.001"):
            pg.uniqueness_report(pay, nash)


# The reference's floor sits this far below the value, to absorb float error
# in it; the slack inflates its ranges by the polytope's condition number.
REFERENCE_SLACK = 1e-11


def reference_ranges(payoff, nash):
    """Coordinate ranges from two separate LPs per coordinate over the polytope
    of strategies guaranteeing ``REFERENCE_SLACK`` below the value."""
    a = payoff.a
    n = payoff.n
    a_eq = np.zeros((n + 1, 2 * n))
    a_eq[:n, :n] = a.T
    a_eq[:n, n:] = -np.eye(n)
    a_eq[n, :n] = 1.0
    b_eq = np.concatenate([np.full(n, nash.value - REFERENCE_SLACK), [1.0]])
    ranges = np.zeros((n, 2))
    for i in range(n):
        for side, sign in enumerate((1.0, -1.0)):
            c = np.zeros(2 * n)
            c[i] = sign
            result = solve_standard_lp(c, a_eq, b_eq)
            assert result.status == OPTIMAL
            ranges[i, side] = float(result.x[i])
    return ranges


def btl_construction_one(n, index):
    rng = np.random.default_rng(np.random.SeedSequence([1_605_627, n, index]))
    return pg.construction_one(pg.pm_policy(pg.make_btl(rng.normal(0.0, 1.0, size=n))))


def duplicated_row_game(seed, n):
    a = np.random.default_rng(seed).random((n, n))
    a[-1] = a[0]
    return pg.make_payoff(a)


SHARED_PHASE_ONE_GAMES = {
    "rps": rps_game,
    "swap": lambda: pg.make_payoff([[0.0, 1.0], [1.0, 0.0]]),
    "random5": lambda: pg.make_payoff(np.random.default_rng(5).random((5, 5))),
    "random7": lambda: pg.make_payoff(np.random.default_rng(8).random((7, 7))),
    "constant2": lambda: pg.make_payoff([[0.7, 0.7], [0.7, 0.7]]),
    "constant4": lambda: pg.make_payoff(np.full((4, 4), -1.5)),
    "duplicated_row4": lambda: duplicated_row_game(1, 4),
    "duplicated_row6": lambda: duplicated_row_game(2, 6),
    "integer5": lambda: pg.make_payoff(np.random.default_rng(3).integers(-2, 3, size=(5, 5)).astype(float)),
    "integer6": lambda: pg.make_payoff(np.random.default_rng(4).integers(-1, 2, size=(6, 6)).astype(float)),
    "btl4": lambda: btl_construction_one(4, 0),
    "btl10": lambda: btl_construction_one(10, 3),
    "btl16": lambda: btl_construction_one(16, 7),
}


def range_lp_loop(a, face_tol):
    """Each coordinate's [min, max] from two phase-2 LPs on the optimal face of
    ``slack_basis_lp(a)``, and the pivots of those LPs: ``optimal_face_ranges``
    with no vertex shortcut."""
    result, work, basis = _simplex.slack_basis_lp(a)
    n = a.shape[1]
    kept = work[-1, : result.x.size] <= face_tol
    face = work[:, np.r_[kept, True]]
    position = np.cumsum(kept) - 1
    unit = np.eye(int(kept.sum()))
    ranges = np.zeros((n, 2))
    pivots = 0
    for i in np.flatnonzero(kept[:n]):
        for side, sign in enumerate((1.0, -1.0)):
            bound = _simplex._phase_two(sign * unit[position[i]], face.copy(), position[basis], 0)
            pivots += bound.iterations
            ranges[i, side] = bound.x[position[i]]
    return ranges, pivots


class TestSharedPhaseOne:
    """Coordinate ranges on the row LP's optimal face against per-coordinate
    LPs, and the LP entry points' input checks.  The class keeps the name of
    the batch API it was written for, so its test IDs stay put."""

    @pytest.mark.parametrize("name", sorted(SHARED_PHASE_ONE_GAMES))
    def test_matches_separate_lps_bit_for_bit(self, name):
        pay = SHARED_PHASE_ONE_GAMES[name]()
        nash = pg.solve_maximin(pay)
        report = pg.uniqueness_report(pay, nash)
        expected = reference_ranges(pay, nash)
        np.testing.assert_allclose(report.coordinate_ranges, expected, rtol=0.0, atol=1e-8)
        assert report.unique == bool(np.all(expected[:, 1] - expected[:, 0] <= 1e-8))

    def test_reference_covers_unique_and_non_unique_games(self):
        flags = {}
        for name, make in SHARED_PHASE_ONE_GAMES.items():
            pay = make()
            flags[name] = pg.uniqueness_report(pay, pg.solve_maximin(pay)).unique
        assert flags["rps"] and flags["btl16"] and flags["random5"]
        assert not flags["constant4"] and not flags["duplicated_row6"] and not flags["integer6"]

    def test_face_fixes_columns_with_positive_reduced_cost(self):
        # max y0 + y1 s.t. y0 + 2 y1 <= 1: the face is y0 = 1 alone.
        result, work, basis = _simplex.slack_basis_lp(np.array([[1.0, 2.0]]))
        ranges, face_columns, _ = optimal_face_ranges(work, basis, 1e-9)
        assert result.status == OPTIMAL and face_columns == 1
        np.testing.assert_array_equal(ranges, [[1.0, 1.0], [0.0, 0.0]])

    def test_face_keeps_columns_with_zero_reduced_cost(self):
        # max y0 + y1 s.t. y0 + y1 <= 1: every point with y0 + y1 = 1 is
        # optimal, and only the slack is fixed.
        _, work, basis = _simplex.slack_basis_lp(np.array([[1.0, 1.0]]))
        ranges, face_columns, range_pivots = optimal_face_ranges(work, basis, 1e-9)
        assert face_columns == 2 and range_pivots > 0
        np.testing.assert_array_equal(ranges, [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [4, 7, 10, 13, 16])
    def test_construction_one_faces_are_vertices(self, n):
        # A vertex face skips its range LPs; each would start at that vertex
        # and stop there, so the bytes are the same.
        for index in range(20):
            pay = btl_construction_one(n, index)
            a = 2.0 - solver._unit_span(pay.a)[0].T
            _, work, basis = _simplex.slack_basis_lp(a)
            ranges, face_columns, range_pivots = optimal_face_ranges(work, basis, solver.DEFAULT_SOLVER_TOL)
            expected, loop_pivots = range_lp_loop(a, solver.DEFAULT_SOLVER_TOL)
            assert (face_columns, range_pivots, loop_pivots) == (n, 0, 0), index
            assert ranges.tobytes() == expected.tobytes(), index
            assert pg.uniqueness_report(pay, pg.solve_maximin(pay)).face_vertex, index

    @pytest.mark.parametrize(
        "name, vertex",
        [("rps", True), ("btl10", True), ("constant2", False), ("duplicated_row6", False)],
    )
    def test_report_says_whether_the_face_is_a_vertex(self, name, vertex):
        pay = SHARED_PHASE_ONE_GAMES[name]()
        assert pg.uniqueness_report(pay, pg.solve_maximin(pay)).face_vertex is vertex

    @pytest.mark.parametrize("name", ["rps", "duplicated_row6"])
    def test_report_runs_no_phase_one(self, monkeypatch, name):
        pay = SHARED_PHASE_ONE_GAMES[name]()
        nash = pg.solve_maximin(pay)

        def refuse(a, b):
            raise AssertionError("uniqueness_report ran phase 1")

        monkeypatch.setattr(_simplex, "_phase_one", refuse)
        assert pg.uniqueness_report(pay, nash).unique == (name == "rps")

    def test_non_finite_payoff_raises(self):
        # Built around make_payoff's check.  Unchecked, the face LP reads this
        # payoff as unique with ranges [0, 0] and [1, 1].
        pay = pg.PayoffMatrix(n=2, a=np.array([[np.inf, 0.0], [0.0, 0.0]]))
        nash = pg.solve_maximin(pg.make_payoff(np.eye(2)))
        with pytest.raises(pg.SolverError, match="must be finite"):
            pg.uniqueness_report(pay, nash)

    def test_wrong_objective_length_raises(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        with pytest.raises(pg.SolverError, match="shape mismatch"):
            solve_standard_lp([1.0], a, b)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["c", "a", "b"])
    def test_non_finite_input_raises(self, where, bad):
        # Unchecked, an inf in A gives a false optimum x = [0, 0].
        c, a, b = np.ones(2), np.ones((1, 2)), np.ones(1)
        {"c": c, "a": a, "b": b}[where].flat[0] = bad
        with pytest.raises(pg.SolverError, match="must be finite"):
            solve_standard_lp(c, a, b)

    def test_floor_above_value_reports_empty_polytope(self):
        pay = rps_game()
        nash = pg.solve_maximin(pay)
        raised = dataclasses.replace(nash, value=nash.value + 0.1)
        with pytest.raises(pg.SolverError, match="the payoff's value .* is not the report's"):
            pg.uniqueness_report(pay, raised)

    def test_debug_line_reports_the_face(self, caplog):
        pay = rps_game()
        nash = pg.solve_maximin(pay)
        with caplog.at_level(logging.DEBUG, logger="prefgame.solver"):
            pg.uniqueness_report(pay, nash)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("uniqueness probed")]
        assert len(lines) == 1
        assert lines[0].startswith("uniqueness probed: n=3 face_columns=")
        assert " pivots=" in lines[0] and " range_pivots=" in lines[0]

    def test_face_solve_logs_its_own_line_first(self, caplog):
        # The face is that of a certified solve on the unit game (span 1),
        # which logs its own line; the probe's pivots are that solve's.
        pay = pg.make_payoff(np.random.default_rng(5).random((5, 5)))
        nash = pg.solve_maximin(pay)
        with caplog.at_level(logging.DEBUG, logger="prefgame"):
            pg.uniqueness_report(pay, nash)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        solved, probed = lines
        assert solved.startswith("maximin solved: n=5 lps=1 ") and " span=1 " in solved
        assert probed.startswith("uniqueness probed: n=5 ")
        assert probed.split(" pivots=")[1].split()[0] == solved.split(" iterations=")[1]


def two_lp_reference(payoff):
    """What ``solve_maximin`` reports when both players' LPs are run: both
    strategies, the row strategy's guarantee, the pair's gap and the pivots."""
    a = payoff.a
    row_w, row_pivots = solver._maximin_lp(a)
    col_w, col_pivots = solver._maximin_lp(-a.T)
    row, col = solver._clean_policy(row_w), solver._clean_policy(col_w)
    guarantee = float(np.min(row.w @ a)) + 0.0
    return row.w, col.w, guarantee, pg.best_response_gap(payoff, row, col), (row_pivots, col_pivots)


def mapped_tournament(mapping, n, seed):
    pref = pg.random_tournament(pg.GeneratorConfig(n=n, seed=seed))
    return pg.apply_mapping(pref, mapping)


SKEW_MAPPINGS = {
    "log_odds": pg.log_odds,
    "piecewise_constant": lambda: pg.piecewise_constant(-1.0, 0.0, 1.0),
}


@pytest.fixture
def maximin_lp_calls(monkeypatch):
    """Record the pivot count of every ``_maximin_lp`` call."""
    calls = []
    original = solver._maximin_lp

    def counting(a):
        result = original(a)
        calls.append(result[1])
        return result

    monkeypatch.setattr(solver, "_maximin_lp", counting)
    return calls


class TestSkewSymmetricGames:
    @pytest.mark.parametrize("n", [*range(3, 11), 13, 16, 20, 25, 30, 35, 40, 45, 50])
    @pytest.mark.parametrize("kind", sorted(SKEW_MAPPINGS))
    def test_one_lp_matches_two_bit_for_bit(self, kind, n):
        pay = mapped_tournament(SKEW_MAPPINGS[kind](), n, seed=1)
        assert np.array_equal(-pay.a.T, pay.a)
        nash = pg.solve_maximin(pay)
        row_w, col_w, value, gap, (row_pivots, col_pivots) = two_lp_reference(pay)
        assert nash.row_strategy.w.tobytes() == row_w.tobytes()
        assert nash.col_strategy.w.tobytes() == col_w.tobytes()
        assert np.float64(nash.value).tobytes() == np.float64(value).tobytes()
        assert np.float64(nash.exploitability).tobytes() == np.float64(gap).tobytes()
        # The skew game's two LPs are the same program, so they pivot alike.
        assert nash.solver_iterations == row_pivots == col_pivots

    def test_failing_game_fails_with_the_same_message(self):
        pay = mapped_tournament(SKEW_MAPPINGS["piecewise_constant"](), 45, seed=2)
        gap = two_lp_reference(pay)[3]
        message = f"exploitability {gap} exceeds 1e-09 x payoff span 2.0; the LP solve lost accuracy"
        with pytest.raises(pg.SolverError) as info:
            pg.solve_maximin(pay)
        assert str(info.value) == message

    def test_uniform_six_by_six_game_fails_in_phase_one(self):
        # 1 of the 15,000 uniform games at n 4-6 with seeds 0-4999.  Phase 1
        # stalls with no artificial mass left; _solve_dantzig certifies the
        # game (value 0.5224429825961612) in 7 pivots.
        pay = pg.make_payoff(np.random.default_rng(3660).random((6, 6)))
        with pytest.raises(pg.SolverError) as info:
            pg.solve_maximin(pay)
        assert str(info.value) == "phase-1 subproblem cannot be unbounded"
        assert solver._solve_dantzig(pay)[0].exploitability <= 1e-9

    def test_skew_game_runs_one_lp(self, maximin_lp_calls):
        pg.solve_maximin(mapped_tournament(pg.log_odds(), 8, seed=3))
        assert len(maximin_lp_calls) == 1

    def test_identity_game_runs_two_lps(self, maximin_lp_calls):
        pay = mapped_tournament(pg.identity(), 8, seed=3)
        assert not np.array_equal(-pay.a.T, pay.a)
        pg.solve_maximin(pay)
        assert len(maximin_lp_calls) == 2

    def test_nearly_skew_game_runs_two_lps(self, maximin_lp_calls):
        a = mapped_tournament(pg.log_odds(), 8, seed=3).a.copy()
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        pg.solve_maximin(pg.make_payoff(a))
        assert len(maximin_lp_calls) == 2

    @pytest.mark.parametrize("mapping", [pg.log_odds, pg.identity])
    def test_iterations_count_the_lps_run(self, maximin_lp_calls, mapping):
        nash = pg.solve_maximin(mapped_tournament(mapping(), 12, seed=4))
        assert nash.solver_iterations == sum(maximin_lp_calls) > 0

    @pytest.mark.parametrize("mapping, lps", [(pg.log_odds, 1), (pg.identity, 2)])
    def test_debug_line_reports_the_lps(self, caplog, mapping, lps):
        with caplog.at_level(logging.DEBUG, logger="prefgame.solver"):
            pg.solve_maximin(mapped_tournament(mapping(), 5, seed=0))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("maximin solved")]
        assert len(lines) == 1
        assert lines[0].startswith(f"maximin solved: n=5 lps={lps} value=")
        fields = dict(part.split("=") for part in lines[0].split(": ")[1].split())
        assert 0.0 <= float(fields["exploitability"]) <= 1e-9 * float(fields["span"])
        assert float(fields["span"]) > 0.0
