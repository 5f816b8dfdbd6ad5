"""Reward models, matching constructions, and optimality certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import prefgame as pg


def test_make_btl_rejects_nonfinite():
    with pytest.raises(pg.ValidationError):
        pg.make_btl([1.0, float("inf")])
    with pytest.raises(pg.ValidationError):
        pg.make_btl([])


@pytest.mark.parametrize("rewards", [["a", 1], "abc", [[1.0], [2.0, 3.0]]])
def test_make_btl_rejects_non_numeric(rewards):
    with pytest.raises(pg.ValidationError, match="rewards"):
        pg.make_btl(rewards)


def test_btl_preferences_pinned_values():
    pref = pg.btl_preferences(pg.make_btl([1.0, 0.0]))
    assert pref.p[0, 1] == pytest.approx(0.7310585786300049, abs=1e-15)
    pref2 = pg.btl_preferences(pg.make_btl([np.log(3.0), 0.0]))
    assert pref2.p[0, 1] == pytest.approx(0.75, abs=1e-12)


def test_btl_equal_rewards_tie():
    pref = pg.btl_preferences(pg.make_btl([2.0, 2.0, 0.0]))
    assert pref.p[0, 1] == 0.5
    assert pref.no_tie is False


def test_btl_extreme_gap_stays_in_range():
    pref = pg.btl_preferences(pg.make_btl([500.0, -500.0]))
    assert 0.0 <= pref.p[1, 0] <= pref.p[0, 1] <= 1.0


@settings(deadline=None)
@given(r=arrays(np.float64, (3,), elements=st.floats(-5.0, 5.0)))
def test_btl_matches_sigmoid(r):
    pref = pg.btl_preferences(pg.make_btl(r))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            expected = 1.0 / (1.0 + np.exp(-(r[i] - r[j])))
            assert pref.p[i, j] == pytest.approx(expected, abs=1e-12)
    np.testing.assert_allclose(pref.p + pref.p.T, 1.0, atol=1e-12)


def test_pm_policy_softmax():
    policy = pg.pm_policy(pg.make_btl([np.log(2.0), 0.0]))
    np.testing.assert_allclose(policy.w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_pm_policy_shift_invariance():
    a = pg.pm_policy(pg.make_btl([3.0, 1.0, 0.0]))
    b = pg.pm_policy(pg.make_btl([103.0, 101.0, 100.0]))
    np.testing.assert_allclose(a.w, b.w, atol=1e-12)


class TestConstructions:
    def test_construction_one_halves(self):
        pay = pg.construction_one(pg.make_policy([0.5, 0.5]))
        np.testing.assert_allclose(pay.a, [[0.0, 1.0], [1.0, 0.0]])

    def test_construction_two_pinned(self):
        pay = pg.construction_two(pg.make_policy([2.0 / 3.0, 1.0 / 3.0]))
        np.testing.assert_allclose(pay.a, [[1.0, -0.5], [-2.0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("w", [[0.5, 0.5], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]])
    def test_construction_one_certifies(self, w):
        target = pg.make_policy(w)
        pay = pg.construction_one(target)
        cert = pg.kkt_verify(pay, target)
        assert cert.feasible
        assert cert.t == pytest.approx(float(np.sum(np.square(w))), abs=1e-12)
        # The certifying column weights coincide with the target itself.
        np.testing.assert_allclose(cert.u.w, w, atol=1e-7)
        assert cert.complementarity_residual <= 1e-8 * (pay.a.max() - pay.a.min())
        nash = pg.solve_maximin(pay)
        assert nash.value == pytest.approx(cert.t, abs=1e-8)

    @pytest.mark.parametrize("w", [[0.5, 0.5], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]])
    def test_construction_two_certifies(self, w):
        target = pg.make_policy(w)
        pay = pg.construction_two(target)
        cert = pg.kkt_verify(pay, target)
        assert cert.feasible
        assert cert.t == pytest.approx(0.0, abs=1e-12)
        # Here the certifying weights are proportional to the reciprocals.
        recip = 1.0 / np.asarray(w)
        np.testing.assert_allclose(cert.u.w, recip / recip.sum(), atol=1e-7)
        assert cert.complementarity_residual <= 1e-8 * (pay.a.max() - pay.a.min())
        assert pg.solve_maximin(pay).value == pytest.approx(0.0, abs=1e-8)

    def test_constructions_need_full_support(self):
        hollow = pg.Policy.delta(0, 3)
        with pytest.raises(pg.ValidationError):
            pg.construction_one(hollow)
        with pytest.raises(pg.ValidationError):
            pg.construction_two(hollow)


class TestKKT:
    def test_infeasible_pinned(self):
        pay = pg.make_payoff([[0.0, 1.0], [1.0, 0.0]])
        cert = pg.kkt_verify(pay, pg.make_policy([0.9, 0.1]))
        assert cert.feasible is False
        assert cert.u is None
        assert cert.complementarity_residual is None
        assert cert.t == pytest.approx(0.9)
        np.testing.assert_allclose(cert.column_slacks, [-0.8, 0.0], atol=1e-12)

    def test_feasible_uniform_cycle(self):
        pay = pg.apply_mapping(
            pg.validate_preferences([[0.5, 0.9, 0.1], [0.1, 0.5, 0.9], [0.9, 0.1, 0.5]]),
            pg.identity(),
        )
        cert = pg.kkt_verify(pay, pg.Policy.uniform(3))
        assert cert.feasible
        assert cert.t == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(cert.u.w, 1.0 / 3.0, atol=1e-7)
        assert cert.complementarity_residual <= 1e-8

    def test_interior_target_required(self):
        pay = pg.make_payoff(np.zeros((3, 3)))
        with pytest.raises(pg.ValidationError):
            pg.kkt_verify(pay, pg.Policy.delta(1, 3))

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6, 1e9])
    def test_verdict_survives_affine_scaling(self, scale):
        # btl_family never matches a full-support BTL target, construction_one
        # always does; an absolute tolerance certified 19 of the former at
        # 1e-9 and none of the latter at 1e9.
        certified = {"btl_family": 0, "construction_one": 0}
        for seed in range(50):
            target = pg.pm_policy(pg.make_btl(np.random.default_rng(seed).normal(0.0, 1.0, size=8)))
            for name, pay in (
                ("btl_family", pg.ratio_payoff(pg.btl_family(), target)),
                ("construction_one", pg.construction_one(target)),
            ):
                scaled = pg.make_payoff(scale * pay.a + 0.5 * scale)
                certified[name] += pg.kkt_verify(scaled, target).feasible
        assert certified == {"btl_family": 0, "construction_one": 50}

    def test_dict_shape(self):
        pay = pg.make_payoff([[0.0, 1.0], [1.0, 0.0]])
        d = pg.kkt_verify(pay, pg.make_policy([0.5, 0.5])).to_dict()
        assert d["feasible"] is True
        assert "t" in d and "column_slacks" in d


class TestRatioFamilies:
    def test_btl_family_matches_btl_matrix(self):
        rewards = [np.log(2.0), 0.0]
        spec = pg.RatioPayoffSpec(f=lambda x: x / (1.0 + x), diagonal_c=0.5)
        pay = pg.ratio_payoff(spec, pg.pm_policy(pg.make_btl(rewards)))
        np.testing.assert_allclose(pay.a, pg.btl_preferences(pg.make_btl(rewards)).p, atol=1e-12)

    def test_probe_pinned_miss(self):
        spec = pg.RatioPayoffSpec(f=lambda x: x / (1.0 + x), diagonal_c=0.5)
        probe = pg.pm_gap(spec, pg.make_policy([0.6, 0.3, 0.1]))
        assert probe.gap == pytest.approx(0.4, abs=1e-6)
        assert probe.kkt.feasible is False
        np.testing.assert_allclose(probe.nash.row_strategy.w, [1.0, 0.0, 0.0], atol=1e-8)
        d = probe.to_dict()
        assert set(d) == {"gap", "kkt_feasible", "value", "row_strategy"}

    def test_probe_uniform_target_is_certified(self):
        spec = pg.RatioPayoffSpec(f=lambda x: x / (1.0 + x), diagonal_c=0.5)
        probe = pg.pm_gap(spec, pg.Policy.uniform(3))
        assert probe.kkt.feasible is True

    def test_degenerate_family_matched(self):
        rng = np.random.default_rng(31)
        for n in (3, 4, 6):
            fam = pg.degenerate_family(n, c=0.3, c2=2.0)
            for _ in range(5):
                w = rng.uniform(0.2, 1.0, size=n)
                target = pg.make_policy(w / w.sum())
                cert = pg.kkt_verify(pg.ratio_payoff(fam, target), target)
                assert cert.feasible
                assert cert.t == pytest.approx(0.3 + 2.0 * (n - 1), abs=1e-9)
                # Every column is tight for the matched dimension.
                assert np.abs(cert.column_slacks).max() <= 1e-9

    def test_degenerate_family_mismatched(self):
        rng = np.random.default_rng(32)
        fam = pg.degenerate_family(4)
        w = rng.uniform(0.2, 1.0, size=5)
        target = pg.make_policy(w / w.sum())
        cert = pg.kkt_verify(pg.ratio_payoff(fam, target), target)
        assert cert.feasible is False

    def test_nonfinite_ratio_values_raise(self):
        spec = pg.RatioPayoffSpec(f=lambda x: np.log(x - 10.0), diagonal_c=0.0)
        with np.errstate(invalid="ignore"), pytest.raises(pg.MappingError):
            pg.ratio_payoff(spec, pg.Policy.uniform(3))
