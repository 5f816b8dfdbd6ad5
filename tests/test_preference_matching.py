"""Reward models, matching constructions, and optimality certificates."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import prefgame as pg
from prefgame import _simplex, solver
from support_enumeration import first_equilibrium


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: pg.btl_family("0.5"), "c must be a number, got '0.5'"),
        (lambda: pg.btl_family(True), "c must be a number, got True"),
        (lambda: pg.degenerate_family(3, c=float("nan")), "c must be finite, got nan"),
        (lambda: pg.degenerate_family(3, c2="1"), "c2 must be a number, got '1'"),
    ],
    ids=["btl-string", "btl-boolean", "degenerate-nan", "degenerate-string"],
)
def test_ratio_family_constants_must_be_finite_numbers(build, message):
    with pytest.raises(pg.ValidationError) as info:
        build()
    assert str(info.value) == message


def test_rewards_beyond_the_float_range_give_exact_limits():
    # Gaps of ±2e308 overflow to ±inf, whose logistic is exactly 1 or 0; the
    # softmax puts all its mass on the one largest reward.
    model = pg.make_btl([0.1, -1e308, 1.0, 1e308])
    pref = pg.btl_preferences(model)
    assert pref.p[3, 1] == 1.0 and pref.p[1, 3] == 0.0
    np.testing.assert_array_equal(pref.p[3], [1.0, 1.0, 1.0, 0.5])
    np.testing.assert_array_equal(pg.pm_policy(model).w, [0.0, 0.0, 0.0, 1.0])


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
        hollow = pg.make_policy(np.eye(3)[0])
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
        assert cert.t == pytest.approx(0.1)
        np.testing.assert_allclose(cert.column_slacks, [0.0, 0.8], atol=1e-12)

    def test_target_below_the_value_is_not_certified(self):
        # The uniform target guarantees -1/3 against a value of 0.  Pinning t
        # at the largest column payoff, 1, certified it anyway.
        pay = pg.make_payoff([[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        cert = pg.kkt_verify(pay, pg.make_policy(np.full(3, 1.0 / 3)))
        assert cert.feasible is False
        assert cert.t == -1.0 / 3.0

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_verdict_is_whether_the_target_attains_the_value(self, data):
        n = data.draw(st.integers(2, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            a = data.draw(arrays(np.float64, (n, n), elements=st.integers(-3, 3).map(float)))
        else:
            a = rng.random((n, n))
        pay = pg.make_payoff(a)
        # The target comes from the LP-free oracle: solve_maximin fails on a
        # few valid games (tests/test_solver.py pins one drawn here).
        w, y = first_equilibrium(pay)
        target = pg.make_policy(w if np.all(w > 0.0) else rng.dirichlet(np.ones(n)))
        value = float(w @ a @ y)
        span = float(a.max() - a.min()) or 1.0
        guarantee = float(np.min(target.w @ a))
        assert pg.kkt_verify(pay, target).feasible == (guarantee >= value - 1e-8 * span)

    def test_feasible_uniform_cycle(self):
        pay = pg.apply_mapping(
            pg.validate_preferences([[0.5, 0.9, 0.1], [0.1, 0.5, 0.9], [0.9, 0.1, 0.5]]),
            pg.identity(),
        )
        cert = pg.kkt_verify(pay, pg.make_policy(np.full(3, 1.0 / 3)))
        assert cert.feasible
        assert cert.t == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(cert.u.w, 1.0 / 3.0, atol=1e-7)
        assert cert.complementarity_residual <= 1e-8

    def test_non_finite_payoff_raises(self):
        # Built around make_payoff's check.  Unchecked, mapping the payoff
        # onto [0, 1] divides inf by inf.
        pay = pg.PayoffMatrix(n=2, a=np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(pg.SolverError, match="must be finite"):
            pg.kkt_verify(pay, pg.make_policy(np.full(2, 0.5)))

    def test_interior_target_required(self):
        pay = pg.make_payoff(np.zeros((3, 3)))
        with pytest.raises(pg.ValidationError):
            pg.kkt_verify(pay, pg.make_policy(np.eye(3)[1]))

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

    @pytest.mark.parametrize("k", [47, 75, 79, 163, 183, 259, 263, 271])
    def test_mismatched_degenerate_targets_at_large_spans_certify(self, k):
        # degenerate_family(n + 1) at these n-targets has spans of 6e7 to 2e9
        # and a guarantee within 1e-8 of the value in span units.  The best
        # column weights still miss A u = t 1 by up to (value - t) / min(w),
        # with min(w) down to 3e-10, so a verdict on that residual failed.
        n = 2 + (k // 4) % 23
        rng = np.random.default_rng(np.random.SeedSequence([7, k]))
        target = pg.pm_policy(pg.make_btl(rng.normal(0.0, 4.0, size=n)))
        pay = pg.ratio_payoff(pg.degenerate_family(n + 1), target)
        cert = pg.kkt_verify(pay, target)
        span = float(pay.a.max() - pay.a.min())
        assert cert.feasible
        # Weak duality: the value is at most max(A u), so it is within 1e-8 x span of t.
        assert pg.best_response_gap(pay, target, cert.u) <= 1e-8 * span

    def test_verify_runs_no_phase_one(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("kkt_verify ran phase 1")

        monkeypatch.setattr(_simplex, "_phase_one", refuse)
        target = pg.make_policy([0.2, 0.3, 0.5])
        assert pg.kkt_verify(pg.construction_one(target), target).feasible
        assert not pg.kkt_verify(pg.ratio_payoff(pg.btl_family(), target), target).feasible

    @pytest.mark.parametrize(
        "spec, feasible", [(pg.btl_family(), False), (pg.degenerate_family(3), True)], ids=["btl", "degenerate"]
    )
    def test_probe_certificate_runs_no_phase_one(self, monkeypatch, spec, feasible):
        # The probe solves one slack-basis LP, which needs no phase 1, and the
        # certificate reuses that solve's column strategy.
        def refuse(a, b):
            raise AssertionError("pm_gap ran phase 1")

        monkeypatch.setattr(_simplex, "_phase_one", refuse)
        target = pg.make_policy([0.2, 0.3, 0.5])
        probe = pg.pm_gap(spec, target)
        assert probe.kkt.feasible is feasible
        assert probe.kkt.u is (probe.nash.col_strategy if feasible else None)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 10),
        sigma=st.floats(0.25, 2.0),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["btl", "degenerate_n", "degenerate_n+1"]),
        scale=st.floats(-8.0, 8.0),
        shift=st.floats(-10.0, 10.0),
    )
    def test_verdict_survives_affine_maps_and_matches_the_probe(self, n, sigma, seed, family, scale, shift):
        target = pg.pm_policy(pg.make_btl(np.random.default_rng(seed).normal(0.0, sigma, size=n)))
        spec = {
            "btl": pg.btl_family(),
            "degenerate_n": pg.degenerate_family(n),
            "degenerate_n+1": pg.degenerate_family(n + 1),
        }[family]
        pay = pg.ratio_payoff(spec, target)
        cert = pg.kkt_verify(pay, target)
        a = 10.0**scale
        assert pg.kkt_verify(pg.make_payoff(a * pay.a + a * shift), target).feasible == cert.feasible
        # Both solve the game with solver._solve_dantzig, so they agree field for field.
        assert pg.pm_gap(spec, target).kkt.to_dict() == cert.to_dict()

    @pytest.mark.parametrize("feasible", [True, False])
    def test_debug_line_reports_every_verdict(self, caplog, feasible):
        target = pg.make_policy([0.2, 0.3, 0.5])
        pay = pg.construction_one(target) if feasible else pg.ratio_payoff(pg.btl_family(), target)
        with caplog.at_level(logging.DEBUG, logger="prefgame"):
            cert = pg.kkt_verify(pay, target)
        assert cert.feasible is feasible
        messages = [r.getMessage() for r in caplog.records]
        lines = [m for m in messages if m.startswith("kkt ")]
        assert len(lines) == 1
        verdict = "feasible" if feasible else "infeasible"
        assert lines[0].startswith(f"kkt {verdict}: n=3 t={cert.t:.12g} gap=")
        assert " span=" in lines[0]
        # The certificate's one certified solve logs its own line with the same pivots.
        solves = [m for m in messages if m.startswith("maximin solved:")]
        assert len(solves) == 1 and solves[0].startswith("maximin solved: n=3 lps=1 ")
        pivots = int(solves[0].rsplit(" iterations=", 1)[1])
        assert lines[0].endswith(f" pivots={pivots}")

    def test_probe_logs_one_solve_and_one_verdict(self, caplog):
        target = pg.make_policy([0.2, 0.3, 0.5])
        with caplog.at_level(logging.DEBUG, logger="prefgame"):
            probe = pg.pm_gap(pg.btl_family(), target)
        messages = [r.getMessage() for r in caplog.records]
        solves = [m for m in messages if m.startswith("maximin solved:")]
        verdicts = [m for m in messages if m.startswith("kkt ")]
        assert len(solves) == 1 and len(verdicts) == 1
        assert solves[0].startswith("maximin solved: n=3 lps=1 ")
        pivots = probe.nash.solver_iterations
        assert solves[0].endswith(f" iterations={pivots}")
        assert verdicts[0].endswith(f" pivots={pivots}")

    def test_inaccurate_solve_is_an_error_not_an_infeasible_verdict(self, monkeypatch):
        # Weak duality proves a target not maximin only from an optimal u.
        # A solve whose column weights are off must raise, not report the
        # certified construction_one target as unmatchable.
        exact = solver.slack_basis_lp

        def inaccurate(a):
            result, work, basis = exact(a)
            n = a.shape[1]
            result.x = np.r_[np.eye(n)[0], result.x[n:]]
            return result, work, basis

        monkeypatch.setattr(solver, "slack_basis_lp", inaccurate)
        target = pg.make_policy([0.2, 0.3, 0.5])
        with pytest.raises(pg.SolverError, match=r"^exploitability \S+ exceeds 1e-09 x payoff span"):
            pg.kkt_verify(pg.construction_one(target), target)
        with pytest.raises(pg.SolverError, match=r"^exploitability \S+ exceeds 1e-09 x payoff span"):
            pg.pm_gap(pg.degenerate_family(3), target)

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
        probe = pg.pm_gap(spec, pg.make_policy(np.full(3, 1.0 / 3)))
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

    @staticmethod
    def sweep_target(k):
        # Rewards N(0, σ) from SeedSequence([7, k]), σ = 1 + k mod 4, at n = 2 + (k div 4) mod 23.
        n = 2 + (k // 4) % 23
        rng = np.random.default_rng(np.random.SeedSequence([7, k]))
        return n, pg.pm_policy(pg.make_btl(rng.normal(0.0, 1 + k % 4, size=n)))

    # On these targets solve_maximin's phase 1 raises "phase-1 subproblem
    # cannot be unbounded"; the probe's slack-basis LP has no phase 1.
    def test_probe_solves_degenerate_family_at_its_own_size(self):
        n, target = self.sweep_target(15)
        assert n == 5
        probe = pg.pm_gap(pg.degenerate_family(n), target)
        span = float(np.ptp(pg.ratio_payoff(pg.degenerate_family(n), target).a))
        assert probe.nash.value == pytest.approx(n - 1, abs=1e-9 * span)

    def test_probe_solves_btl_family_at_a_wide_target(self):
        n, target = self.sweep_target(127)
        assert n == 10
        probe = pg.pm_gap(pg.btl_family(), target)
        assert probe.nash.value == pytest.approx(0.5, abs=1e-9)
        assert probe.nash.row_strategy.w[np.argmax(target.w)] == pytest.approx(1.0, abs=1e-9)
        assert not probe.kkt.feasible

    def test_probe_solves_mismatched_degenerate_family(self):
        n, target = self.sweep_target(318)
        assert n == 12
        spec = pg.degenerate_family(n + 1)
        pay = pg.ratio_payoff(spec, target)
        probe = pg.pm_gap(spec, target)
        gap = pg.best_response_gap(pay, probe.nash.row_strategy, probe.nash.col_strategy)
        assert gap <= 1e-9 * float(np.ptp(pay.a))
        assert probe.kkt.feasible == pg.kkt_verify(pay, target).feasible

    def test_nonfinite_ratio_values_raise(self):
        spec = pg.RatioPayoffSpec(f=lambda x: np.log(x - 10.0), diagonal_c=0.0)
        with np.errstate(invalid="ignore"), pytest.raises(pg.MappingError):
            pg.ratio_payoff(spec, pg.make_policy(np.full(3, 1.0 / 3)))
