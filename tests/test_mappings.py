"""Mapping evaluation, the midpoint shape conditions, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefgame as pg
from grid_oracle import grid_verdicts
from test_acceptance import BUMPY_BASE
from prefgame import mappings
from prefgame.mappings import eval_mapping, eval_mapping_array, mapping_from_dict, mapping_to_dict

# A spike above the midpoint value, and a dip of f(t) + f(1-t) under twice
# it, each narrower than the 1e-4 spacing of a dense grid.
SPIKE = [(0.0, -1.0), (0.10002, -1.0), (0.10003, 5.0), (0.10004, -1.0), (0.5, 0.0), (1.0, 1.0)]
DIP = [(0.0, 0.0), (0.5, 0.5), (0.70002, 0.70002), (0.70003, 0.69), (0.70004, 0.70004), (1.0, 1.0)]


def test_identity_values():
    spec = pg.identity()
    ts = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(eval_mapping_array(spec, ts), ts)
    np.testing.assert_array_equal(eval_mapping_array(pg.identity(0.25), ts), np.clip(ts, 0.25, 0.75))


def test_affine_values():
    spec = pg.affine(2.0, 1.0)
    assert eval_mapping(spec, 0.3) == pytest.approx(1.6)
    assert eval_mapping(spec, 0.5) == 2.0


def test_power_values():
    assert eval_mapping(pg.power(2.0), 0.7) == pytest.approx(0.49)
    assert eval_mapping(pg.power(0.5), 0.25) == pytest.approx(0.5)


def test_piecewise_linear_interpolates_and_extends():
    spec = pg.piecewise_linear([(0.0, 0.0), (0.6, 1.2)])
    assert eval_mapping(spec, 0.3) == pytest.approx(0.6)
    # Past the last knot the value holds constant.
    assert eval_mapping(spec, 0.9) == pytest.approx(1.2)


def test_piecewise_constant_zones():
    spec = pg.piecewise_constant(-1.0, 0.0, 1.0)
    assert eval_mapping(spec, 0.49999) == -1.0
    assert eval_mapping(spec, 0.5) == 0.0
    assert eval_mapping(spec, 0.50001) == 1.0


def test_log_odds_clamp():
    spec = pg.log_odds()
    assert eval_mapping(spec, 0.0) == pytest.approx(np.log(1e-9))
    assert eval_mapping(spec, 1.0) == pytest.approx(-np.log(1e-9))
    assert eval_mapping(spec, 0.3) == pytest.approx(np.log(0.3) - np.log(0.7))


def test_log_odds_midpoint_is_zero():
    assert eval_mapping(pg.log_odds(), 0.5) == 0.0


@pytest.mark.parametrize(
    "factory",
    [
        lambda: pg.power(float("nan")),
        lambda: pg.affine(float("inf"), 1.0),
        lambda: pg.piecewise_linear([(0.1, 0.0), (0.6, 1.0)]),
        lambda: pg.piecewise_linear([(0.0, 0.0), (0.0, 1.0), (0.6, 2.0)]),
        lambda: pg.piecewise_linear([(0.0, 0.0), (0.4, 1.0)]),
        lambda: pg.piecewise_linear([]),
        lambda: pg.piecewise_constant(float("nan"), 0.0, 1.0),
        lambda: pg.log_odds(-1e-3),
        lambda: pg.log_odds(0.7),
        lambda: mapping_from_dict({"kind": "identity", "clamp_epsilon": 0.9}),
        lambda: mapping_from_dict({"kind": "power", "k": "x"}),
        lambda: mapping_from_dict({"kind": "piecewise_linear", "points": [[0.0, "x"], [1.0, 1.0]]}),
        lambda: mapping_from_dict(
            {"kind": "piecewise_constant", "m_minus": -1, "mid": 0, "m_plus": 1, "clamp_epsilon": 0.9}
        ),
        lambda: mapping_from_dict(
            {"kind": "symmetric_extension", "base": {"kind": "identity"}, "clamp_epsilon": 1e-6}
        ),
    ],
)
def test_factory_rejects_malformed(factory):
    with pytest.raises(pg.MappingError):
        factory()


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "piecewise_constant", "m_minus": -1, "mid": 0, "m_plus": 1},
        {"kind": "symmetric_extension", "base": {"kind": "identity"}},
    ],
)
def test_clamp_epsilon_only_where_there_is_a_clamp(data):
    assert mapping_from_dict({**data, "clamp_epsilon": 0}) == mapping_from_dict(data)
    with pytest.raises(pg.MappingError, match=f"kind '{data['kind']}' has no clamp"):
        mapping_from_dict({**data, "clamp_epsilon": 0.1})


def test_shape_judgment_is_not_the_factory_job():
    # Decreasing or flat maps construct fine; the condition checker is what
    # rejects their shape.
    flat = pg.power(0.0)
    falling = pg.affine(-2.0, 0.0)
    assert not pg.check_conditions(flat).condorcet_ok
    assert not pg.check_conditions(falling).condorcet_ok


def test_out_of_domain_raises():
    with pytest.raises(pg.MappingError):
        eval_mapping(pg.identity(), -0.2)
    with pytest.raises(pg.MappingError):
        eval_mapping(pg.identity(), 1.0 + 1e-6)
    # A sub-tolerance overshoot clips instead of raising.
    assert eval_mapping(pg.identity(), 1.0 + 1e-13) == 1.0


def test_scalar_nonfinite_raises():
    with pytest.raises(pg.MappingError):
        eval_mapping(pg.log_odds(clamp_epsilon=0.0), 0.0)


class TestSymmetricExtension:
    def test_pinned_value(self):
        ext = pg.symmetric_extension(pg.power(2.0))
        assert eval_mapping(ext, 0.75) == pytest.approx(0.4375)

    def test_matches_base_below_midpoint(self):
        base = pg.power(2.0)
        ext = pg.symmetric_extension(base)
        ts = np.linspace(0.0, 0.5, 101)
        np.testing.assert_allclose(eval_mapping_array(ext, ts), eval_mapping_array(base, ts))

    def test_exact_antisymmetry_about_midpoint(self):
        ext = pg.symmetric_extension(pg.power(2.0))
        ts = np.linspace(0.0, 1.0, 2001)
        vals = eval_mapping_array(ext, ts)
        mirrored = eval_mapping_array(ext, 1.0 - ts)
        mid = eval_mapping(ext, 0.5)
        assert np.abs(vals + mirrored - 2.0 * mid).max() <= 1e-14

    def test_extension_of_identity_is_identity(self):
        ext = pg.symmetric_extension(pg.identity())
        ts = np.linspace(0.0, 1.0, 501)
        np.testing.assert_allclose(eval_mapping_array(ext, ts), ts, atol=1e-15)

    def test_rejects_base_not_below_midpoint(self):
        flat = pg.piecewise_linear([(0.0, 0.4), (0.5, 0.4)])
        with pytest.raises(pg.MappingError):
            pg.symmetric_extension(flat)

    def test_rejects_spike_between_dense_grid_points(self):
        with pytest.raises(pg.MappingError, match=r"base\(0.10003\) = 5.0"):
            pg.symmetric_extension(pg.piecewise_linear(SPIKE[:-1]))

    def test_half_domain_base_is_accepted(self):
        base = pg.piecewise_linear([(0.0, -1.0), (0.5, 0.25)])
        ext = pg.symmetric_extension(base)
        assert eval_mapping(ext, 1.0) == pytest.approx(1.5)


def multi_pass_array(spec, t):
    """``eval_mapping_array`` with a symmetric extension evaluating its base three times."""
    if spec.kind != "symmetric_extension":
        return eval_mapping_array(spec, t)
    ts = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    lower = multi_pass_array(spec.base, np.minimum(ts, 0.5))
    upper = 2.0 * multi_pass_array(spec.base, 0.5) - multi_pass_array(spec.base, np.minimum(1.0 - ts, 0.5))
    return np.where(ts <= 0.5, lower, upper)


def multi_pass_payoff(pref, spec):
    """``apply_mapping`` as one pass over the entries and a separate scalar midpoint."""
    a = multi_pass_array(spec, pref.p)
    mid = float(multi_pass_array(spec, 0.5))
    if not np.isfinite(mid):
        raise pg.MappingError(f"mapping {spec.kind} is not finite at t=0.5")
    np.fill_diagonal(a, mid)
    return a


ONE_PASS_GRID = np.unique(np.r_[
    np.linspace(0.0, 1.0, 41),
    [1e-12, 1e-3, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 1e-9],
])
BUMPY = pg.symmetric_extension(pg.piecewise_linear(BUMPY_BASE))
# One mapping of every kind, symmetric extensions of several kinds and of
# an extension, and clamps that cut into the grid.
ONE_PASS_MAPPINGS = {
    "identity": pg.identity(),
    "identity-clamped": pg.identity(0.1),
    "log_odds": pg.log_odds(),
    "log_odds-clamped": pg.log_odds(0.05),
    "affine": pg.affine(-3.0, 2.5),
    "power": pg.power(0.5),
    "power-clamped": pg.power(-1.0, clamp_epsilon=1e-3),
    "piecewise_linear": pg.piecewise_linear([(i / 40, np.sin(7.0 * i / 40)) for i in range(41)]),
    "piecewise_constant": pg.piecewise_constant(-1.0, 0.0, 1.0),
    "extension-of-table": BUMPY,
    "extension-of-log_odds": pg.symmetric_extension(pg.log_odds()),
    "extension-of-power": pg.symmetric_extension(pg.power(2.0)),
    "extension-of-extension": pg.symmetric_extension(BUMPY),
}


def grid_preferences():
    """A preference matrix whose entries above the diagonal are ONE_PASS_GRID."""
    k = 1
    while k * (k - 1) // 2 < ONE_PASS_GRID.size:
        k += 1
    p = np.full((k, k), 0.5)
    rows, cols = np.triu_indices(k, 1)
    upper = np.resize(ONE_PASS_GRID, rows.size)
    p[rows, cols] = upper
    p[cols, rows] = 1.0 - upper
    return pg.validate_preferences(p)


class TestOnePassEvaluation:
    @pytest.mark.parametrize("spec", ONE_PASS_MAPPINGS.values(), ids=ONE_PASS_MAPPINGS)
    def test_array_evaluation_matches_the_multi_pass_form(self, spec):
        for t in (ONE_PASS_GRID, ONE_PASS_GRID.reshape(-1, 1), ONE_PASS_GRID[::-1].copy()):
            assert eval_mapping_array(spec, t).tobytes() == multi_pass_array(spec, t).tobytes()
        for t in ONE_PASS_GRID:
            single = eval_mapping_array(spec, np.asarray(t))
            assert single.shape == ()
            assert single.tobytes() == multi_pass_array(spec, np.asarray(t)).tobytes()

    @pytest.mark.parametrize("spec", ONE_PASS_MAPPINGS.values(), ids=ONE_PASS_MAPPINGS)
    def test_payoff_matches_the_multi_pass_form(self, spec):
        pref = grid_preferences()
        assert pg.apply_mapping(pref, spec).a.tobytes() == multi_pass_payoff(pref, spec).tobytes()

    def test_non_finite_midpoint_keeps_its_message(self):
        spec = mappings.MappingSpec(kind="piecewise_constant", m_minus=-1.0, mid=np.inf, m_plus=1.0)
        with pytest.raises(pg.MappingError) as info:
            pg.apply_mapping(grid_preferences(), spec)
        assert str(info.value) == "mapping piecewise_constant is not finite at t=0.5"


class TestConditions:
    def test_identity_passes_all(self):
        report = pg.check_conditions(pg.identity())
        assert report.condorcet_ok and report.mixed_ok and report.smith_ok
        assert report.witnesses == ()

    def test_log_odds_passes_all(self):
        report = pg.check_conditions(pg.log_odds())
        assert report.condorcet_ok and report.mixed_ok and report.smith_ok

    def test_affine_passes_all(self):
        report = pg.check_conditions(pg.affine(2.0, 1.0))
        assert report.condorcet_ok and report.mixed_ok and report.smith_ok

    def test_step_passes_all(self):
        report = pg.check_conditions(pg.piecewise_constant(-1.0, 0.0, 1.0))
        assert report.condorcet_ok and report.mixed_ok and report.smith_ok
        assert report.jump_below == pytest.approx(1.0)
        assert report.jump_above == pytest.approx(1.0)

    def test_square_fails_only_the_exact_symmetry(self):
        report = pg.check_conditions(pg.power(2.0))
        assert report.condorcet_ok
        assert report.mixed_ok
        assert not report.smith_ok
        assert len(report.witnesses) == 1
        t_bad, reason = report.witnesses[0]
        assert t_bad == pytest.approx(0.0)
        assert "0.5" in reason

    def test_flipped_step_fails_everything(self):
        report = pg.check_conditions(pg.piecewise_constant(1.0, 0.0, 0.0))
        assert not report.condorcet_ok
        assert not report.mixed_ok
        assert not report.smith_ok
        assert report.witnesses

    def test_decreasing_map_fails_everything(self):
        spec = pg.piecewise_linear([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        report = pg.check_conditions(spec)
        assert not report.condorcet_ok
        assert not report.mixed_ok
        assert not report.smith_ok

    def test_symmetric_extension_takes_its_base_points_up_to_the_midpoint(self):
        base = pg.piecewise_linear([(0.0, -1.0), (0.2, -0.3), (0.3, -0.6), (0.5, 0.0)])
        points = mappings._critical_points(pg.symmetric_extension(base))
        assert points.tolist() == [0.0, 0.2, 0.3, 0.5, 0.7, 0.8, 1.0]

    def test_bumpy_extension_passes_all(self):
        report = pg.check_conditions(pg.symmetric_extension(pg.piecewise_linear(BUMPY_BASE)))
        assert report.condorcet_ok and report.mixed_ok and report.smith_ok
        assert report.witnesses == ()

    def test_jumps_are_taken_next_to_the_midpoint(self):
        step = pg.check_conditions(pg.piecewise_constant(-1.0, 0.0, 1.0))
        assert (step.jump_below, step.jump_above) == (1.0, 1.0)
        smooth = pg.check_conditions(pg.identity())
        assert smooth.jump_below <= 1e-15 and smooth.jump_above <= 1e-15

    def test_report_dict_shape(self):
        d = pg.check_conditions(pg.identity()).to_dict()
        assert list(d) == ["condorcet_ok", "mixed_ok", "smith_ok", "witnesses", "jump_below", "jump_above"]

    def test_spike_between_grid_points_fails_condorcet(self):
        report = pg.check_conditions(pg.piecewise_linear(SPIKE))
        assert not report.condorcet_ok
        assert report.witnesses[0] == (0.10003, "value 5 is not strictly below the midpoint value 0")

    def test_dip_between_grid_points_fails_mixed_and_smith(self):
        report = pg.check_conditions(pg.piecewise_linear(DIP))
        assert report.condorcet_ok
        assert not report.mixed_ok
        assert not report.smith_ok
        t_bad, reason = report.witnesses[0]
        assert t_bad == pytest.approx(0.29997)
        assert "falls 0.01003 short" in reason

    def test_a_dense_grid_misses_both(self):
        assert grid_verdicts(pg.piecewise_linear(SPIKE))[0]
        assert grid_verdicts(pg.piecewise_linear(DIP)) == (True, True, True)

    def test_values_near_the_float_range_do_not_overflow(self):
        # vals + mirrored - 2 * mid overflowed here, with numpy warnings, and
        # inf - inf = nan made the symmetry verdicts compare nan.
        flipped = pg.check_conditions(
            mapping_from_dict({"kind": "piecewise_constant", "m_minus": 0, "mid": -1e308, "m_plus": 0.500000000001})
        )
        assert (flipped.condorcet_ok, flipped.mixed_ok, flipped.smith_ok) == (False, False, False)
        assert flipped.witnesses == (
            (0.0, "value 0 is not strictly below the midpoint value -1e+308"),
            (0.0, "value plus mirrored value misses twice the midpoint value by inf"),
        )
        # f(0) + f(1) = 2 f(1/2) exactly, although neither side fits a float.
        symmetric = pg.check_conditions(pg.piecewise_constant(-1.7e308, -1e308, -0.3e308))
        assert symmetric.condorcet_ok and symmetric.mixed_ok and symmetric.smith_ok
        assert symmetric.witnesses == ()

    def test_clamped_log_odds_passes_all(self):
        # The clamp end is not a critical point: with it, rounding in
        # 1 - (1 - eps) would push the symmetry error past the allowance.
        report = pg.check_conditions(pg.log_odds(1e-6))
        assert report.condorcet_ok and report.mixed_ok and report.smith_ok


@pytest.mark.parametrize(
    "spec",
    [
        pg.identity(),
        pg.log_odds(),
        pg.log_odds(1e-6),
        pg.affine(3.0, -1.0),
        pg.power(2.5),
        pg.piecewise_linear([(0.0, -4.5), (0.5, 0.5), (1.0, 1.0)]),
        pg.piecewise_constant(-1.0, 0.0, 1.0),
        pg.symmetric_extension(pg.power(2.0)),
    ],
)
def test_serialization_round_trip(spec):
    data = mapping_to_dict(spec)
    parsed = mapping_from_dict(data)
    ts = np.linspace(0.0, 1.0, 257)
    np.testing.assert_array_equal(eval_mapping_array(parsed, ts), eval_mapping_array(spec, ts))


# One dict per kind, with fields in serialization order and float values, so
# that a round trip must reproduce it key for key.
KIND_DICTS = [
    {"kind": "identity"},
    {"kind": "identity", "clamp_epsilon": 0.01},
    {"kind": "log_odds", "clamp_epsilon": 1e-6},
    {"kind": "affine", "a": 3.0, "b": -1.0, "clamp_epsilon": 0.1},
    {"kind": "power", "k": 2.5},
    {"kind": "piecewise_linear", "points": [[0.0, -4.5], [0.5, 0.5], [1.0, 1.0]]},
    {"kind": "piecewise_constant", "m_minus": -1.0, "mid": 0.0, "m_plus": 1.0},
    {"kind": "symmetric_extension", "base": {"kind": "power", "k": 2.0, "clamp_epsilon": 0.001}},
]


@pytest.mark.parametrize("data", KIND_DICTS)
def test_dict_round_trip(data):
    assert json.dumps(mapping_to_dict(mapping_from_dict(data))) == json.dumps(data)


def test_dict_round_trip_covers_every_kind():
    assert {data["kind"] for data in KIND_DICTS} == set(mappings._KINDS)


@pytest.mark.parametrize(
    "data,field",
    [
        ({"kind": "identity", "k": 2}, "k"),
        ({"kind": "affine", "a": 1.0, "b": 0.0, "points": []}, "points"),
        ({"kind": "symmetric_extension", "base": {"kind": "power", "k": 2.0, "mid": 0.0}}, "mid"),
    ],
)
def test_unknown_field_is_named(data, field):
    with pytest.raises(pg.MappingError, match=f"has no field '{field}'"):
        mapping_from_dict(data)


@pytest.mark.parametrize(
    "data,field",
    [
        ({"kind": "power", "k": True}, "'k'"),
        ({"kind": "affine", "a": 1.0, "b": False}, "'b'"),
        ({"kind": "identity", "clamp_epsilon": False}, "'clamp_epsilon'"),
        ({"kind": "piecewise_constant", "m_minus": -1, "mid": 0, "m_plus": 1, "clamp_epsilon": False}, "'clamp_epsilon'"),
        ({"kind": "piecewise_linear", "points": [[0, 0.0], [1, True]]}, "points"),
        ({"kind": "symmetric_extension", "base": {"kind": "power", "k": False}}, "'k'"),
    ],
)
def test_boolean_is_not_a_number(data, field):
    # float(True) is 1.0, so JSON true/false would otherwise parse as 1 and 0.
    with pytest.raises(pg.MappingError, match=field) as info:
        mapping_from_dict(data)
    assert "must be" in str(info.value)


# Good values for each factory's number fields.
NUMBER_FIELDS = {
    "identity": {"clamp_epsilon": 0.0},
    "log_odds": {"clamp_epsilon": 1e-9},
    "affine": {"a": 1.0, "b": 0.0, "clamp_epsilon": 0.0},
    "power": {"k": 2.0, "clamp_epsilon": 0.0},
    "piecewise_constant": {"m_minus": -1.0, "mid": 0.0, "m_plus": 1.0},
}


@pytest.mark.parametrize("bad", ["2", None, True, np.inf], ids=["string", "none", "boolean", "inf"])
@pytest.mark.parametrize("kind, field", [(kind, key) for kind, good in NUMBER_FIELDS.items() for key in good])
def test_factory_field_must_be_a_finite_number(kind, field, bad):
    # float("2") is 2.0 and float(True) is 1.0; a factory reads neither as a number.
    if bad is np.inf:
        message = f"mapping field '{field}' must be finite, got inf"
    else:
        message = f"mapping field '{field}' must be a number, got {bad!r}"
    fields = {**NUMBER_FIELDS[kind], field: bad}
    for build in (lambda: getattr(pg, kind)(**fields), lambda: mapping_from_dict({"kind": kind, **fields})):
        with pytest.raises(pg.MappingError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("bad", ["2", None, True, np.inf], ids=["string", "none", "boolean", "inf"])
def test_piecewise_linear_points_must_be_finite_numbers(bad):
    with pytest.raises(pg.MappingError, match="^mapping field 'points' must be "):
        pg.piecewise_linear([(0.0, 0.0), (0.5, bad), (1.0, 1.0)])


@pytest.mark.parametrize("t", ["0.5", True, None, np.nan])
def test_mapping_argument_must_be_a_finite_number(t):
    with pytest.raises(pg.MappingError, match="^mapping argument must be "):
        eval_mapping(pg.identity(), t)


def test_overflowing_base_is_not_finite_without_a_warning():
    # t**-1e308 overflows on (0, 1/2]; the base is refused, not warned about.
    with pytest.raises(pg.MappingError, match="base mapping is not finite"):
        mapping_from_dict({"kind": "symmetric_extension", "base": {"kind": "power", "k": -1e308, "clamp_epsilon": 0.1}})


def test_log_odds_parse_fills_default_clamp():
    parsed = mapping_from_dict({"kind": "log_odds"})
    assert parsed.clamp_epsilon == 1e-9


def test_unknown_kind_rejected():
    with pytest.raises(pg.MappingError):
        mapping_from_dict({"kind": "cubic_spline"})


# Strictly increasing maps always give the first condition: every value at or
# above 1/2 beats every value strictly below.
KNOT_VALUES = st.lists(st.floats(0.05, 1.0), min_size=3, max_size=6)


@settings(deadline=None, max_examples=40)
@given(increments=KNOT_VALUES, start=st.floats(-2.0, 2.0))
def test_increasing_piecewise_linear_passes_condorcet(increments, start):
    knots_t = np.linspace(0.0, 1.0, len(increments) + 1)
    values = start + np.concatenate([[0.0], np.cumsum(increments)])
    spec = pg.piecewise_linear(list(zip(knots_t, values)))
    report = pg.check_conditions(spec)
    assert report.condorcet_ok


@st.composite
def tables(draw, knot, gap):
    """A ``piecewise_linear`` table on [0, 1] with knots drawn by ``knot``.

    A knot at 1/2 makes f(1/2) a table value rather than a rounded
    interpolation.  Knots closer than ``gap`` to one kept before, to 1/2 or
    to 1 are dropped.  Values start anywhere in [-1/2, 1/2] and move in
    quarter steps, mostly upward, so every verdict turns up.  Half the
    tables are point symmetric: knots and values above 1/2 mirror those
    below, so that f(t) + f(1-t) = 2 f(1/2).
    """
    mirror = draw(st.booleans())
    end = 0.5 if mirror else 1.0
    ts = [0.0]
    for t in sorted(draw(st.sets(knot, max_size=6))):
        if ts[-1] + gap <= t <= end - gap and abs(t - 0.5) >= gap:
            ts.append(t)
    ts = sorted(ts + [0.5] + ([] if mirror else [1.0]))
    steps = draw(st.lists(st.integers(-1, 2), min_size=len(ts) - 1, max_size=len(ts) - 1))
    values = (draw(st.integers(-2, 2)) + np.concatenate([[0], np.cumsum(steps)])) / 4.0
    points = list(zip(ts, values))
    if mirror:
        points += [(1.0 - t, 2.0 * values[-1] - v) for t, v in reversed(points[:-1])]
    return points


@settings(deadline=None, max_examples=300)
@given(points=tables(st.integers(1, 99).map(lambda i: i / 100), gap=0.005))
def test_lattice_tables_agree_with_the_dense_grid(points):
    # Every critical point is a grid point, and f is linear in between.
    spec = pg.piecewise_linear(points)
    report = pg.check_conditions(spec)
    assert (report.condorcet_ok, report.mixed_ok, report.smith_ok) == grid_verdicts(spec)


# Knots anywhere, at least 1.5e-4 apart: slopes stay under about 3,500, so
# the grid's own rounding of 1 - t moves its sums by less than its margin.
# The clamps are fixed: a tiny one puts f(0) a hair under f(1/2), which
# passes the exact strict test and fails the grid's margin.
@settings(deadline=None, max_examples=300)
@given(
    points=tables(st.floats(0.0, 1.0), gap=1.5e-4),
    clamp=st.sampled_from([0.0, 1e-3, 0.05, 0.1234567, 0.3]),
)
def test_a_dense_grid_violation_is_always_found(points, clamp):
    spec = pg.piecewise_linear(points, clamp_epsilon=clamp)
    report = pg.check_conditions(spec)
    exact = (report.condorcet_ok, report.mixed_ok, report.smith_ok)
    for sampled, decided in zip(grid_verdicts(spec), exact):
        assert sampled or not decided
