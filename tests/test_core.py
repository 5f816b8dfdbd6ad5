"""Validation and construction of the shared value types, and their JSON form."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import prefgame as pg
from prefgame.core import Record
from support_enumeration import total_payoff

RPS = [[0.5, 0.9, 0.1], [0.1, 0.5, 0.9], [0.9, 0.1, 0.5]]


def test_validate_accepts_strict_cycle():
    pref = pg.validate_preferences(RPS)
    assert pref.n == 3
    assert pref.no_tie
    np.testing.assert_array_equal(pref.p, np.asarray(RPS, dtype=float))


def test_validated_matrix_is_read_only():
    pref = pg.validate_preferences(RPS)
    with pytest.raises(ValueError):
        pref.p[0, 1] = 0.3


def test_entries_are_kept_as_given():
    # Accepted matrices must not be renormalized, even when the complement
    # only holds up to tolerance.
    raw = [[0.5, 0.6200000001], [0.38, 0.5]]
    pref = pg.validate_preferences(raw)
    assert pref.p[0, 1] == 0.6200000001
    assert pref.p[1, 0] == 0.38


def test_tie_flag():
    tied = [[0.5, 0.5], [0.5, 0.5]]
    assert pg.validate_preferences(tied).no_tie is False
    strict = [[0.5, 0.7], [0.3, 0.5]]
    assert pg.validate_preferences(strict).no_tie is True


def test_single_alternative():
    pref = pg.validate_preferences([[0.5]])
    assert pref.n == 1
    assert pref.no_tie


@pytest.mark.parametrize(
    "raw",
    [
        [[0.5, 0.6]],
        [[0.5, 1.2], [-0.2, 0.5]],
        [[0.5, 0.7], [0.2, 0.5]],
        [[0.6, 0.7], [0.3, 0.4]],
        [[0.5, float("nan")], [0.5, 0.5]],
        [],
    ],
)
def test_validate_rejects_malformed(raw):
    with pytest.raises(pg.ValidationError):
        pg.validate_preferences(raw)


def test_complement_tolerance_boundary():
    ok = [[0.5, 0.7 + 5e-10], [0.3, 0.5]]
    pg.validate_preferences(ok)
    bad = [[0.5, 0.7 + 5e-9], [0.3, 0.5]]
    with pytest.raises(pg.ValidationError):
        pg.validate_preferences(bad)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 4),
    d=arrays(np.float64, (4, 4), elements=st.floats(-1e-8, 1e-8)),
    same_side=arrays(np.bool_, (4, 4)),
    distance=arrays(np.float64, (4, 4), elements=st.floats(0.0, 1e-8)),
    slack=arrays(np.float64, (4, 4), elements=st.floats(-2e-9, 2e-9)),
)
def test_no_tie_means_an_antisymmetric_majority(n, d, same_side, distance, slack):
    # Every entry lies within 1e-8 of 1/2, where the complement and tie
    # tolerances meet.  p[i, j] = 1/2 + d; p[j, i] lies on the same side of
    # 1/2 at the drawn distance, or misses 1 - p[i, j] by the slack.
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    d = d[:n, :n]
    e = np.where(same_side[:n, :n], np.sign(d) * distance[:n, :n], np.clip(slack[:n, :n] - d, -1e-8, 1e-8))
    p = 0.5 + np.where(upper, d, 0.0) + np.where(upper, e, 0.0).T
    try:
        pref = pg.validate_preferences(p)
    except pg.ValidationError:
        return
    if pref.no_tie:
        beats = pref.p > 0.5
        off = ~np.eye(n, dtype=bool)
        assert np.all((beats != beats.T)[off])


def test_exception_hierarchy():
    assert issubclass(pg.ValidationError, pg.PrefGameError)
    assert issubclass(pg.ValidationError, ValueError)
    assert issubclass(pg.MappingError, pg.PrefGameError)
    assert issubclass(pg.SolverError, RuntimeError)
    assert issubclass(pg.TieError, pg.PrefGameError)
    assert issubclass(pg.GenerationError, pg.PrefGameError)


class TestPolicy:
    def test_uniform_and_delta(self):
        u = pg.make_policy(np.full(4, 0.25))
        np.testing.assert_allclose(u.w, 0.25)
        d = pg.make_policy(np.eye(4)[2])
        np.testing.assert_array_equal(d.w, [0.0, 0.0, 1.0, 0.0])
        assert d.support() == [2]

    def test_negative_snap(self):
        # Tiny negatives from float arithmetic snap to zero.
        p = pg.make_policy([1.0 + 5e-10, -5e-10])
        assert p.w[1] == 0.0
        assert p.w.min() >= 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(pg.ValidationError):
            pg.make_policy([1.001, -0.001])

    def test_rejects_bad_mass(self):
        with pytest.raises(pg.ValidationError):
            pg.make_policy([0.6, 0.3])

    def test_support_threshold(self):
        p = pg.make_policy([0.5, 0.5 - 1e-8, 1e-8])
        assert p.support() == [0, 1]
        # The threshold is the fixed 1e-7: mass just above it counts.
        assert pg.make_policy([0.5, 0.5 - 2e-7, 2e-7]).support() == [0, 1, 2]

    def test_read_only(self):
        p = pg.make_policy(np.full(3, 1.0 / 3))
        with pytest.raises(ValueError):
            p.w[0] = 0.9


def test_make_payoff_rejects_nonfinite():
    with pytest.raises(pg.ValidationError):
        pg.make_payoff([[0.0, np.inf], [0.0, 0.0]])
    with pytest.raises(pg.ValidationError):
        pg.make_payoff([[0.0, 1.0, 2.0]])


def test_boolean_array_is_not_a_payoff():
    # A boolean array is refused by its dtype; nested lists are checked in the CLI tests.
    with pytest.raises(pg.ValidationError, match="not booleans"):
        pg.make_payoff(np.eye(2, dtype=bool))


@pytest.mark.parametrize("dtype", ["U", "S"])
def test_string_array_is_not_a_payoff(dtype):
    # numpy would parse each string as the number it spells.
    with pytest.raises(pg.ValidationError, match="not booleans or strings"):
        pg.make_payoff(np.array([["0", "1"], ["-1", "0"]], dtype=dtype))


# numpy reads every one of these as numbers: an object array by its entries,
# which it passes to float, so "1" is 1.0 and True is 1.0.
NOT_NUMBERS = [
    np.array([["0", "1"], ["1", "0"]], dtype=object),
    np.array([[b"0", 1.0], [0.0, 0.5]], dtype=object),
    np.array([[True, 1.0], [0.0, False]], dtype=object),
    np.array([[np.bool_(True), 1.0], [0.0, 0.5]], dtype=object),
    [np.array([0.5, "1"], dtype=object), [0.0, 0.5]],
    np.array([["0", "1"], ["1", "0"]], dtype="U"),
    np.array([["0", "1"], ["1", "0"]], dtype="S"),
    np.eye(2, dtype=bool),
]
NOT_NUMBER_IDS = ["O-str", "O-bytes", "O-bool", "O-numpy-bool", "nested-O-str", "U", "S", "b"]


@pytest.mark.parametrize("raw", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize(
    "reader, what, vector",
    [
        (pg.validate_preferences, "preference matrix", False),
        (pg.make_payoff, "payoff matrix", False),
        (pg.make_policy, "policy", True),
        (pg.make_btl, "rewards", True),
    ],
)
def test_booleans_and_strings_at_any_depth_are_not_numbers(reader, what, vector, raw):
    with pytest.raises(pg.ValidationError) as info:
        reader(raw[0] if vector else raw)
    assert str(info.value) == f"{what} must be an array of numbers, not booleans or strings"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entry_is_named(bad):
    with pytest.raises(pg.ValidationError, match=f"^policy must be finite, got {bad}$"):
        pg.make_policy([0.5, bad])


def test_policy_mass_beyond_the_float_range_is_not_one():
    # Each entry is finite; their sum is not, and must not warn on the way.
    with pytest.raises(pg.ValidationError, match="^policy mass inf is not 1$"):
        pg.make_policy([1e308, 0.1, 1e308, 2.0])


def test_apply_mapping_entrywise():
    pref = pg.validate_preferences(RPS)
    pay = pg.apply_mapping(pref, pg.identity())
    np.testing.assert_array_equal(pay.a, pref.p)


def test_apply_mapping_diagonal_uses_exact_midpoint():
    pref = pg.validate_preferences(RPS)
    pay = pg.apply_mapping(pref, pg.affine(2.0, 1.0))
    np.testing.assert_array_equal(np.diag(pay.a), [2.0, 2.0, 2.0])
    assert pay.a[0, 1] == 2.0 * 0.9 + 1.0


def test_apply_mapping_log_odds_antisymmetry():
    pref = pg.validate_preferences(RPS)
    pay = pg.apply_mapping(pref, pg.log_odds())
    assert np.abs(pay.a + pay.a.T).max() <= 1e-12


def test_apply_mapping_nonfinite_result_raises():
    pref = pg.validate_preferences([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(pg.MappingError):
        pg.apply_mapping(pref, pg.log_odds(clamp_epsilon=0.0))


def test_total_payoff_known_value():
    pay = pg.make_payoff([[1.0, 2.0], [3.0, 4.0]])
    x = pg.make_policy([0.25, 0.75])
    y = pg.make_policy([0.5, 0.5])
    assert total_payoff(pay, x, y) == pytest.approx(0.25 * 1.5 + 0.75 * 3.5)


@pytest.mark.parametrize(
    "name, message",
    [
        ("total_payoff", "dimension mismatch: payoff n=3, policies n=3 and n=2"),
        ("best_response_gap", "dimension mismatch: payoff n=3, policies n=3 and n=2"),
        ("uniqueness_report", "dimension mismatch: payoff n=3, report n=2 and n=2"),
        ("kkt_verify", "dimension mismatch: payoff n=3, target n=2"),
    ],
)
def test_dimension_mismatch_messages(name, message):
    three, two = pg.make_policy(np.full(3, 1.0 / 3)), pg.make_policy(np.full(2, 0.5))
    args = {
        "total_payoff": (three, two),
        "best_response_gap": (three, two),
        "uniqueness_report": (pg.solve_maximin(pg.make_payoff(np.eye(2))),),
        "kkt_verify": (two,),
    }[name]
    with pytest.raises(pg.ValidationError) as info:
        (total_payoff if name == "total_payoff" else getattr(pg, name))(pg.make_payoff(np.eye(3)), *args)
    assert str(info.value) == message


@settings(deadline=None)
@given(
    a=arrays(np.float64, (3, 3), elements=st.floats(-10.0, 10.0)),
    u=arrays(np.float64, (3,), elements=st.floats(0.1, 10.0)),
    v=arrays(np.float64, (3,), elements=st.floats(0.1, 10.0)),
    y=arrays(np.float64, (3,), elements=st.floats(0.1, 10.0)),
    alpha=st.floats(0.0, 1.0),
)
def test_total_payoff_bilinear(a, u, v, y, alpha):
    pay = pg.make_payoff(a)
    pu = pg.make_policy(u / u.sum())
    pv = pg.make_policy(v / v.sum())
    py = pg.make_policy(y / y.sum())
    mix = pg.make_policy(alpha * pu.w + (1.0 - alpha) * pv.w)
    left = total_payoff(pay, mix, py)
    right = alpha * total_payoff(pay, pu, py) + (1.0 - alpha) * total_payoff(pay, pv, py)
    assert left == pytest.approx(right, abs=1e-9)


PREF = pg.validate_preferences(RPS)
PAYOFF = pg.apply_mapping(PREF, pg.identity())
NASH = pg.solve_maximin(PAYOFF)
TARGET = pg.make_policy([0.2, 0.3, 0.5])

CONSTANT = pg.make_payoff(np.full((3, 3), 0.5))

# One report per ``Record`` class; the uniqueness report on a vertex face and
# on a wider one, and the KKT certificate with and without ``u``.
RECORDS = {
    "payoff": lambda: PAYOFF,
    "policy": lambda: NASH.row_strategy,
    "nash": lambda: NASH,
    "uniqueness": lambda: pg.uniqueness_report(PAYOFF, NASH),
    "uniqueness-face": lambda: pg.uniqueness_report(CONSTANT, pg.solve_maximin(CONSTANT)),
    "btl": lambda: pg.make_btl([1.0, 0.3, 0.0]),
    "kkt-feasible": lambda: pg.kkt_verify(pg.construction_one(TARGET), TARGET),
    "kkt-infeasible": lambda: pg.pm_gap(pg.btl_family(), pg.make_policy([0.6, 0.3, 0.1])).kkt,
    "decomposition": lambda: pg.smith_decomposition(PREF),
    "verdict": lambda: pg.consistency_verdict(PREF, NASH),
    "conditions": lambda: pg.check_conditions(pg.power(2.0)),
    "monte-carlo": lambda: pg.monte_carlo(pg.identity(), trials=2, seed=1),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_records_cover_every_record_class():
    assert {type(build()) for build in RECORDS.values()} == set(_subclasses(Record))


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_record_json_lists_the_dataclass_fields_in_order(build):
    record = build()
    out = record.to_dict()
    assert list(out) == [f.name for f in fields(record)]
    json.dumps(out)


def test_record_json_is_a_copy():
    summary = pg.monte_carlo(pg.symmetric_extension(pg.piecewise_linear([(0.0, -1.0), (0.5, 0.0)])), trials=1)
    out = summary.to_dict()
    out["psi"]["base"]["points"][0][1] = 7.0
    assert summary.psi["base"]["points"][0][1] == -1.0
