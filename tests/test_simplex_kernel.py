"""The simplex kernel against the separate-array reference loop, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import prefgame as pg
import reference_simplex
from prefgame._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, solve_standard_lp
from prefgame.solver import _maximin_program

# Small integers make degenerate and tied pivots common; bounded floats keep
# every tableau finite.
ENTRY = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
NONNEGATIVE = st.one_of(st.integers(0, 2).map(float), st.floats(0.0, 3.0))


def _solve(solve, c, a, b):
    try:
        return solve(c, a, b)
    except pg.SolverError as exc:
        return str(exc)


def assert_same(cs, a, b):
    """Both loops give the same result for each objective, or fail with the same message.

    Returns one result per objective: the ``LPResult``, or the shared
    ``SolverError`` message.
    """
    results = []
    for c in cs:
        got = _solve(solve_standard_lp, c, a, b)
        want = _solve(reference_simplex.solve_standard_lp, c, a, b)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert got.status == want.status
            assert got.x.tobytes() == want.x.tobytes()
            assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
            assert got.iterations == want.iterations
        results.append(got)
    return results


@st.composite
def matrices(draw, max_m=6, max_n=9):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    return draw(arrays(np.float64, (m, n), elements=ENTRY))


@st.composite
def objectives(draw, n):
    return draw(st.lists(arrays(np.float64, n, elements=ENTRY), min_size=1, max_size=3))


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_random_dense_lps(data):
    a = data.draw(matrices())
    b = data.draw(arrays(np.float64, a.shape[0], elements=ENTRY))
    assert_same(data.draw(objectives(a.shape[1])), a, b)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_feasible_lps_with_mixed_objectives(data):
    # b = A x0 with x0 >= 0 is feasible, so each objective ends optimal or
    # unbounded on its own phase 2.
    a = data.draw(matrices())
    x0 = data.draw(arrays(np.float64, a.shape[1], elements=NONNEGATIVE))
    assert_same(data.draw(objectives(a.shape[1])), a, a @ x0)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_degenerate_maximin_lps(data):
    # Zero right-hand sides everywhere but the simplex row, as in the
    # solver's maximin LP, with small-integer games full of ties.
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    game = data.draw(arrays(np.float64, (rows, cols), elements=st.integers(-2, 2).map(float)))
    c, a, b = _maximin_program(game)
    assert_same([c, *data.draw(objectives(c.size))], a, b)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_redundant_rows(data):
    # Appended integer combinations of the rows leave artificials that phase 1
    # cannot drive out, so their rows are dropped.
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 7))
    a = data.draw(arrays(np.float64, (m, n), elements=st.integers(-3, 3).map(float)))
    x0 = data.draw(arrays(np.float64, n, elements=st.integers(0, 2).map(float)))
    mix = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), m), elements=st.integers(-2, 2).map(float)))
    a = np.vstack([a, mix @ a])
    assert_same(data.draw(objectives(n)), a, a @ x0)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_infeasible_lps(data):
    # A row repeated with a different right-hand side.
    a = data.draw(matrices())
    b = data.draw(arrays(np.float64, a.shape[0], elements=ENTRY))
    a = np.vstack([a, a[:1]])
    b = np.append(b, b[0] + data.draw(st.sampled_from([-1.0, 0.5, 2.0])))
    for result in assert_same(data.draw(objectives(a.shape[1])), a, b):
        assert isinstance(result, LPResult), result
        assert result.status == INFEASIBLE


def test_infeasible_lp_after_a_tiny_pivot():
    # Rows 0 and 5 differ only in b.  Phase 1 pivots on the 1e-9 entry, and
    # the round-off in its reduced costs makes it look unbounded; recomputed
    # from the artificial rows, they prove the LP infeasible.
    a = np.zeros((6, 9))
    a[0, [0, 7]] = [1e-9, -1.0]
    a[1, [0, 8]] = [-1.0, 1.0]
    a[3, [6, 7, 8]] = [1.0, 1.0, -1.0]
    a[5] = a[0]
    b = np.array([0.0, -1.0, 0.0, 0.0, 0.0, -1.0])
    (result,) = assert_same([np.zeros(9)], a, b)
    assert isinstance(result, LPResult), result
    assert result.status == INFEASIBLE


def test_infeasible_lp_at_the_pivot_tolerance():
    # The column's reduced cost, -2e-10, lets it enter, but neither entry is
    # above PIVOT_TOL, so phase 1 looks unbounded.  With nothing to pivot on
    # the column cannot improve, and the artificial mass of 0.5 proves the LP
    # infeasible.
    (result,) = assert_same([np.zeros(1)], np.array([[1e-10], [1e-10]]), np.array([0.0, 0.5]))
    assert isinstance(result, LPResult), result
    assert result.status == INFEASIBLE


DRAWN_AT_THE_PIVOT_TOLERANCE = [
    # Rows 0 and 2 differ only in b.  Bland's rule enters column 3, whose
    # entries are exactly PIVOT_TOL, so phase 1 stops as unbounded while
    # column 4 still improves.
    (np.array([[0.0, 0.0, 0.0, 1e-10, 1.0], [0.0] * 5, [0.0, 0.0, 0.0, 1e-10, 1.0]]), np.array([0.0, 0.0, 0.5])),
    # Rows 0 and 2 differ only in b.  After one pivot column 5's entries are
    # -1, PIVOT_TOL and 0, so phase 1 stops as unbounded while column 6
    # still improves, by a pivot of ratio zero.
    (
        np.array(
            [
                [0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0],
                [0.0, 1e-10, 0.0, 0.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0],
            ]
        ),
        np.array([0.0, 0.0, -1.0]),
    ),
]


@pytest.mark.parametrize(("a", "b"), DRAWN_AT_THE_PIVOT_TOLERANCE, ids=["entering-column", "after-a-pivot"])
def test_infeasible_lp_drawn_with_entries_at_the_pivot_tolerance(a, b):
    # test_infeasible_lps drew these LPs.  The stalled column has nothing to
    # pivot on, so it is priced out, and phase 1 resumes from its basis
    # until the artificial mass left proves the LP infeasible.
    (result,) = assert_same([np.zeros(a.shape[1])], a, b)
    assert isinstance(result, LPResult), result
    assert result.status == INFEASIBLE


def test_every_status_in_one_sweep():
    # The kinds of LP above do reach every status, including different
    # statuses for objectives over the same constraints.
    rng = np.random.default_rng(9)
    statuses, mixed = set(), 0
    for _ in range(300):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = a @ rng.integers(0, 3, size=n) if rng.random() < 0.7 else rng.integers(-3, 4, size=m).astype(float)
        cs = list(rng.integers(-3, 4, size=(3, n)).astype(float))
        found = {r.status for r in assert_same(cs, a, b)}
        statuses |= found
        mixed += len(found) > 1
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert mixed > 0


# The four solve-large games whose solve fails from round-off; the kernel
# must fail them the same way, on each side's LP and in ``solve_maximin``.
NAMED_FAILURES = [
    ("identity", 40, 3, "phase-1 subproblem cannot be unbounded"),
    ("identity", 50, 2, "phase-1 subproblem cannot be unbounded"),
    ("identity", 45, 7, "phase-1 subproblem cannot be unbounded"),
    (
        "piecewise_constant",
        45,
        2,
        "exploitability 2.081325863715483e-05 exceeds 1e-09 x payoff span 2.0; the LP solve lost accuracy",
    ),
]
MAPPINGS = {"identity": pg.identity(), "piecewise_constant": pg.piecewise_constant(-1.0, 0.0, 1.0)}


@pytest.mark.parametrize(("kind", "n", "seed", "message"), NAMED_FAILURES)
def test_named_round_off_failures_keep_their_messages(kind, n, seed, message):
    pref = pg.random_tournament(pg.GeneratorConfig(n=n, seed=seed))
    payoff = pg.apply_mapping(pref, MAPPINGS[kind])
    with pytest.raises(pg.SolverError) as info:
        pg.solve_maximin(payoff)
    assert str(info.value) == message
    for side in (payoff.a, -payoff.a.T):
        c, a, b = _maximin_program(side)
        assert_same([c], a, b)
