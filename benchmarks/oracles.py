"""Correctness checks computed apart from ``prefgame``.

Everything here uses numpy only, plus scipy's HiGHS for an optional
cross-check that is skipped when scipy cannot be imported.  The checks
re-derive what the package's outputs must be from first principles:

* exploitability max(A y) - min(x A), relative to the payoff span;
* closed-form game values (1/2 when A + A' = 1, the midpoint value when
  A - f(1/2) is skew-symmetric, t for the certified constructions);
* the top group of a tournament by reachability closure (no Tarjan);
* the odd support of the tournament game's unique equilibrium;
* KKT certificates, logistic preferences and softmax policies.

A failed check raises ``CheckFailed``; the benchmark treats that as a wrong
answer, never as a failed operation.
"""

from __future__ import annotations

import numpy as np

# Tolerances, all relative to the payoff span where a payoff is involved.
EXPLOIT_REL_TOL = 1e-7
VALUE_REL_TOL = 1e-7
HIGHS_REL_TOL = 1e-6
KKT_REL_TOL = 1e-8
ENTRY_TOL = 1e-12
MASS_TOL = 1e-6
SUPPORT_THRESHOLD = 1e-7
STRATEGY_TOL = 1e-6
# Widest coordinate range of a unique optimum; the package's default
# verification tolerance, which ``uniqueness_report`` itself applies.
UNIQUE_WIDTH_TOL = 1e-8

# The symmetric-extension base used by the acceptance tests: a bumpy
# piecewise-linear half table whose midpoint value is 0.4.
BUMPY_POINTS = ((0.0, -1.3), (0.2, -0.9), (0.35, -0.2), (0.5, 0.4), (1.0, 0.4))


class CheckFailed(Exception):
    """An output of the program disagrees with an independent oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def payoff_span(a: np.ndarray) -> float:
    span = float(a.max() - a.min())
    return span if span > 0.0 else 1.0


def exploitability_rel(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max(A y) - min(x A) over the payoff span; zero exactly at equilibrium."""
    return float(np.max(a @ y) - np.min(x @ a)) / payoff_span(a)


# ---------------------------------------------------------------- mappings

def _bumpy_base(t: np.ndarray) -> np.ndarray:
    xs, vs = zip(*BUMPY_POINTS)
    return np.interp(t, xs, vs)


def mapped_payoff(kind: str, p: np.ndarray) -> np.ndarray:
    """The payoff matrix each benchmark mapping must produce from ``p``."""
    p = np.asarray(p, dtype=float)
    if kind == "identity":
        a = p.copy()
    elif kind == "log_odds":
        a = np.log(p / (1.0 - p))
    elif kind == "piecewise_constant":
        a = np.sign(p - 0.5)
    elif kind == "bumpy":
        lower = _bumpy_base(np.minimum(p, 0.5))
        upper = 2.0 * _bumpy_base(0.5) - _bumpy_base(np.minimum(1.0 - p, 0.5))
        a = np.where(p <= 0.5, lower, upper)
    else:
        raise ValueError(f"no oracle for mapping {kind!r}")
    np.fill_diagonal(a, closed_value(kind))
    return a


def closed_value(kind: str) -> float:
    """Game value from symmetry alone: A - v is skew-symmetric for these maps."""
    return {"identity": 0.5, "log_odds": 0.0, "piecewise_constant": 0.0, "bumpy": 0.4}[kind]


# ------------------------------------------------------------- tournaments

def reference_tournament(n: int, seed: int, force_no_winner: bool,
                         low: float = 0.55, high: float = 0.95) -> np.ndarray:
    """The documented draw order of ``random_tournament``, re-implemented.

    For each unordered pair in index order: a uniform strength, then an
    orientation coin; with ``force_no_winner`` the draw repeats on the same
    stream until no response beats all others.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    while True:
        p = np.full((n, n), 0.5)
        for i in range(n):
            for j in range(i + 1, n):
                strength = rng.uniform(low, high)
                if rng.random() < 0.5:
                    p[i, j], p[j, i] = strength, 1.0 - strength
                else:
                    p[j, i], p[i, j] = strength, 1.0 - strength
        if not force_no_winner or condorcet(p > 0.5) is None:
            return p


def reachability(beats: np.ndarray) -> np.ndarray:
    """Transitive closure of the majority digraph by repeated squaring."""
    n = beats.shape[0]
    reach = beats | np.eye(n, dtype=bool)
    while True:
        nxt = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def top_group(beats: np.ndarray) -> list[int]:
    """Candidates that reach every candidate: the top group of a tournament."""
    reach = reachability(beats)
    return [int(i) for i in np.flatnonzero(reach.all(axis=1))]


def condorcet(beats: np.ndarray) -> int | None:
    n = beats.shape[0]
    wins = beats.sum(axis=1)
    hits = np.flatnonzero(wins == n - 1)
    return int(hits[0]) if hits.size else None


# -------------------------------------------------------------- game checks

def check_game(kind: str, p: np.ndarray, a: np.ndarray, x: np.ndarray,
               y: np.ndarray, value: float) -> dict:
    """Check one solved mapped tournament game; return the oracle's facts.

    ``a`` is the program's payoff matrix, ``x``/``y`` its row and column
    strategies and ``value`` its reported value.
    """
    ref = mapped_payoff(kind, p)
    require(a.shape == ref.shape and float(np.max(np.abs(a - ref))) <= ENTRY_TOL * (1.0 + float(np.max(np.abs(ref)))),
            f"{kind}: payoff matrix differs from the mapping applied entrywise")
    for name, s in (("row", x), ("column", y)):
        require(bool(np.all(s >= 0.0)) and abs(float(s.sum()) - 1.0) <= 1e-9,
                f"{kind}: {name} strategy is not a probability vector")
    span = payoff_span(ref)
    exploit = exploitability_rel(ref, x, y)
    require(exploit <= EXPLOIT_REL_TOL, f"{kind}: exploitability {exploit:.3g} x span exceeds {EXPLOIT_REL_TOL}")
    v = closed_value(kind)
    require(abs(value - v) <= VALUE_REL_TOL * span, f"{kind}: value {value!r} is not the closed form {v}")
    beats = p > 0.5
    np.fill_diagonal(beats, False)
    top = top_group(beats)
    outside = np.ones(p.shape[0], dtype=bool)
    outside[top] = False
    mass_outside = float(x[outside].sum())
    require(mass_outside <= MASS_TOL, f"{kind}: row mass {mass_outside:.3g} outside the top group")
    require(float(y[outside].sum()) <= MASS_TOL, f"{kind}: column mass outside the top group")
    winner = condorcet(beats)
    if winner is not None:
        require(x[winner] >= 1.0 - MASS_TOL, f"{kind}: Condorcet winner {winner} carries only {x[winner]}")
    support = np.flatnonzero(x > SUPPORT_THRESHOLD)
    if kind == "piecewise_constant":
        check_tournament_game(x, y)
    return {
        "top": top,
        "winner": winner,
        "mass_outside": mass_outside,
        "mixed": support.size > 1,
    }


def check_tournament_game(x: np.ndarray, y: np.ndarray) -> None:
    """The tournament game has a unique equilibrium, symmetric, with odd support."""
    size = int(np.count_nonzero(x > SUPPORT_THRESHOLD))
    require(size % 2 == 1, f"tournament game support has even size {size}")
    require(float(np.max(np.abs(x - y))) <= STRATEGY_TOL, "tournament game: row and column strategies differ")


def check_verdict(verdict, facts: dict) -> None:
    """Compare a ``ConsistencyVerdict`` with the oracle's facts."""
    require(verdict.condorcet_winner == facts["winner"], "verdict names the wrong Condorcet winner")
    expected = None if facts["winner"] is None else True
    require(verdict.condorcet_consistent == expected, "verdict's Condorcet consistency is wrong")
    require(verdict.smith_consistent is True, "verdict reports a Smith violation the oracle does not see")
    require(abs(verdict.mass_outside_smith - facts["mass_outside"]) <= ENTRY_TOL,
            "verdict's mass outside the top group differs from the oracle's")
    require(verdict.is_mixed == facts["mixed"], "verdict's mixedness differs from the support size")


def check_decomposition_top(groups, facts: dict) -> None:
    require(sorted(groups[0]) == facts["top"], "decomposition's first group is not the reachability top group")


def highs_value(a: np.ndarray) -> float | None:
    """The row player's maximin value by HiGHS, or None without scipy."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    n = a.shape[0]
    # Variables x (n) and v; maximize v subject to v <= (x A)_j, sum x = 1.
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a.T, np.ones((n, 1))])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = [(0.0, None)] * n + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if res.status != 0:
        raise CheckFailed(f"HiGHS could not solve a benchmark game: {res.message}")
    return float(-res.fun)


def check_highs_value(a: np.ndarray, value: float) -> None:
    ref = highs_value(a)
    if ref is not None:
        require(abs(ref - value) <= HIGHS_REL_TOL * payoff_span(a),
                f"value {value!r} differs from HiGHS's {ref!r}")


# ------------------------------------------------------ preference matching

def logistic_preferences(rewards: np.ndarray) -> np.ndarray:
    diff = rewards[:, None] - rewards[None, :]
    return 1.0 / (1.0 + np.exp(-diff))


def softmax(rewards: np.ndarray) -> np.ndarray:
    e = np.exp(rewards - rewards.max())
    return e / e.sum()


def check_btl(rewards: np.ndarray, p: np.ndarray, w: np.ndarray) -> None:
    require(float(np.max(np.abs(p - logistic_preferences(rewards)))) <= ENTRY_TOL,
            "btl_preferences is not the logistic function of reward gaps")
    require(float(np.max(np.abs(w - softmax(rewards)))) <= ENTRY_TOL, "pm_policy is not the softmax of rewards")


def construction_one_payoff(w: np.ndarray) -> np.ndarray:
    return w[:, None] + w[None, :] - np.eye(w.size)


def construction_two_payoff(w: np.ndarray) -> np.ndarray:
    return -(w[None, :] / w[:, None]) + w.size * np.eye(w.size)


def ratio_payoff_btl(w: np.ndarray) -> np.ndarray:
    """The ratio family f(x) = x / (1 + x) at the target: a[i, j] = w_i / (w_i + w_j)."""
    a = w[:, None] / (w[:, None] + w[None, :])
    np.fill_diagonal(a, 0.5)
    return a


def degenerate_payoff(w: np.ndarray) -> np.ndarray:
    """degenerate_family(n) at an n-target: a[i, j] = w_j / w_i + n - 1, a[i, i] = 0."""
    n = w.size
    a = w[None, :] / w[:, None] + (n - 1)
    np.fill_diagonal(a, 0.0)
    return a


def check_payoff(a_program: np.ndarray, a_ref: np.ndarray, what: str) -> None:
    scale = 1.0 + float(np.max(np.abs(a_ref)))
    require(float(np.max(np.abs(a_program - a_ref))) <= ENTRY_TOL * scale, f"{what} payoff differs from its formula")


def check_feasible_certificate(a: np.ndarray, w: np.ndarray, cert, t_closed: float, what: str) -> None:
    """A feasible certificate: t in closed form, A u = t 1 and w'A <= t."""
    tol = KKT_REL_TOL * payoff_span(a)
    require(cert.feasible and cert.u is not None, f"{what}: the target did not certify")
    require(abs(cert.t - t_closed) <= tol, f"{what}: t = {cert.t!r}, closed form {t_closed!r}")
    u = cert.u.w
    require(bool(np.all(u >= 0.0)) and abs(float(u.sum()) - 1.0) <= 1e-9, f"{what}: u is not a probability vector")
    require(float(np.max(np.abs(a @ u - t_closed))) <= tol, f"{what}: A u is not t times ones")
    require(float(np.max(w @ a)) <= t_closed + tol, f"{what}: a column pays the target more than t")


def highs_kkt_infeasible(a: np.ndarray, w: np.ndarray, tight_tol: float = 1e-8) -> bool | None:
    """Whether HiGHS finds no u >= 0 on the target's tight columns with A u = t 1."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    cols = w @ a
    t = float(cols.max())
    tight = np.flatnonzero(cols - t >= -tight_tol)
    n = a.shape[0]
    a_eq = np.vstack([a[:, tight], np.ones((1, tight.size))])
    b_eq = np.concatenate([np.full(n, t), [1.0]])
    res = linprog(np.zeros(tight.size), A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * tight.size, method="highs")
    return res.status == 2
