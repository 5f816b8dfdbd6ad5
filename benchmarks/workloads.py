"""The three benchmark workloads: their inputs, operations and checks.

Each workload builds a fixed round of operations, runs one operation at a
time through ``run_op`` (the timed unit), and checks what it returned with
``check``.  The traced run calls ``replay`` instead, which makes the same
calls into the same public functions with a span around each one.

Inputs that reach the solver do not depend on ``--seed``: the current
solver fails on a seed-dependent few percent of games at n >= 30 (and now
and then at n = 6), so seeded games would make the number of failed
operations differ from run to run.  ``--seed`` permutes the order of the
operations inside every round.  See README.md.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import oracles
from oracles import require
from spans import NULL

import prefgame as pg
from prefgame import cli


class OpFailed(Exception):
    """An operation ended in an error the program reports, not a wrong answer."""


# What counts as a failed operation; anything else aborts the run.
FAILURES = (OpFailed, pg.SolverError)

# The messages of the package's ``SolverError``s, as the CLI prints them on
# standard error.  Any other error exit of the CLI is a wrong answer.
SOLVER_MESSAGE = re.compile(
    r"^error: (phase-1 subproblem cannot be unbounded|simplex iteration cap exceeded|"
    r"LP returned an empty strategy|maximin LP ended with status|duality gap )", re.MULTILINE)


def order(seed: int, round_index: int, size: int) -> np.ndarray:
    """The seeded order of a round's operations."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, round_index]))
    return rng.permutation(size)


class Workload:
    name = ""
    sizes: tuple[int, ...] = ()
    # Keys of the operations that fail every time; any other failure, or one
    # of these succeeding, is a wrong answer.
    expected_failures: frozenset = frozenset()

    def build(self, work_dir: str) -> list:
        """Create and validate the round's inputs with the package's public API."""
        raise NotImplementedError

    def run_op(self, op, tracer=NULL):
        raise NotImplementedError

    def replay(self, op, tracer):
        """The traced form of one operation; by default ``run_op`` itself."""
        return self.run_op(op, tracer)

    def check_inputs(self, ops: list) -> None:
        """Oracle checks on the built inputs, made outside any timing."""

    def check(self, op, result) -> None:
        """Oracle checks on one result of ``run_op``."""
        raise NotImplementedError

    def fingerprint(self, result):
        """A cheap exact digest of a result, to check that repeats agree."""
        raise NotImplementedError

    def solves(self, result):
        """(payoff array, NashReport) pairs in a traced result, for exploitability."""
        return []


# ------------------------------------------------------------ mc-tournament

MC_TRIALS = 20
MC_SEEDS = tuple(range(17))
MC_MAPPINGS = ("identity", "log_odds", "bumpy")


class McOp:
    def __init__(self, kind, psi_arg, mapping, seed, force_no_winner):
        self.kind = kind
        self.mapping = mapping
        self.seed = seed
        self.force_no_winner = force_no_winner
        self.argv = ["monte-carlo", "--psi", psi_arg, "--trials", str(MC_TRIALS), "--seed", str(seed),
                     "--format", "json", "--no-timing"] + (["--force-no-winner"] if force_no_winner else [])
        self.key = (kind, seed, force_no_winner)


class McTournament(Workload):
    """Calls of the ``monte-carlo`` subcommand through ``prefgame.cli.run``."""

    name = "mc-tournament"
    sizes = (3, 4, 5, 6, 7, 8)

    def build(self, work_dir):
        bumpy = pg.symmetric_extension(pg.piecewise_linear(list(oracles.BUMPY_POINTS)))
        bumpy_path = os.path.join(work_dir, "bumpy.json")
        partial = f"{bumpy_path}.{os.getpid()}"
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(pg.mapping_to_dict(bumpy), fh)
        os.replace(partial, bumpy_path)
        mappings = {
            "identity": ("identity", pg.identity()),
            "log_odds": ("log_odds", pg.log_odds()),
            "bumpy": (bumpy_path, bumpy),
        }
        self.psi = {kind: pg.mapping_to_dict(m) for kind, (_, m) in mappings.items()}
        return [
            McOp(kind, mappings[kind][0], mappings[kind][1], seed, force)
            for kind in MC_MAPPINGS
            for force in (False, True)
            for seed in MC_SEEDS
        ]

    def run_op(self, op, tracer=NULL):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(op.argv)
        if code == cli.EXIT_INVALID:
            message = f"monte-carlo {' '.join(op.argv)} exited with code {code}: {err.getvalue().strip()}"
            if not SOLVER_MESSAGE.search(err.getvalue()):
                raise oracles.CheckFailed(message)
            raise OpFailed(message)
        return code, out.getvalue()

    def replay(self, op, tracer):
        """The CLI's trial loop, made from public calls with a span around each."""
        trials = []
        for trial in range(MC_TRIALS):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([op.seed, trial])))
            n = int(rng.integers(3, 9))
            sub_seed = int(rng.integers(0, 2**63))
            cfg = pg.GeneratorConfig(n=n, seed=sub_seed, force_no_winner=op.force_no_winner)
            pref = tracer.call("generators.random_tournament", pg.random_tournament, cfg)
            payoff = tracer.call("core.apply_mapping", pg.apply_mapping, pref, op.mapping)
            nash = tracer.call("solver.solve_maximin", pg.solve_maximin, payoff)
            tracer.tag(n=n, pivots=nash.solver_iterations)
            verdict = tracer.call("social_choice.consistency_verdict", pg.consistency_verdict, pref, nash)
            decomposition = tracer.call("social_choice.smith_decomposition", pg.smith_decomposition, pref)
            trials.append((n, sub_seed, pref, payoff, nash, verdict, decomposition))
        return trials

    def check_report(self, op, result) -> dict:
        code, text = result
        require(code == cli.EXIT_OK, f"monte-carlo {op.key} exited with {code}: a violation was reported")
        report = json.loads(text)
        expected = {
            "trials": MC_TRIALS, "seed": op.seed, "psi": self.psi[op.kind], "n_min": 3, "n_max": 8,
            "force_no_winner": op.force_no_winner, "violations_condorcet": 0, "violations_smith": 0,
            "violations_mixed": 0,
        }
        for key, value in expected.items():
            require(report.get(key) == value, f"monte-carlo {op.key}: {key} = {report.get(key)!r}, expected {value!r}")
        require("elapsed_ms" not in report, "--no-timing report carries a timing field")
        require(0.0 <= report["worst_mass_outside_smith"] <= oracles.MASS_TOL,
                f"monte-carlo {op.key}: worst mass outside the top group {report['worst_mass_outside_smith']}")
        return report

    def check(self, op, result):
        self.check_report(op, result)

    def fingerprint(self, result):
        return result

    def solves(self, result):
        return [(trial[3].a, trial[4]) for trial in result]

    def check_replay(self, op, report: dict, trials, highs: bool) -> None:
        """Check a replayed batch trial by trial; its tallies must equal the CLI's."""
        tallies = {"violations_condorcet": 0, "violations_smith": 0, "violations_mixed": 0}
        worst = 0.0
        for n, sub_seed, pref, payoff, nash, verdict, decomposition in trials:
            reference = oracles.reference_tournament(n, sub_seed, op.force_no_winner)
            require(np.array_equal(pref.p, reference), f"random_tournament(n={n}, seed={sub_seed}) breaks its draw order")
            facts = oracles.check_game(op.kind, pref.p, payoff.a, nash.row_strategy.w, nash.col_strategy.w, nash.value)
            oracles.check_verdict(verdict, facts)
            oracles.check_decomposition_top(decomposition.groups, facts)
            if highs:
                oracles.check_highs_value(payoff.a, nash.value)
            tallies["violations_condorcet"] += int(verdict.condorcet_consistent is False)
            tallies["violations_smith"] += int(not verdict.smith_consistent)
            tallies["violations_mixed"] += int(len(decomposition.top_group()) > 1 and not verdict.is_mixed)
            worst = max(worst, verdict.mass_outside_smith)
        for key, value in tallies.items():
            require(report[key] == value, f"replay of {op.key}: {key} = {value}, the CLI reported {report[key]}")
        require(report["worst_mass_outside_smith"] == worst, f"replay of {op.key}: worst mass differs from the CLI's")


# -------------------------------------------------------------- solve-large

LARGE_SIZES = (30, 35, 40, 45, 50)
LARGE_SEEDS = (2, 3, 5, 7)
LARGE_MAPPINGS = ("identity", "log_odds", "piecewise_constant")
PLANTED_STREAM = 20_505_627
STRENGTH_LOW, STRENGTH_HIGH = 0.55, 0.95


def planted_tournament(n: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """A strict tournament whose top group is a planted quarter of the candidates.

    The top group's members are a random n // 4 of the candidates.  They
    beat everyone outside it, and a directed Hamiltonian cycle through them
    makes the group strongly connected; every other pair, inside or outside
    the group, gets a fair-coin orientation.  Win strengths are uniform on
    [0.55, 0.95], as in ``random_tournament``.
    """
    k = n // 4
    rng = np.random.default_rng(np.random.SeedSequence([PLANTED_STREAM, n, seed]))
    perm = rng.permutation(n)
    strength = rng.uniform(STRENGTH_LOW, STRENGTH_HIGH, size=(n, n))
    coin = rng.random((n, n)) < 0.5
    p = np.full((n, n), 0.5)
    for a in range(n):
        for b in range(a + 1, n):
            if b < k:
                first_wins = b == a + 1 or (coin[a, b] and not (a == 0 and b == k - 1))
            elif a < k:
                first_wins = True
            else:
                first_wins = bool(coin[a, b])
            i, j = (perm[a], perm[b]) if first_wins else (perm[b], perm[a])
            p[i, j] = strength[a, b]
            p[j, i] = 1.0 - strength[a, b]
    return p, sorted(int(i) for i in perm[:k])


class LargeOp:
    def __init__(self, kind, mapping, pref, source, n, seed, planted_top):
        self.kind = kind
        self.mapping = mapping
        self.pref = pref
        self.source = source
        self.n = n
        self.seed = seed
        self.planted_top = planted_top
        self.key = (source, n, seed, kind)


class SolveLarge(Workload):
    """apply_mapping -> solve_maximin -> consistency_verdict on n = 30-50 games."""

    name = "solve-large"
    sizes = LARGE_SIZES
    # Round-off in ``_simplex``: a false phase-1 unbounded status under
    # ``identity``, and a duality gap of 3.4e-6 under ``piecewise_constant``.
    expected_failures = frozenset({("uniform", 40, 3, "identity"), ("uniform", 50, 2, "identity"),
                                   ("uniform", 45, 7, "identity"), ("uniform", 45, 2, "piecewise_constant")})

    def build(self, work_dir):
        mappings = {"identity": pg.identity(), "log_odds": pg.log_odds(),
                    "piecewise_constant": pg.piecewise_constant(-1.0, 0.0, 1.0)}
        ops = []
        for n in LARGE_SIZES:
            for seed in LARGE_SEEDS:
                uniform = pg.random_tournament(pg.GeneratorConfig(n=n, seed=seed))
                planted_p, top = planted_tournament(n, seed)
                planted = pg.validate_preferences(planted_p)
                for kind in LARGE_MAPPINGS:
                    ops.append(LargeOp(kind, mappings[kind], uniform, "uniform", n, seed, None))
                    ops.append(LargeOp(kind, mappings[kind], planted, "planted", n, seed, top))
        return ops

    def check_inputs(self, ops):
        for op in ops:
            require(op.pref.no_tie, f"{op.key}: input tournament has ties")
            beats = op.pref.p > 0.5
            if op.source == "uniform":
                reference = oracles.reference_tournament(op.n, op.seed, False)
                require(np.array_equal(op.pref.p, reference), f"{op.key}: random_tournament breaks its draw order")
            else:
                require(oracles.top_group(beats) == op.planted_top, f"{op.key}: planted top group is not the top group")

    def run_op(self, op, tracer=NULL):
        payoff = tracer.call("core.apply_mapping", pg.apply_mapping, op.pref, op.mapping)
        nash = tracer.call("solver.solve_maximin", pg.solve_maximin, payoff)
        tracer.tag(n=op.n, pivots=nash.solver_iterations)
        verdict = tracer.call("social_choice.consistency_verdict", pg.consistency_verdict, op.pref, nash)
        return payoff, nash, verdict

    def check(self, op, result):
        payoff, nash, verdict = result
        facts = oracles.check_game(op.kind, op.pref.p, payoff.a, nash.row_strategy.w, nash.col_strategy.w, nash.value)
        oracles.check_verdict(verdict, facts)
        oracles.check_highs_value(payoff.a, nash.value)

    def fingerprint(self, result):
        nash = result[1]
        return nash.value, nash.row_strategy.w.tobytes(), nash.col_strategy.w.tobytes()

    def solves(self, result):
        return [(result[0].a, result[1])]


# ------------------------------------------------------------------ certify

CERTIFY_SIZES = (4, 7, 10, 13, 16)
CERTIFY_TARGETS = 20
CERTIFY_STREAM = 1_605_627


class CertifyOp:
    def __init__(self, n, index, rewards, model, degenerate):
        self.n = n
        self.rewards = rewards
        self.model = model
        self.degenerate = degenerate
        self.key = (n, index)


class Certify(Workload):
    """Preference matching on BTL targets: constructions, certificates, gap probes."""

    name = "certify"
    sizes = CERTIFY_SIZES

    def build(self, work_dir):
        self.ratio = pg.RatioPayoffSpec(f=lambda x: x / (1.0 + x), diagonal_c=0.5)
        ops = []
        for index in range(CERTIFY_TARGETS):
            for n in CERTIFY_SIZES:
                rng = np.random.default_rng(np.random.SeedSequence([CERTIFY_STREAM, n, index]))
                rewards = rng.normal(0.0, 1.0, size=n)
                ops.append(CertifyOp(n, index, rewards, pg.make_btl(rewards), pg.degenerate_family(n)))
        return ops

    def run_op(self, op, tracer=NULL):
        call = tracer.call
        pref = call("preference_matching.btl_preferences", pg.btl_preferences, op.model)
        target = call("preference_matching.pm_policy", pg.pm_policy, op.model)
        one = call("preference_matching.construction_one", pg.construction_one, target)
        cert_one = call("preference_matching.kkt_verify", pg.kkt_verify, one, target)
        two = call("preference_matching.construction_two", pg.construction_two, target)
        cert_two = call("preference_matching.kkt_verify", pg.kkt_verify, two, target)
        nash = call("solver.solve_maximin", pg.solve_maximin, one)
        tracer.tag(n=op.n, pivots=nash.solver_iterations)
        unique = call("solver.uniqueness_report", pg.uniqueness_report, one, nash)
        probe_ratio = call("preference_matching.pm_gap", pg.pm_gap, self.ratio, target)
        probe_degenerate = call("preference_matching.pm_gap", pg.pm_gap, op.degenerate, target)
        return pref, target, one, cert_one, two, cert_two, nash, unique, probe_ratio, probe_degenerate

    def check(self, op, result):
        pref, target, one, cert_one, two, cert_two, nash, unique, probe_ratio, probe_degenerate = result
        n = op.n
        w = target.w
        oracles.check_btl(op.rewards, pref.p, w)

        oracles.check_payoff(one.a, oracles.construction_one_payoff(w), "construction_one")
        oracles.check_feasible_certificate(one.a, w, cert_one, float(w @ w), "construction_one")
        oracles.check_payoff(two.a, oracles.construction_two_payoff(w), "construction_two")
        oracles.check_feasible_certificate(two.a, w, cert_two, 0.0, "construction_two")

        # construction_one's equilibrium is unique and equal to the target.
        span = oracles.payoff_span(one.a)
        exploit = oracles.exploitability_rel(one.a, nash.row_strategy.w, nash.col_strategy.w)
        require(exploit <= oracles.EXPLOIT_REL_TOL, f"certify {op.key}: exploitability {exploit:.3g}")
        require(abs(nash.value - float(w @ w)) <= oracles.VALUE_REL_TOL * span, f"certify {op.key}: value is not sum(w^2)")
        require(float(np.max(np.abs(nash.row_strategy.w - w))) <= oracles.STRATEGY_TOL,
                f"certify {op.key}: solved strategy is not the target")
        oracles.check_highs_value(one.a, nash.value)
        ranges = unique.coordinate_ranges
        require(unique.unique is True, f"certify {op.key}: uniqueness_report calls the unique optimum not unique")
        width = float(np.max(ranges[:, 1] - ranges[:, 0]))
        require(width <= oracles.UNIQUE_WIDTH_TOL, f"certify {op.key}: a coordinate range is {width:.3g} wide")
        require(float(np.max(np.abs(ranges - w[:, None]))) <= oracles.STRATEGY_TOL,
                f"certify {op.key}: optimal coordinate ranges do not pin the target")

        # Ratio family x / (1 + x): the argmax of w is a Condorcet winner, so the
        # unique optimum is pure there and the full-support target cannot match.
        ratio = oracles.ratio_payoff_btl(w)
        best = int(np.argmax(w))
        require(not probe_ratio.kkt.feasible, f"certify {op.key}: ratio family certified a target it cannot match")
        infeasible = oracles.highs_kkt_infeasible(ratio, w)
        require(infeasible in (None, True), f"certify {op.key}: HiGHS finds a certificate for the ratio family")
        require(abs(probe_ratio.nash.value - 0.5) <= oracles.VALUE_REL_TOL, f"certify {op.key}: ratio game value is not 1/2")
        require(probe_ratio.nash.row_strategy.w[best] >= 1.0 - oracles.MASS_TOL,
                f"certify {op.key}: ratio game optimum is not the Condorcet winner")
        require(abs(probe_ratio.gap - (1.0 - w[best])) <= oracles.MASS_TOL, f"certify {op.key}: ratio gap is not 1 - max(w)")
        exploit = max(exploit, oracles.exploitability_rel(ratio, probe_ratio.nash.row_strategy.w, probe_ratio.nash.col_strategy.w))

        # degenerate_family(n) at an n-target: every column pays n - 1.
        degenerate = oracles.degenerate_payoff(w)
        oracles.check_feasible_certificate(degenerate, w, probe_degenerate.kkt, float(n - 1), "degenerate_family")
        span = oracles.payoff_span(degenerate)
        require(abs(probe_degenerate.nash.value - (n - 1)) <= oracles.VALUE_REL_TOL * span,
                f"certify {op.key}: degenerate game value is not n - 1")
        d_x, d_y = probe_degenerate.nash.row_strategy.w, probe_degenerate.nash.col_strategy.w
        require(abs(probe_degenerate.gap - 0.5 * float(np.abs(d_x - w).sum())) <= 1e-12,
                f"certify {op.key}: degenerate gap is not the total-variation distance")
        exploit = max(exploit, oracles.exploitability_rel(degenerate, d_x, d_y))
        require(exploit <= oracles.EXPLOIT_REL_TOL, f"certify {op.key}: exploitability {exploit:.3g}")

    def fingerprint(self, result):
        nash, unique, probe_ratio, probe_degenerate = result[6:]
        return (result[3].t, result[5].t, nash.value, nash.row_strategy.w.tobytes(),
                unique.coordinate_ranges.tobytes(), probe_ratio.gap, probe_degenerate.gap)

    def solves(self, result):
        return [(result[2].a, result[6])]


WORKLOADS = {w.name: w for w in (McTournament, SolveLarge, Certify)}
