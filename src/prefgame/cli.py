"""Command-line front end: parse arguments, call the library, print reports.

Each subcommand handler loads its inputs, makes one library call and returns
one report with whether its check passed; ``run`` writes the report, as JSON
(``--format json``) or as a plain key/value table (default), to stdout or
``--out``.  Exit codes: 0 on success, 1 when a requested verification found
a violation, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from .core import (
    PayoffMatrix,
    Policy,
    PreferenceMatrix,
    PrefGameError,
    ValidationError,
    make_payoff,
    make_policy,
    validate_preferences,
)
from .experiment import monte_carlo
from .generators import GeneratorConfig, random_tournament, table_preferences
from .mappings import MappingSpec, apply_mapping, check_conditions, mapping_from_dict
from .preference_matching import (
    BTLModel,
    btl_family,
    btl_preferences,
    degenerate_family,
    kkt_verify,
    make_btl,
    pm_gap,
    pm_policy,
    RatioPayoffSpec,
)
from .social_choice import consistency_verdict, smith_decomposition
from .solver import solve_maximin
from . import __version__

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2


class _UnreadableInput(ValidationError):
    """A JSON input file that does not parse to an object: bad input, not a bad matrix."""


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # A RecursionError is a nesting too deep for the parser.
        except (ValueError, RecursionError) as exc:
            raise _UnreadableInput(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _UnreadableInput(f"{path}: JSON top level must be an object, got {type(data).__name__}")
    return data


def _load_field(path: str, what: str, field: str, build):
    """Wrap ``field`` of a JSON object ({"n", field}) with ``build``; a declared n must be its length."""
    data = _load_json(path)
    if field not in data:
        raise ValidationError(f"{path}: {what} JSON needs a {field!r} field")
    value = build(data[field])
    n = len(data[field])
    declared = data.get("n", n)
    # A JSON true is an int to Python; neither it nor 3.7 declares a size.
    integral = isinstance(declared, float) and declared.is_integer()
    if isinstance(declared, bool) or not (isinstance(declared, int) or integral):
        raise ValidationError(f"{path}: declared n={declared!r} is not an integer")
    if declared != n:
        raise ValidationError(f"{path}: declared n={declared} but the data has n={n}")
    return value


def _load_matrix(path: str, field: str, build):
    """Read a square matrix from JSON ({"n", field}) or CSV rows and wrap it with ``build``."""
    if path.endswith(".csv"):
        try:
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: not a numeric CSV matrix: {exc}") from None
        return build(raw)
    return _load_field(path, "matrix", field, build)


def load_preferences(path: str) -> PreferenceMatrix:
    """Read a preference matrix from JSON ({"n", "p"}) or CSV rows."""
    return _load_matrix(path, "p", validate_preferences)


def load_payoff(path: str) -> PayoffMatrix:
    """Read a payoff matrix from JSON ({"n", "a"}) or CSV rows."""
    return _load_matrix(path, "a", make_payoff)


def load_policy(path: str) -> Policy:
    return _load_field(path, "policy", "w", make_policy)


def load_mapping(arg: str) -> MappingSpec:
    """Resolve a mapping argument: a JSON file path if that file exists, else a mapping kind."""
    if os.path.exists(arg):
        return mapping_from_dict(_load_json(arg))
    return mapping_from_dict({"kind": arg})


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render_table(data: dict, indent: int = 0) -> list[str]:
    pad = " " * indent
    lines: list[str] = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_table(value, indent + 2))
        elif isinstance(value, list) and value and isinstance(value[0], (list, tuple)):
            lines.append(f"{pad}{key}:")
            for row in value:
                lines.append(pad + "  " + "  ".join(_format_value(v) for v in row))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + "  ".join(_format_value(v) for v in value))
        else:
            lines.append(f"{pad}{key}: {_format_value(value)}")
    return lines


def _cmd_validate(args) -> tuple[dict, bool]:
    try:
        pref = load_preferences(args.pref)
    except _UnreadableInput:
        raise
    except ValidationError as exc:
        return {"valid": False, "reason": str(exc)}, False
    return {"valid": True, "n": pref.n, "no_tie": pref.no_tie}, True


def _cmd_solve(args) -> tuple[dict, bool]:
    pref = load_preferences(args.pref)
    mapping = load_mapping(args.psi)
    return solve_maximin(apply_mapping(pref, mapping)).to_dict(), True


def _cmd_decompose(args) -> tuple[dict, bool]:
    return smith_decomposition(load_preferences(args.pref)).to_dict(), True


def _cmd_check_psi(args) -> tuple[dict, bool]:
    report = check_conditions(load_mapping(args.psi))
    return report.to_dict(), report.condorcet_ok and report.mixed_ok and report.smith_ok


def _cmd_verdict(args) -> tuple[dict, bool]:
    pref = load_preferences(args.pref)
    mapping = load_mapping(args.psi)
    nash = solve_maximin(apply_mapping(pref, mapping))
    verdict = consistency_verdict(pref, nash)
    return verdict.to_dict(), verdict.condorcet_consistent is not False and verdict.smith_consistent


def _load_rewards(arg: str) -> BTLModel:
    if os.path.exists(arg):
        return _load_field(arg, "rewards", "rewards", make_btl)
    try:
        rewards = [float(part) for part in arg.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"rewards must be a JSON file or comma-separated floats, got {arg!r}")
    # Outside the try: make_btl's ValidationError is a ValueError too.
    return make_btl(rewards)


def _cmd_btl(args) -> tuple[dict, bool]:
    model = _load_rewards(args.rewards)
    return {"preferences": btl_preferences(model).to_dict(), "pm_policy": pm_policy(model).to_dict()}, True


def _cmd_kkt(args) -> tuple[dict, bool]:
    payoff = load_payoff(args.payoff)
    target = load_policy(args.target)
    certificate = kkt_verify(payoff, target)
    return certificate.to_dict(), certificate.feasible


def _ratio_spec_from_args(args, target_n: int) -> RatioPayoffSpec:
    if args.family == "btl":
        for flag, value in (("--family-n", args.family_n), ("--c2", args.c2)):
            if value is not None:
                raise ValidationError(f"{flag} applies only to --family degenerate")
        return btl_family() if args.c is None else btl_family(args.c)
    n = args.family_n if args.family_n is not None else target_n
    given = {"c": args.c, "c2": args.c2}
    return degenerate_family(n, **{k: v for k, v in given.items() if v is not None})


def _cmd_pm_probe(args) -> tuple[dict, bool]:
    target = load_policy(args.target)
    spec = _ratio_spec_from_args(args, target.n)
    return pm_gap(spec, target).to_dict(), True


def _cmd_gen(args) -> tuple[dict, bool]:
    if args.what == "random":
        cfg = GeneratorConfig(
            n=args.n,
            seed=args.seed,
            strength_low=args.strength_low,
            strength_high=args.strength_high,
            force_no_winner=args.force_no_winner,
        )
        pref = random_tournament(cfg)
    elif args.what == "table2":
        pref = table_preferences("table2", args.t)
    else:
        pref = table_preferences(args.what, args.t1, args.t2)
    return pref.to_dict(), True


def _cmd_monte_carlo(args) -> tuple[dict, bool]:
    mapping = load_mapping(args.psi)
    summary = monte_carlo(
        mapping,
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        seed=args.seed,
        force_no_winner=args.force_no_winner,
        witness_dir=args.witness_dir,
    )
    return summary.to_dict(include_timing=not args.no_timing), summary.total_violations == 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    # Every subcommand prints one report; the other flags go only on the
    # subcommands that read them.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "table"), default="table")
    output.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(
        prog="prefgame",
        description="Solve mapped preference games and verify their social-choice behavior.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[output], help="check a preference matrix file")
    p.add_argument("--pref", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("solve", parents=[output], help="solve the mapped game")
    p.add_argument("--pref", required=True)
    p.add_argument("--psi", required=True)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("decompose", parents=[output], help="ordered dominance decomposition")
    p.add_argument("--pref", required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("check-psi", parents=[output], help="decide the mapping conditions")
    p.add_argument("--psi", required=True)
    p.set_defaults(handler=_cmd_check_psi)

    p = sub.add_parser("verdict", parents=[output], help="solve and judge consistency")
    p.add_argument("--pref", required=True)
    p.add_argument("--psi", required=True)
    p.set_defaults(handler=_cmd_verdict)

    p = sub.add_parser("btl", parents=[output], help="preferences and matching policy from rewards")
    p.add_argument("--rewards", required=True)
    p.set_defaults(handler=_cmd_btl)

    p = sub.add_parser("kkt", parents=[output], help="certify a target as maximin solution")
    p.add_argument("--payoff", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(handler=_cmd_kkt)

    p = sub.add_parser("pm-probe", parents=[output], help="probe a ratio family against a target")
    p.add_argument("--target", required=True)
    p.add_argument("--family", choices=("btl", "degenerate"), default="btl")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--family-n", dest="family_n", type=int, default=None)
    p.set_defaults(handler=_cmd_pm_probe)

    p = sub.add_parser("gen", help="emit a preference matrix")
    what = p.add_subparsers(dest="what", required=True)
    g = what.add_parser("random", parents=[output], help="seeded random tournament")
    g.add_argument("--n", type=int, default=5)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--strength-low", dest="strength_low", type=float, default=0.55)
    g.add_argument("--strength-high", dest="strength_high", type=float, default=0.95)
    g.add_argument("--force-no-winner", dest="force_no_winner", action="store_true")
    g = what.add_parser("table2", parents=[output], help="two-response proof game")
    g.add_argument("--t", type=float, default=0.7)
    for name, summary in (
        ("table4", "three-cycle over a dominated response"),
        ("table6", "two stacked three-cycles"),
    ):
        g = what.add_parser(name, parents=[output], help=summary)
        g.add_argument("--t1", type=float, default=0.6)
        g.add_argument("--t2", type=float, default=0.7)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("monte-carlo", parents=[output], help="seeded random verification run")
    p.add_argument("--psi", default="identity")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-min", dest="n_min", type=int, default=3)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.add_argument("--force-no-winner", dest="force_no_winner", action="store_true")
    p.add_argument("--witness-dir", dest="witness_dir", default=None)
    p.add_argument("--no-timing", dest="no_timing", action="store_true")
    p.set_defaults(handler=_cmd_monte_carlo)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one CLI invocation: print its report and return its exit code."""
    level = os.environ.get("PREFGAME_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING), stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        report, passed = args.handler(args)
        if args.format == "json":
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            text = "\n".join(_render_table(report)) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (PrefGameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK if passed else EXIT_VIOLATION


def main() -> None:
    sys.exit(run())
