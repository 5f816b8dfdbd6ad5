"""End-to-end runs of the command line interface through ``cli.run``."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import prefgame as pg
from prefgame import cli, experiment
from prefgame.cli import run

RPS = [[0.5, 0.9, 0.1], [0.1, 0.5, 0.9], [0.9, 0.1, 0.5]]

TRANSITIVE = [
    [0.5, 0.8, 0.8, 0.8],
    [0.2, 0.5, 0.8, 0.8],
    [0.2, 0.2, 0.5, 0.8],
    [0.2, 0.2, 0.2, 0.5],
]


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return tmp_path, write


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_validate_ok(files, capsys):
    _, write = files
    path = write("pref.json", {"n": 3, "p": RPS})
    assert run(["validate", "--pref", path, "--format", "json"]) == 0
    report = out_json(capsys)
    assert report["valid"] is True
    assert report["no_tie"] is True


def test_validate_invalid_matrix_exits_one(files, capsys):
    _, write = files
    path = write("bad.json", {"n": 2, "p": [[0.5, 0.9], [0.4, 0.5]]})
    assert run(["validate", "--pref", path, "--format", "json"]) == 1
    assert out_json(capsys)["valid"] is False


def test_validate_string_entries_are_an_invalid_matrix(files, capsys):
    _, write = files
    path = write("strings.json", {"p": [["0.5", "0.9"], ["0.1", "0.5"]]})
    assert run(["validate", "--pref", path, "--format", "json"]) == 1
    report = out_json(capsys)
    assert report == {"valid": False, "reason": "preference matrix must be an array of numbers, not booleans or strings"}


def test_validate_missing_file_exits_two(capsys):
    assert run(["validate", "--pref", "/nonexistent/x.json"]) == 2
    assert capsys.readouterr().err


def test_validate_csv(tmp_path, capsys):
    path = tmp_path / "pref.csv"
    path.write_text("\n".join(",".join(str(v) for v in row) for row in RPS))
    assert run(["validate", "--pref", str(path), "--format", "json"]) == 0
    assert out_json(capsys)["valid"] is True


def test_solve_json(files, capsys):
    _, write = files
    path = write("pref.json", {"n": 3, "p": RPS})
    assert run(["solve", "--pref", path, "--psi", "identity", "--format", "json"]) == 0
    report = out_json(capsys)
    # emit sorts the keys.
    assert list(report) == ["col_strategy", "exploitability", "row_strategy", "solver_iterations", "value"]
    assert report["solver_iterations"] > 0
    assert report["value"] == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(report["row_strategy"], 1.0 / 3.0, atol=1e-8)


def test_solve_table_output(files, capsys):
    _, write = files
    path = write("pref.json", {"n": 3, "p": RPS})
    assert run(["solve", "--pref", path, "--psi", "log_odds"]) == 0
    text = capsys.readouterr().out
    assert "value" in text
    assert "{" not in text


def test_solve_with_mapping_file(files, capsys):
    _, write = files
    pref = write("pref.json", {"n": 3, "p": RPS})
    mapping = write("mapping.json", {"kind": "affine", "a": 2.0, "b": 1.0})
    assert run(["solve", "--pref", pref, "--psi", mapping, "--format", "json"]) == 0
    assert out_json(capsys)["value"] == pytest.approx(2.0, abs=1e-8)


def test_solve_out_file(files, capsys):
    tmp_path, write = files
    pref = write("pref.json", {"n": 3, "p": RPS})
    out = tmp_path / "report.json"
    assert run(["solve", "--pref", pref, "--psi", "identity", "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["value"] == pytest.approx(0.5, abs=1e-9)


def test_unknown_mapping_name_exits_two(files, capsys):
    _, write = files
    pref = write("pref.json", {"n": 3, "p": RPS})
    assert run(["solve", "--pref", pref, "--psi", "no_such_mapping"]) == 2


def test_stray_mapping_field_exits_two(files, capsys):
    _, write = files
    pref = write("pref.json", {"n": 3, "p": RPS})
    mapping = write("stray.json", {"kind": "identity", "k": 2})
    assert run(["solve", "--pref", pref, "--psi", mapping]) == 2
    assert capsys.readouterr().err == "error: mapping kind 'identity' has no field 'k'\n"


def test_boolean_mapping_field_exits_two(files, capsys):
    _, write = files
    pref = write("pref.json", {"n": 3, "p": RPS})
    mapping = write("bool.json", {"kind": "power", "k": True})
    assert run(["solve", "--pref", pref, "--psi", mapping]) == 2
    assert capsys.readouterr().err == "error: mapping field 'k' must be a number, got True\n"


def test_mapping_kind_name_needs_its_fields(files, capsys, monkeypatch):
    tmp_path, write = files
    pref = write("pref.json", {"n": 3, "p": RPS})
    monkeypatch.chdir(tmp_path)
    assert not os.path.exists("affine")
    assert run(["solve", "--pref", pref, "--psi", "affine"]) == 2
    assert capsys.readouterr().err == "error: mapping JSON for kind 'affine' is missing field 'a'\n"


def test_decompose(files, capsys):
    _, write = files
    path = write("pref.json", {"n": 3, "p": RPS})
    assert run(["decompose", "--pref", path, "--format", "json"]) == 0
    report = out_json(capsys)
    assert report["groups"] == [[0, 1, 2]]
    assert report["kinds"] == ["cycle"]


def test_decompose_table_lists_one_group_per_line(files, capsys):
    # A three-cycle over a response that all three beat.
    _, write = files
    p = [[0.5, 0.9, 0.1, 0.8], [0.1, 0.5, 0.9, 0.8], [0.9, 0.1, 0.5, 0.8], [0.2, 0.2, 0.2, 0.5]]
    assert run(["decompose", "--pref", write("pref.json", {"n": 4, "p": p})]) == 0
    assert capsys.readouterr().out.splitlines() == ["groups:", "  0  1  2", "  3", "kinds: cycle  singleton"]


def test_decompose_tie_exits_two(files, capsys):
    _, write = files
    path = write("tied.json", {"n": 2, "p": [[0.5, 0.5], [0.5, 0.5]]})
    assert run(["decompose", "--pref", path]) == 2
    assert "tie" in capsys.readouterr().err.lower()


def test_check_mapping_builtin(capsys):
    assert run(["check-psi", "--psi", "identity", "--format", "json"]) == 0
    report = out_json(capsys)
    assert report["condorcet_ok"] and report["mixed_ok"] and report["smith_ok"]


def test_check_mapping_violating_file(files, capsys):
    _, write = files
    path = write("square.json", {"kind": "power", "k": 2.0})
    assert run(["check-psi", "--psi", path, "--format", "json"]) == 1
    report = out_json(capsys)
    assert report["condorcet_ok"] is True
    assert report["smith_ok"] is False
    assert report["witnesses"]


@pytest.mark.parametrize(
    "points,failed",
    [
        # A spike above the midpoint value and a dip of f(t) + f(1-t), both
        # narrower than the spacing of a dense grid.
        ([[0, -1], [0.10002, -1], [0.10003, 5], [0.10004, -1], [0.5, 0], [1, 1]], "condorcet_ok"),
        ([[0, 0], [0.5, 0.5], [0.70002, 0.70002], [0.70003, 0.69], [0.70004, 0.70004], [1, 1]], "mixed_ok"),
    ],
)
def test_check_mapping_narrow_violation_exits_one(files, capsys, points, failed):
    _, write = files
    path = write("narrow.json", {"kind": "piecewise_linear", "points": points})
    assert run(["check-psi", "--psi", path, "--format", "json"]) == 1
    report = out_json(capsys)
    assert report[failed] is False
    assert report["smith_ok"] is False


def test_verdict_consistent(files, capsys):
    _, write = files
    path = write("pref.json", {"n": 4, "p": TRANSITIVE})
    assert run(["verdict", "--pref", path, "--psi", "identity", "--format", "json"]) == 0
    report = out_json(capsys)
    assert report["condorcet_winner"] == 0
    assert report["condorcet_consistent"] is True


def test_verdict_cycle_has_no_winner(files, capsys):
    _, write = files
    path = write("pref.json", {"n": 3, "p": RPS})
    assert run(["verdict", "--pref", path, "--psi", "log_odds", "--format", "json"]) == 0
    report = out_json(capsys)
    assert report["condorcet_winner"] is None
    assert report["condorcet_consistent"] is None
    assert report["smith_consistent"] is True


def test_verdict_violation_exits_one(files, capsys):
    # A decreasing mapping steers the solver to the overall loser.
    _, write = files
    pref = write("pref.json", {"n": 4, "p": TRANSITIVE})
    mapping = write(
        "dec.json",
        {"kind": "piecewise_linear", "points": [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]},
    )
    assert run(["verdict", "--pref", pref, "--psi", mapping, "--format", "json"]) == 1
    report = out_json(capsys)
    assert report["condorcet_consistent"] is False


def test_btl_inline_rewards(capsys):
    assert run(["btl", "--rewards", "1,0", "--format", "json"]) == 0
    report = out_json(capsys)
    assert report["preferences"]["p"][0][1] == pytest.approx(0.7310585786300049)
    assert report["pm_policy"]["w"][0] == pytest.approx(np.e / (1.0 + np.e))


def test_btl_table_indents_nested_reports(capsys):
    assert run(["btl", "--rewards", "1,0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "preferences:",
        "  n: 2",
        "  p:",
        "    0.5  0.73105857863",
        "    0.26894142137  0.5",
        "pm_policy:",
        "  n: 2",
        "  w: 0.73105857863  0.26894142137",
    ]


def test_btl_rewards_file(files, capsys):
    _, write = files
    path = write("rewards.json", {"rewards": [float(np.log(2.0)), 0.0]})
    assert run(["btl", "--rewards", path, "--format", "json"]) == 0
    np.testing.assert_allclose(out_json(capsys)["pm_policy"]["w"], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_kkt_feasible(files, capsys):
    _, write = files
    payoff = write("payoff.json", {"n": 2, "a": [[0.0, 1.0], [1.0, 0.0]]})
    target = write("target.json", {"w": [0.5, 0.5]})
    assert run(["kkt", "--payoff", payoff, "--target", target, "--format", "json"]) == 0
    assert out_json(capsys)["feasible"] is True


def test_kkt_reads_a_csv_payoff(files, capsys):
    tmp_path, write = files
    csv = tmp_path / "payoff.csv"
    csv.write_text("0,1\n1,0\n")
    target = write("target.json", {"w": [0.5, 0.5]})
    assert run(["kkt", "--payoff", str(csv), "--target", target, "--format", "json"]) == 0
    from_csv = capsys.readouterr().out
    payoff = write("payoff.json", {"n": 2, "a": [[0.0, 1.0], [1.0, 0.0]]})
    assert run(["kkt", "--payoff", payoff, "--target", target, "--format", "json"]) == 0
    assert from_csv == capsys.readouterr().out


def test_kkt_target_with_a_wrong_declared_n_exits_two(files, capsys):
    _, write = files
    payoff = write("payoff.json", {"n": 2, "a": [[0.0, 1.0], [1.0, 0.0]]})
    target = write("target.json", {"n": 4, "w": [0.5, 0.5]})
    assert run(["kkt", "--payoff", payoff, "--target", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {target}: declared n=4 but the data has n=2\n"


def test_kkt_overflowing_span_exits_two(files, capsys):
    _, write = files
    payoff = write("payoff.json", {"n": 2, "a": [[1e308, -1e308], [0.0, 0.0]]})
    target = write("target.json", {"n": 2, "w": [0.5, 0.5]})
    assert run(["kkt", "--payoff", payoff, "--target", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: payoff span is not finite: max 1e+308 - min -1e+308 = inf\n"


def test_kkt_infeasible_exits_one(files, capsys):
    _, write = files
    payoff = write("payoff.json", {"n": 2, "a": [[0.0, 1.0], [1.0, 0.0]]})
    target = write("target.json", {"w": [0.9, 0.1]})
    assert run(["kkt", "--payoff", payoff, "--target", target, "--format", "json"]) == 1
    report = out_json(capsys)
    assert report["feasible"] is False
    assert report["u"] is None


def test_pm_probe(files, capsys):
    _, write = files
    target = write("target.json", {"w": [0.6, 0.3, 0.1]})
    assert run(["pm-probe", "--target", target, "--format", "json"]) == 0
    report = out_json(capsys)
    assert report["gap"] == pytest.approx(0.4, abs=1e-6)
    assert report["kkt_feasible"] is False


def test_pm_probe_target_mass_beyond_the_float_range_exits_two(files, capsys):
    _, write = files
    target = write("target.json", {"w": [1e308, 0.1, 1e308, 2]})
    assert run(["pm-probe", "--target", target]) == 2
    assert capsys.readouterr().err == "error: policy mass inf is not 1\n"


def test_btl_rewards_beyond_the_float_range(capsys):
    assert run(["btl", "--rewards", "0.1,-1e308,1.0,1e308", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["pm_policy"]["w"] == [0.0, 0.0, 0.0, 1.0]
    assert report["preferences"]["p"][3] == [1.0, 1.0, 1.0, 0.5]


def test_pm_probe_degenerate_family(files, capsys):
    _, write = files
    target = write("target.json", {"w": [0.2, 0.3, 0.5]})
    rc = run(["pm-probe", "--target", target, "--family", "degenerate", "--format", "json"])
    assert rc == 0
    assert out_json(capsys)["kkt_feasible"] is True


@pytest.mark.parametrize("flag", ["--family-n", "--c2"])
def test_pm_probe_btl_rejects_degenerate_only_flags(files, capsys, flag):
    _, write = files
    target = write("target.json", {"w": [0.6, 0.3, 0.1]})
    assert run(["pm-probe", "--target", target, flag, "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} applies only to --family degenerate\n"


def test_gen_random_is_deterministic(capsys):
    assert run(["gen", "random", "--n", "4", "--seed", "9", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "random", "--n", "4", "--seed", "9", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    pg.validate_preferences(json.loads(first)["p"])


def test_gen_table_emits_the_preference_table(capsys):
    assert run(["gen", "table4", "--t1", "0.9", "--t2", "0.55", "--format", "json"]) == 0
    assert out_json(capsys) == pg.table_preferences("table4", 0.9, 0.55).to_dict()


def test_gen_table2_emits_the_preference_table(capsys):
    assert run(["gen", "table2", "--t", "0.8", "--format", "json"]) == 0
    assert out_json(capsys) == pg.table_preferences("table2", 0.8).to_dict()


def test_gen_table_pipeline(files, capsys):
    # The emitted table game must reproduce the degenerate solve end to end.
    tmp_path, write = files
    assert run(["gen", "table4", "--t1", "0.9", "--t2", "0.55", "--format", "json"]) == 0
    pref_path = tmp_path / "gen.json"
    pref_path.write_text(capsys.readouterr().out)
    mapping = write(
        "m3.json",
        {"kind": "piecewise_linear", "points": [[0.0, -4.5], [0.5, 0.5], [1.0, 1.0]]},
    )
    assert run(["solve", "--pref", str(pref_path), "--psi", mapping, "--format", "json"]) == 0
    report = out_json(capsys)
    np.testing.assert_allclose(report["row_strategy"], [0.0, 0.0, 0.0, 1.0], atol=1e-8)


def test_monte_carlo_clean_run(capsys):
    rc = run(["monte-carlo", "--trials", "5", "--seed", "11", "--no-timing", "--format", "json"])
    assert rc == 0
    report = out_json(capsys)
    assert report["trials"] == 5
    assert report["violations_condorcet"] == 0
    assert report["violations_smith"] == 0
    assert "elapsed_ms" not in report


def test_monte_carlo_is_byte_deterministic(capsys):
    argv = ["monte-carlo", "--trials", "6", "--seed", "4", "--no-timing", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert first == capsys.readouterr().out


def test_monte_carlo_violations_exit_one(files, capsys):
    tmp_path, write = files
    flipped = write("flip.json", {"kind": "piecewise_constant", "m_minus": 1.0, "mid": 0.0, "m_plus": 0.0})
    witness_dir = tmp_path / "witnesses"
    rc = run(
        [
            "monte-carlo",
            "--psi",
            flipped,
            "--trials",
            "8",
            "--seed",
            "3",
            "--n-min",
            "3",
            "--n-max",
            "5",
            "--witness-dir",
            str(witness_dir),
            "--no-timing",
            "--format",
            "json",
        ]
    )
    assert rc == 1
    report = out_json(capsys)
    assert report["violations_condorcet"] == 2
    assert report["violations_smith"] == 2
    dumped = sorted(os.listdir(witness_dir))
    assert dumped
    witness = json.loads((witness_dir / dumped[0]).read_text())
    assert "preferences" in witness


def test_monte_carlo_solver_error_names_the_trial(monkeypatch, capsys):
    solve = experiment.solve_maximin
    calls = []

    def fail_on_third(payoff):
        calls.append(payoff.n)
        if len(calls) == 3:
            raise pg.SolverError("exploitability 1 exceeds 1e-09 x payoff span 1; the LP solve lost accuracy")
        return solve(payoff)

    monkeypatch.setattr(experiment, "solve_maximin", fail_on_third)
    with pytest.raises(pg.SolverError) as info:
        pg.monte_carlo(pg.identity(), trials=5, seed=11)
    message = str(info.value)
    assert message.startswith("exploitability 1 exceeds 1e-09 x payoff span 1; the LP solve lost accuracy (")
    assert f"(monte-carlo trial 2: n={calls[2]}, seed=" in message
    assert isinstance(info.value.__cause__, pg.SolverError)

    # Trial 2 draws its size and generator seed from SeedSequence([11, 2]).
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([11, 2])))
    n = int(rng.integers(3, 9))
    assert message.endswith(f"(monte-carlo trial 2: n={n}, seed={int(rng.integers(0, 2**63))})")

    calls.clear()
    assert run(["monte-carlo", "--trials", "5", "--seed", "11", "--no-timing"]) == 2
    assert capsys.readouterr().err.startswith("error: exploitability 1 exceeds 1e-09")


SOLVE_PREF = ["solve", "--pref", "{bad}", "--psi", "identity"]


@pytest.mark.parametrize(
    "name,content,argv",
    [
        ("cell.csv", "0.5,x\n0.5,0.5\n", SOLVE_PREF),
        ("ragged.json", json.dumps({"p": [[0.5, 0.9, 0.1], [0.1, 0.5]]}), SOLVE_PREF),
        ("power.json", json.dumps({"kind": "power", "k": "x"}), ["solve", "--pref", "{pref}", "--psi", "{bad}"]),
        ("declared.json", json.dumps({"n": "abc", "p": RPS}), SOLVE_PREF),
        ("declared.json", json.dumps({"n": 3.7, "p": RPS}), SOLVE_PREF),
        ("declared.json", json.dumps({"n": True, "p": [[0.5]]}), SOLVE_PREF),
        ("declared.json", json.dumps({"n": float("inf"), "p": RPS}), SOLVE_PREF),
        # numpy reads true as 1.0, which made these valid numbers.
        ("boolean.json", json.dumps({"n": 2, "p": [[0.5, True], [False, 0.5]]}), SOLVE_PREF),
        ("target.json", json.dumps({"w": [True]}), ["kkt", "--payoff", "{payoff}", "--target", "{bad}"]),
        ("rewards.json", json.dumps({"rewards": [True, 2]}), ["btl", "--rewards", "{bad}"]),
        ("rewards.json", json.dumps({"n": 5, "rewards": [1, 2]}), ["btl", "--rewards", "{bad}"]),
        # Deeper than the JSON parser recurses; json.dumps could not write them either.
        ("deep.json", '{"p": ' + "[" * 5000 + "]" * 5000 + "}", ["validate", "--pref", "{bad}"]),
        (
            "deep-psi.json",
            '{"kind": "symmetric_extension", "base": ' * 990 + '{"kind": "identity"}' + "}" * 990,
            ["check-psi", "--psi", "{bad}"],
        ),
        # numpy and float read "0.9" as 0.9; a JSON string is not a number.
        ("string.json", json.dumps({"p": [["0.5", "0.9"], ["0.1", "0.5"]]}), SOLVE_PREF),
        ("rewards.json", json.dumps({"rewards": ["1", "2"]}), ["btl", "--rewards", "{bad}"]),
        ("power.json", json.dumps({"kind": "power", "k": "2"}), ["check-psi", "--psi", "{bad}"]),
    ],
    ids=[
        "csv-cell", "ragged-matrix", "mapping-field", "declared-n", "declared-n-fraction", "declared-n-boolean",
        "declared-n-infinite", "preference-boolean", "kkt-target-boolean", "btl-rewards-boolean",
        "btl-rewards-declared-n", "deep-preferences", "deep-mapping", "preference-string", "btl-rewards-string",
        "mapping-field-string",
    ],
)
def test_malformed_input_is_a_typed_error(tmp_path, capsys, name, content, argv):
    paths = {"pref": tmp_path / "rps.json", "payoff": tmp_path / "one.json", "bad": tmp_path / name}
    paths["pref"].write_text(json.dumps({"n": 3, "p": RPS}))
    paths["payoff"].write_text(json.dumps({"a": [[1.0]]}))
    paths["bad"].write_text(content)
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["gen", "random", "--seed", "-1"], ["monte-carlo", "--seed", "-5"]], ids=["gen-random", "monte-carlo"]
)
def test_negative_seed_is_a_typed_error(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: seed must be non-negative, got {argv[-1]}\n"


# Every JSON input a subcommand reads, with {bad} in one place and good files elsewhere.
JSON_INPUTS = pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--pref", "{bad}"],
        ["solve", "--pref", "{bad}", "--psi", "identity"],
        ["solve", "--pref", "{pref}", "--psi", "{bad}"],
        ["kkt", "--payoff", "{bad}", "--target", "{target}"],
        ["kkt", "--payoff", "{payoff}", "--target", "{bad}"],
        ["pm-probe", "--target", "{bad}"],
        ["btl", "--rewards", "{bad}"],
    ],
    ids=["validate", "solve-pref", "solve-psi", "kkt-payoff", "kkt-target", "pm-probe", "btl"],
)


def _run_with_bad_file(files, argv, content):
    tmp_path, write = files
    paths = {
        "pref": write("pref.json", {"n": 3, "p": RPS}),
        "payoff": write("payoff.json", {"a": [[0.0, 1.0], [-1.0, 0.0]]}),
        "target": write("target.json", {"w": [0.5, 0.5]}),
        "bad": str(tmp_path / "bad.json"),
    }
    (tmp_path / "bad.json").write_text(content)
    assert run([arg.format(**paths) for arg in argv]) == 2
    return paths


@JSON_INPUTS
@pytest.mark.parametrize("content", ["3", "[[0.5]]"])
def test_json_input_that_is_not_an_object(files, capsys, argv, content):
    paths = _run_with_bad_file(files, argv, content)
    kind = type(json.loads(content)).__name__
    assert capsys.readouterr().err == f"error: {paths['bad']}: JSON top level must be an object, got {kind}\n"


@JSON_INPUTS
def test_truncated_json_input_names_its_file(files, capsys, argv):
    paths = _run_with_bad_file(files, argv, '{"n": 3, "p": [[0.5, 0.9')
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths['bad']}: not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("rewards", [["a", 1], "abc"])
def test_btl_non_numeric_rewards_exit_two(files, capsys, rewards):
    _, write = files
    assert run(["btl", "--rewards", write("rewards.json", {"rewards": rewards})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rewards must be an array of numbers")
    assert "Traceback" not in err


# The flags each subcommand reads; a flag it would ignore must not parse.
SUBCOMMAND_FLAGS = {
    "validate": {"--pref"},
    "solve": {"--pref", "--psi"},
    "decompose": {"--pref"},
    "check-psi": {"--psi"},
    "verdict": {"--pref", "--psi"},
    "btl": {"--rewards"},
    "kkt": {"--payoff", "--target"},
    "pm-probe": {"--target", "--family", "--c", "--c2", "--family-n"},
    "gen random": {"--n", "--seed", "--strength-low", "--strength-high", "--force-no-winner"},
    "gen table2": {"--t"},
    "gen table4": {"--t1", "--t2"},
    "gen table6": {"--t1", "--t2"},
    "monte-carlo": {
        "--psi", "--trials", "--seed", "--n-min", "--n-max", "--force-no-winner", "--witness-dir", "--no-timing",
    },
}


def _flags(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


def _leaf_parsers(parser, path=()):
    """Yield (command words, parser) for every parser without subcommands.

    A parser with subcommands, such as ``gen``, must itself take no flag
    but ``--help``.
    """
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        yield " ".join(path), parser
        return
    if path:
        assert _flags(parser) == {"-h", "--help"}, " ".join(path)
    for action in nested:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_subcommands_take_only_the_flags_they_read():
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert set(leaves) == set(SUBCOMMAND_FLAGS)
    for name, sub in leaves.items():
        assert _flags(sub) == SUBCOMMAND_FLAGS[name] | {"-h", "--help", "--format", "--out"}, name


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--pref", "pref.json", "--seed", "3"],
        ["verdict", "--pref", "pref.json", "--psi", "identity", "--tol", "1e-3"],
        ["check-psi", "--psi", "identity", "--grid", "5"],
        ["gen", "table2", "--n", "9"],
        ["gen", "random", "--t", "0.7"],
    ],
)
def test_ignored_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cached_parser_prints_what_fresh_processes_print(capsys, monkeypatch):
    # argparse wraps usage at the terminal's width; both sides get the same.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    sequence = [
        ["gen", "random", "--bogus"],
        ["gen", "random", "--n", "4", "--seed", "9"],
        ["monte-carlo", "--no-timing", "--format", "json"],
    ]
    codes = []
    for argv in sequence:
        try:
            codes.append(run(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "prefgame", *argv], capture_output=True, text=True)
        assert (codes[-1], captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [2, 0, 0]


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prefgame", "check-psi", "--psi", "log_odds", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["smith_ok"] is True
