"""The Monte Carlo harness as a library call."""

import prefgame as pg


def test_summary_dict_keeps_field_order():
    summary = pg.monte_carlo(pg.identity(), trials=3, seed=5)
    assert isinstance(summary, pg.MonteCarloSummary)
    assert list(summary.to_dict()) == [
        "trials",
        "seed",
        "psi",
        "n_min",
        "n_max",
        "force_no_winner",
        "violations_condorcet",
        "violations_smith",
        "violations_mixed",
        "worst_mass_outside_smith",
        "elapsed_ms",
    ]
    assert list(summary.to_dict(include_timing=False)) == list(summary.to_dict())[:-1]
    assert summary.to_dict()["psi"] == {"kind": "identity"}
