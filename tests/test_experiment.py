"""The Monte Carlo harness as a library call."""

import pytest

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
        "layers_ms",
    ]
    assert list(summary.to_dict(include_timing=False)) == list(summary.to_dict())[:-2]
    assert list(summary.layers_ms) == ["generate", "map", "solve", "verdict"]
    assert summary.to_dict()["psi"] == {"kind": "identity"}


@pytest.mark.parametrize(
    "make",
    [lambda: pg.GeneratorConfig(n=3, seed=-1), lambda: pg.monte_carlo(pg.identity(), trials=3, seed=-1)],
    ids=["generator-config", "monte-carlo"],
)
def test_negative_seed_is_a_validation_error(make):
    # numpy's SeedSequence would raise a bare ValueError deep inside the draw.
    with pytest.raises(pg.ValidationError, match="seed must be non-negative, got -1"):
        make()
