"""The paper's empirical claims, asserted on measured runs.

Every ``paper``-tagged scenario (Section 5's Figs. 2-5, the Theorem
2.1/2.2 tables and the baseline comparison) runs once at ``quick`` effort
through :func:`repro.scenarios.run_scenario`, and its rows are checked
against the claim the paper makes for that figure or table.  The quick
presets scale ``n`` and the horizon down; the shapes checked here survive
that scaling.  Timing these scenarios is ``repro.bench``'s job, not this
module's.

:data:`CLAIMS` is the single table of checks: a new paper scenario must
add its claim here (``test_every_paper_scenario_has_a_claim``).
"""

from __future__ import annotations

import pytest

from repro.scenarios import iter_scenarios, run_scenario


def check_fig2(rows):
    """Fig. 2: from an empty start the estimate settles near ``log2 n``."""
    for row in rows:
        # The steady-state estimate is a constant-factor approximation of
        # log2 n (the max-of-GRVs offset makes it sit above log2 n).
        assert row["steady_median"] >= 0.5 * row["log2_n"]
        assert row["steady_maximum"] <= 8.0 * row["log2_n"]


def check_fig3(rows):
    """Fig. 3: the relative deviation from ``log n`` approaches 1 as n grows."""
    rows = sorted(rows, key=lambda row: row["n"])
    for row in rows:
        assert row["relative_minimum"] >= 0.4
        assert row["relative_maximum"] <= 8.0
    # Shape check: the median relative deviation shrinks as n grows (the
    # paper's headline observation for this figure).
    assert rows[-1]["relative_median"] <= rows[0]["relative_median"]


def check_fig4(rows):
    """Fig. 4: after a decimation the estimate drops to the new ``log n``."""
    for row in rows:
        # Before the drop the estimate tracks the original population size.
        assert row["median_before_drop"] >= 0.5 * row["log2_n"]
        # The drop is detected: the adaptation-time column is populated
        # whenever the original population is meaningfully larger than the
        # surviving one.
        if row["log2_n"] - row["log2_keep"] >= 2.0:
            assert row["adapted"], f"no adaptation detected for n={row['n']}"
            assert row["adaptation_time"] > row["drop_time"]


def check_fig5(rows):
    """Fig. 5 (Appendix B): an initial over-estimate of 60 is forgotten."""
    rows = sorted(rows, key=lambda row: row["n"])
    # The largest population always forgets the over-estimate within the
    # horizon (its clock rounds are short relative to the horizon).
    largest = rows[-1]
    assert largest["forgot_initial_estimate"]
    assert largest["median_at_end"] < largest["initial_estimate"]


def check_convergence(rows):
    """Theorem 2.1: every run converges to a valid estimate."""
    for row in rows:
        assert row["converged"], f"run did not converge: {row}"
        assert row["convergence_time"] >= 0


def check_holding(rows):
    """Theorem 2.1: once valid, estimates stay valid.

    The theoretical holding time is ``Theta(n^{k-1} log n)`` with k=16, so
    within any feasible horizon validity must simply hold to the end.
    """
    for row in rows:
        assert row["held_until_end_of_run"], f"estimates became invalid: {row}"
        assert row["observed_rounds_held"] > 1


def check_memory(rows):
    """Theorem 2.1: ours needs fewer bits per agent than Doty–Eftekhari.

    Ours is O(log s + log log n) bits against the baseline's
    O(log n log log n)-style storage, so the gap widens with n.
    """
    rows = sorted(rows, key=lambda row: row["n"])
    for row in rows:
        assert row["doty_eftekhari_steady_bits"] > row["ours_steady_bits"]
    # The overhead factor grows with n (different asymptotics).
    assert rows[-1]["baseline_over_ours"] >= rows[0]["baseline_over_ours"] * 0.9


def check_phase_clock(rows):
    """Theorem 2.2: each agent ticks once per burst; period Theta(n log n)."""
    for row in rows:
        assert row["exact_burst_fraction"] >= 0.6
        assert row["mean_overlap_interactions"] > row["mean_burst_interactions"]
        assert row["mean_period_interactions"] > 0


def check_baseline(rows):
    """Section 2.2: ours and Doty–Eftekhari adapt to a decimation, static max-of-GRVs does not.

    The Doty–Eftekhari baseline also pays a larger per-agent memory footprint.
    """
    by_protocol = {}
    for row in rows:
        by_protocol.setdefault(row["protocol"], []).append(row)
    for row in by_protocol["dynamic-size-counting (ours)"]:
        assert row["adapted_to_drop"]
    for row in by_protocol["static-max-grv"]:
        assert not row["adapted_to_drop"]
    for row in by_protocol["doty-eftekhari-2022"]:
        ours = by_protocol["dynamic-size-counting (ours)"][0]
        assert row["peak_bits_per_agent"] > ours["peak_bits_per_agent"]


#: The claim checked for each paper scenario, keyed by scenario name.
CLAIMS = {
    "baseline": check_baseline,
    "convergence": check_convergence,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "fig4": check_fig4,
    "fig5": check_fig5,
    "holding": check_holding,
    "memory": check_memory,
    "phase_clock": check_phase_clock,
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_paper_claim(name):
    CLAIMS[name](run_scenario(name, effort="quick").rows)


def test_every_paper_scenario_has_a_claim():
    assert set(CLAIMS) == {s.name for s in iter_scenarios() if "paper" in s.tags}


@pytest.mark.parametrize("name", ("oscillate", "boom_bust", "churn", "repeated_decimation"))
def test_catalog_scenario_has_rows(name):
    """The adversarial catalog runs end to end with the engine auto-selected."""
    result = run_scenario(name, effort="quick")
    assert result.rows
