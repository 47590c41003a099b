"""The claims of the measured and extension experiments (E7, E9-E13 of
DESIGN.md §4), asserted on the one function in ``repro.experiments`` that
runs each experiment — the same function ``repro report`` prints.

Sizes are the ones the claims were first asserted at; where they differ
from the CLI's defaults the test passes them explicitly.
"""

from __future__ import annotations

import pytest

from repro.costmodel.parameters import PaperParameters
from repro.experiments.measured import (
    hot_key_rows,
    measure_bytes_series,
    measure_io_series,
    run_example6_once,
)
from repro.experiments.tables import (
    audit_rows,
    batching_rows,
    multisource_rows,
    staleness_rows,
)
from repro.simulation.schedules import BestCaseSchedule, WorstCaseSchedule

PARAMS = PaperParameters()

#: The Section 3.1 hierarchy, weakest first.
LEVELS = [
    "incorrect",
    "convergent",
    "weakly consistent",
    "consistent",
    "strongly consistent",
    "complete",
]


def nondecreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def io_series():
    """E7's measured I/O curves, both scenarios, k = 1, 3, ..., 11."""
    return {scenario: measure_io_series(scenario, PARAMS) for scenario in (1, 2)}


class TestE7MeasuredAgainstAnalytic:
    def test_bytes_keep_the_analytic_order(self):
        series = measure_bytes_series(PARAMS, k_values=(3, 12, 24, 48))
        # Every curve grows with k; the single recompute grows only
        # through relation growth, so it is not checked.
        for name in ("BRVWorst", "BECABest", "BECAWorst"):
            assert nondecreasing(series[name]), name
        for eca, rv in zip(series["BECAWorst"], series["BRVWorst"]):
            assert eca * 5 < rv
        for best, worst in zip(series["BECABest"], series["BECAWorst"]):
            assert worst >= best

    def test_scenario_1_io_crosses_recompute_once_at_small_k(self, io_series):
        series = io_series[1]
        assert series["IORVWorst"][-1] > series["IOECAWorst"][-1]
        assert series["IOECAWorst"][-1] > series["IOECABest"][-1]
        crossing = [
            k
            for k, eca, rv in zip(series["k"], series["IOECABest"], series["IORVBest"])
            if eca >= rv
        ]
        assert crossing and crossing[0] <= 7  # the paper's k = 3

    def test_scenario_2_io_dwarfs_scenario_1_and_eca_wins_by_about_i(
        self, io_series
    ):
        s1, s2 = io_series[1], io_series[2]
        for name in ("IORVBest", "IORVWorst", "IOECABest", "IOECAWorst"):
            assert s2[name][-1] > s1[name][-1], name
        assert s2["IORVWorst"][-1] / s2["IOECABest"][-1] > PARAMS.I / PARAMS.I_prime

    def test_compensation_shows_in_terms_not_messages(self):
        best = run_example6_once(PARAMS, 9, "eca", BestCaseSchedule())
        worst = run_example6_once(PARAMS, 9, "eca", WorstCaseSchedule())
        assert best.terms_evaluated == 9  # one single-term query per update
        assert worst.terms_evaluated > best.terms_evaluated
        assert best.messages == worst.messages == 18  # M = 2k regardless

    def test_a_sqlite_source_measures_what_a_memory_source_does(self):
        memory, sqlite = (
            run_example6_once(
                PARAMS, 6, "eca", WorstCaseSchedule(), io_scenario=1, seed=4,
                source_kind=kind,
            )
            for kind in ("memory", "sqlite")
        )
        assert memory.summary() == sqlite.summary()


def test_e9_the_papers_levels_are_observed_floors():
    levels = {
        row["algorithm"]: [
            LEVELS.index(level) for level in row["observed levels"].split(", ")
        ]
        for row in audit_rows(workloads=10, updates=10, schedules=5)
    }
    for name in ("eca", "eca-key", "eca-local"):
        assert min(levels[name]) >= LEVELS.index("strongly consistent"), name
    for name in ("lca", "stored-copies"):
        assert set(levels[name]) == {LEVELS.index("complete")}, name
    # ...and the basic algorithm demonstrably breaks somewhere.
    assert min(levels["basic"]) < LEVELS.index("weakly consistent")


def test_e10_batching_sends_2_ceil_k_over_b_and_stays_strong():
    rows = batching_rows(updates=24, batch_sizes=(1, 2, 4, 8, 24))
    for row in rows:
        assert row["messages"] == 2 * -(-24 // row["batch"])
        assert row["level"] in ("strongly consistent", "complete"), row
    messages = [row["messages"] for row in rows]
    assert messages == sorted(messages, reverse=True)


def test_e11_fewer_messages_cost_freshness():
    rows = {
        row["policy"]: row
        for row in staleness_rows(updates=24, periods=(1, 6, 24), batches=(4, 12))
    }
    for row in rows.values():
        assert row["level"] in ("strongly consistent", "complete"), row
    eca, rv6, rv24 = rows["ECA (immediate)"], rows["RV s=6"], rows["RV s=24"]
    assert eca["messages"] == 2 * 24
    assert rv24["messages"] == 2
    assert rv24["max lag"] >= 24 - 1
    assert eca["mean lag"] <= rv6["mean lag"] <= rv24["mean lag"]
    assert rows["Batch b=4"]["messages"] < eca["messages"]
    assert rows["Batch b=4"]["mean lag"] <= rows["Batch b=12"]["mean lag"]


class TestE12HotKeys:
    def test_skew_opens_a_superlinear_byte_gap(self):
        gap = {
            (row["theta"], row["k"]): row["gap"]
            for row in hot_key_rows(PARAMS, thetas=(0.0, 4.0, 16.0), k_values=(12, 24))
        }
        # Uniform keys: compensation is (near) vacuous...
        assert gap[(0.0, 24)] <= gap[(16.0, 12)]
        # ...skew opens the gap, and doubling k more than doubles it (the
        # model's k(k-1) term).
        assert gap[(16.0, 24)] > gap[(0.0, 24)]
        assert gap[(16.0, 24)] > 0
        assert gap[(16.0, 24)] > 2 * gap[(16.0, 12)]

    def test_io_compensation_appears_at_every_skew(self):
        """A term costs I/Os whether or not it matches tuples."""
        for row in hot_key_rows(PARAMS, thetas=(0.0, 16.0), k_values=(9,)):
            assert row["IO worst"] > row["IO best"], row


def test_e13_the_naive_transplant_fails_where_sc_and_strobe_never_do():
    rows = {row["algorithm"]: row for row in multisource_rows(runs=25)}
    for kind in ("sc", "strobe"):
        assert rows[kind]["converged"] == rows[kind]["cut-consistent"] == "25/25"
    assert rows["sc"]["complete"] == "25/25"
    assert int(rows["naive"]["converged"].split("/")[0]) < 25
