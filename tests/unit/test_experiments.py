"""Unit tests for the experiment harness (figures, tables, reports), and
the paper's claims about Table 1, the Section 6.1 message counts and
Figures 6.2-6.5 (E1-E6 of DESIGN.md §4), asserted on the series."""

import re
from pathlib import Path

import pytest

from repro.costmodel import analytic
from repro.costmodel.parameters import PaperParameters
from repro.errors import SimulationError
from repro.experiments import runner
from repro.experiments.figures import (
    ALL_FIGURES,
    figure_6_2,
    figure_6_3,
    figure_6_4,
    figure_6_5,
)
from repro.experiments.full_report import generate_report
from repro.experiments.measured import run_example6_once
from repro.experiments.report import render_series, render_table
from repro.experiments.tables import messages_table, parameter_table
from repro.simulation.schedules import BestCaseSchedule, ScriptedSchedule
from repro.source.sqlite import SQLiteSource
from repro.workloads.paper_examples import PAPER_EXAMPLES


class TestFigure62:
    def test_default_sweep(self):
        series = figure_6_2()
        assert series["C"] == [float(c) for c in range(1, 21)]
        assert set(series) == {"C", "BRVBest", "BRVWorst", "BECABest", "BECAWorst"}

    def test_eca_curves_flat_in_c(self):
        series = figure_6_2()
        assert len(set(series["BECABest"])) == 1
        assert len(set(series["BECAWorst"])) == 1

    def test_rv_curves_linear_in_c(self):
        series = figure_6_2()
        # BRVBest = S sigma J^2 * C: slope 32 per unit C.
        diffs = {
            series["BRVBest"][i + 1] - series["BRVBest"][i]
            for i in range(len(series["C"]) - 1)
        }
        assert diffs == {32.0}

    def test_eca_wins_beyond_about_five_tuples(self):
        series = figure_6_2()
        for c, rv, eca in zip(series["C"], series["BRVBest"], series["BECAWorst"]):
            if c >= 5:
                assert eca <= rv

    def test_rv_worst_is_three_recomputes_and_tiny_relations_favor_rv(self):
        series = figure_6_2()
        for best, worst in zip(series["BRVBest"], series["BRVWorst"]):
            assert worst == 3 * best
        assert series["BECAWorst"][0] > series["BRVBest"][0]  # C = 1

    def test_eca_wins_over_wide_ranges_of_the_join_factor(self):
        """'This result continues to hold over wide ranges of J, except if
        J is very small' — J = 1 is the exception the paper allows."""
        for j in (2, 4, 8, 16):
            series = figure_6_2(PaperParameters().replace(join_factor=j))
            for c, rv, eca in zip(
                series["C"], series["BRVBest"], series["BECAWorst"]
            ):
                if c >= 10:
                    assert eca <= rv, f"J={j}, C={c}"


class TestFigure63:
    def test_rv_best_constant(self):
        series = figure_6_3()
        assert len(set(series["BRVBest"])) == 1

    def test_eca_best_linear_eca_worst_quadratic(self):
        series = figure_6_3(k_values=range(1, 61))
        best = series["BECABest"]
        worst = series["BECAWorst"]
        first_diffs_best = {round(best[i + 1] - best[i], 6) for i in range(59)}
        assert len(first_diffs_best) == 1  # linear
        second_diffs = {
            round((worst[i + 2] - worst[i + 1]) - (worst[i + 1] - worst[i]), 6)
            for i in range(58)
        }
        assert len(second_diffs) == 1 and 0 not in second_diffs  # quadratic

    def test_every_curve_but_rv_best_grows_and_rv_worst_dominates(self):
        series = figure_6_3()
        for name in ("BRVWorst", "BECABest", "BECAWorst"):
            values = series[name]
            assert all(a < b for a, b in zip(values, values[1:])), name
        for rv, eca in zip(series["BRVWorst"], series["BECAWorst"]):
            assert rv > eca

    def test_worst_minus_best_is_the_compensation_term(self):
        """The gap is exactly ``k(k-1) S sigma J / 3``."""
        params = PaperParameters()
        series = figure_6_3(params)
        for k, best, worst in zip(
            series["k"], series["BECABest"], series["BECAWorst"]
        ):
            assert worst - best == pytest.approx(
                k * (k - 1) * params.S * params.sigma * params.J / 3
            )

    def test_larger_cardinality_moves_the_crossover_out(self):
        points = [
            analytic.crossover_k(
                analytic.bytes_eca_worst,
                lambda p, k: analytic.bytes_rv_best(p),
                PaperParameters(cardinality=c),
            )
            for c in (50, 100, 200, 400)
        ]
        assert points == sorted(points) and points[0] < points[-1]

    def test_crossovers_visible_in_series(self):
        series = figure_6_3()
        k = series["k"]
        # ECAWorst crosses RVBest by k=30, ECABest by k=100.
        assert series["BECAWorst"][k.index(29.0)] < series["BRVBest"][0]
        assert series["BECAWorst"][k.index(30.0)] >= series["BRVBest"][0]
        assert series["BECABest"][k.index(99.0)] < series["BRVBest"][0]
        assert series["BECABest"][k.index(100.0)] >= series["BRVBest"][0]


class TestIOFigures:
    def test_figure_6_4_crossover_at_k3(self):
        series = figure_6_4()
        k = series["k"]
        assert series["IOECABest"][k.index(2.0)] < series["IORVBest"][0]
        assert series["IOECABest"][k.index(3.0)] >= series["IORVBest"][0]

    def test_figure_6_4_slopes_and_worst_case_order(self):
        params = PaperParameters()
        series = figure_6_4(params)
        assert series["IORVBest"][0] == 3 * params.I  # 15
        for i in range(len(series["k"]) - 1):
            assert series["IOECABest"][i + 1] - series["IOECABest"][i] == params.J + 1
            assert series["IORVWorst"][i + 1] - series["IORVWorst"][i] == 3 * params.I
        for eca, rv in zip(series["IOECAWorst"], series["IORVWorst"]):
            assert eca <= rv

    def test_figure_6_4_eca_wins_arbitrarily_when_j_is_below_i(self):
        """At C=2000 (I=100) one update costs ECA J+1 and RV 3I."""
        series = figure_6_4(PaperParameters(cardinality=2000), k_values=[1])
        assert series["IORVBest"][0] - series["IOECABest"][0] == 300 - 5

    def test_figure_6_5_slopes_crossover_and_factor_i(self):
        params = PaperParameters()
        series = figure_6_5(params)
        rv_best = series["IORVBest"][0]
        crossed = [
            k for k, eca in zip(series["k"], series["IOECABest"]) if eca >= rv_best
        ]
        # ceil(I^3 / (I * I')) = 9; the paper eyeballs "5 < k < 8".
        assert crossed[0] == 9
        for i in range(len(series["k"]) - 1):
            assert series["IORVWorst"][i + 1] - series["IORVWorst"][i] == rv_best
        for eca, rv in zip(series["IOECABest"], series["IORVWorst"]):
            assert rv / eca >= params.I / params.I_prime

    def test_scenario_2_costs_dwarf_scenario_1(self):
        s1, s2 = figure_6_4(), figure_6_5()
        for name in ("IORVBest", "IORVWorst", "IOECABest", "IOECAWorst"):
            assert all(b > a for a, b in zip(s1[name], s2[name])), name

    def test_figure_6_5_rv_best_is_125(self):
        series = figure_6_5()
        assert set(series["IORVBest"]) == {125.0}

    def test_figure_6_5_worst_crossover_in_paper_window(self):
        series = figure_6_5()
        k = series["k"]
        crossed = [
            kk
            for kk, eca in zip(k, series["IOECAWorst"])
            if eca >= series["IORVBest"][0]
        ]
        assert 5 < crossed[0] < 8

    def test_custom_params_flow_through(self):
        params = PaperParameters(cardinality=200)
        series = figure_6_5(params, k_values=[1])
        assert series["IORVBest"][0] == params.I**3

    def test_all_figures_registry(self):
        assert set(ALL_FIGURES) == {
            "figure-6.2",
            "figure-6.3",
            "figure-6.4",
            "figure-6.5",
        }
        for fn in ALL_FIGURES.values():
            assert fn()  # runs with defaults


class TestTables:
    def test_parameter_table_matches_table1(self):
        rows = {row["name"]: row["value"] for row in parameter_table()}
        assert rows["C"] == 100
        assert rows["S"] == 4
        assert rows["sigma"] == 0.5
        assert rows["J"] == 4
        assert rows["K"] == 20
        assert rows["I"] == 5
        assert rows["I'"] == 3

    def test_messages_table_extremes(self):
        rows = messages_table(k_values=(10,), periods=(1,))
        by_s = {(row["k"], row["s"]): row for row in rows}
        assert by_s[(10, 1)]["M_RV"] == 20
        assert by_s[(10, 10)]["M_RV"] == 2
        assert all(row["M_ECA"] == 20 for row in rows)

    def test_eca_always_sends_2k_and_rv_between_2_and_2k(self):
        rows = messages_table(k_values=(1, 5, 10, 50, 100), periods=(1, 5, 10))
        for row in rows:
            assert row["M_ECA"] == 2 * row["k"]
            assert 2 <= row["M_RV"] <= row["M_ECA"]

    def test_messages_table_skips_s_greater_than_k(self):
        rows = messages_table(k_values=(2,), periods=(5,))
        assert all(row["s"] <= row["k"] for row in rows)


class TestRendering:
    def test_render_series_alignment(self):
        text = render_series("T", {"k": [1.0, 2.0], "A": [10.0, 20.5]}, x_key="k")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[2]
        assert "20.50" in text

    def test_render_table(self):
        text = render_table("T", [{"a": 1, "b": "x"}, {"a": 22, "b": "y"}])
        assert "a" in text and "22" in text

    def test_render_table_empty(self):
        assert "empty" in render_table("T", [])


DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def test_the_full_report_has_a_section_for_every_experiment():
    """Every experiment DESIGN.md §4 indexes is a section of the report:
    headed by its label (``E11 — ...``) or, for a figure, by its name."""
    index = DESIGN.read_text().split("## 4.", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (E\d+): ([^|]*)\|", index, re.MULTILINE)
    assert [label for label, _ in rows] == [f"E{n}" for n in range(1, 14)]
    text = generate_report()
    headings = re.findall(r"^={72}\n(.+)\n={72}$", text, re.MULTILINE)
    for label, title in rows:
        names = [label + " "] + [
            "figure-" + number for number in re.findall(r"Figure (6\.\d)", title)
        ]
        assert any(h.startswith(tuple(names)) for h in headings), (label, headings)


class TestSQLiteConnections:
    """A run over a ``"sqlite"`` source closes its connection whether the
    run returns or raises."""

    @pytest.fixture
    def closed(self, monkeypatch):
        closed = []

        class RecordingSource(SQLiteSource):
            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(runner, "SQLiteSource", RecordingSource)
        return closed

    def test_an_unknown_algorithm_still_closes_the_connection(self, closed):
        params = PaperParameters(cardinality=10)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_example6_once(
                params, 2, "bogus", BestCaseSchedule(), source_kind="sqlite"
            )
        assert len(closed) == 1

    def test_a_schedule_that_does_not_fit_still_closes_the_connection(self, closed):
        scenario = PAPER_EXAMPLES["example-1"]
        with pytest.raises(SimulationError, match="not available"):
            runner.run_scenario(
                scenario, schedule=ScriptedSchedule(["answer"]), source_kind="sqlite"
            )
        assert len(closed) == 1

    def test_a_run_that_returns_closes_the_connection_once(self, closed):
        runner.run_scenario(PAPER_EXAMPLES["example-1"], source_kind="sqlite")
        run_example6_once(
            PaperParameters(cardinality=10), 2, "eca", BestCaseSchedule(),
            source_kind="sqlite",
        )
        assert len(closed) == 2
