"""``tools/same_histories.py``: the generated matrix and what an allowance masks.

The tool's end-to-end run needs two trees and a minute; these pin the
parts that decide what it compares.
"""

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from same_histories import (  # noqa: E402
    AXES,
    ROW_OUTPUTS,
    SUITES,
    V6_FIXTURE_TESTS,
    V7_FORM_TESTS,
    Report,
    Tree,
    compare_row,
    compare_suites,
    conflicts,
    history_components,
    normalize_metrics,
    normalize_recovered,
    normalize_stdout,
    normalize_trace,
    pairwise,
    portable,
    row_arguments,
    run_suites,
    shares_a_class,
)

from repro.cli import build_parser  # noqa: E402
from repro.core.registry import ALGORITHMS  # noqa: E402

MULTI = {name for name, cls in ALGORITHMS.items() if cls.multi_source}
AXIS_VALUES = [("algorithm", sorted(ALGORITHMS))] + [
    (name, [label for label, _ in values]) for name, values in AXES
]


class TestMatrix:
    def test_every_feasible_pair_is_covered_by_a_feasible_row(self):
        rows = pairwise(AXIS_VALUES, MULTI)
        assert len(rows) <= 100
        assert not any(conflicts(row, MULTI) for row in rows)
        for (a, xs), (b, ys) in combinations(AXIS_VALUES, 2):
            for x in xs:
                for y in ys:
                    if conflicts({a: x, b: y}, MULTI):
                        continue
                    assert any(row[a] == x and row[b] == y for row in rows), (a, x, b, y)

    def test_the_matrix_is_the_same_every_time(self):
        assert pairwise(AXIS_VALUES, MULTI) == pairwise(AXIS_VALUES, MULTI)

    def test_every_row_is_a_valid_runtime_command_with_all_three_artefacts(self):
        parser = build_parser()
        for row in pairwise(AXIS_VALUES, MULTI):
            arguments = row_arguments(row)
            assert arguments[-len(ROW_OUTPUTS) :] == list(ROW_OUTPUTS)
            parsed = parser.parse_args(["runtime", *arguments])
            assert parsed.wal_dir and parsed.metrics_out and parsed.trace_out


class TestAllowances:
    STDOUT = (
        "channel  sent  delivered  bytes  dropped\n"
        "s0->wh   17    17         1571   0\n"
        "wh->s0   9     9          3810   0\n"
        "\n"
        "wall time:          9.8 ms\n"
        "WAL:                73 record(s), 11 snapshot(s), last lsn 73\n"
        "crash @ event 1 (mode=mid-uqs, drop_sends=False): recovered from "
        "snapshot lsn 0 + 1 replayed, 1 re-issued\n"
    )

    def test_stdout_masks_wall_time_always_and_the_rest_only_when_allowed(self):
        narrower = self.STDOUT.replace("3810  ", "999   ").replace("9.8", "12.5")
        assert normalize_stdout(narrower, frozenset()) != normalize_stdout(
            self.STDOUT, frozenset()
        )
        allowed = frozenset({"wh-bytes"})
        assert normalize_stdout(narrower, allowed) == normalize_stdout(self.STDOUT, allowed)
        moved = self.STDOUT.replace("73 record(s), 11", "30 record(s), 4").replace(
            "lsn 0 + 1", "lsn 0 + 3"
        )
        wal = frozenset({"wal-layout"})
        assert normalize_stdout(moved, wal) == normalize_stdout(self.STDOUT, wal)
        assert normalize_stdout(moved, allowed) != normalize_stdout(self.STDOUT, allowed)

    def test_answer_bytes_mask_only_what_a_source_sends(self, tmp_path):
        table = (
            "channel           sent  delivered  bytes  dropped\n"
            "client-0=>shard0  4     4          140    0\n"
            "s0=>shard1        9     9          {}    0\n"
            "s1->wh            9     9          {}    0\n"
            "wh->s0            4     4          {}   0\n"
        )
        before = table.format(787, 803, 1692)
        narrower = table.format(765, 791, 1692)
        answers = frozenset({"answer-bytes"})
        assert normalize_stdout(narrower, frozenset()) != normalize_stdout(before, frozenset())
        assert normalize_stdout(narrower, answers) == normalize_stdout(before, answers)
        shipped = table.format(787, 803, 1600)
        assert normalize_stdout(shipped, answers) != normalize_stdout(before, answers)
        client = before.replace("140", "141")
        assert normalize_stdout(client, answers) != normalize_stdout(before, answers)

        def metrics(name, values):
            series = [
                {"labels": {"channel": channel}, "value": value}
                for channel, value in values.items()
            ]
            path = tmp_path / name
            path.write_text(json.dumps({"metrics": {"repro_channel_bytes_total": {"series": series}}}))
            return normalize_metrics(str(path), answers)

        base = {"s0=>shard1": 787, "s1->wh": 803, "wh->s0": 1692, "client-0=>shard0": 140}
        assert metrics("a.json", base) == metrics("b.json", {**base, "s0=>shard1": 765})
        assert metrics("a.json", base) != metrics("c.json", {**base, "wh->s0": 1600})
        assert metrics("a.json", base) != metrics("d.json", {**base, "client-0=>shard0": 1})

    def test_v6_fixtures_let_only_their_tests_change_outcome(self):
        fixture, other = sorted(V6_FIXTURE_TESTS)[0], f"{SUITES[0]}::test_other"

        def session(outcome):
            return {name: {"outcome": outcome, "runs": []} for name in (fixture, other)}

        for allow, expected in ((frozenset(), [fixture]), (frozenset({"v6-fixtures"}), [])):
            report = Report()
            parent = session("passed")
            change = {**parent, fixture: {"outcome": "failed (call)", "runs": []}}
            compare_suites(parent, change, report, allow)
            assert [where for where, _, _ in report.differences] == expected
            report = Report()
            change = {**parent, other: {"outcome": "failed (call)", "runs": []}}
            compare_suites(parent, change, report, frozenset({"v6-fixtures"}))
            assert [where for where, _, _ in report.differences] == [other]

    def test_v7_forms_let_only_their_tests_change_outcome(self):
        """The parent's v3 fixtures and its send/event log: codec v7
        writes no bare term and refuses a record that is no ``recv``."""
        assert V6_FIXTURE_TESTS < V7_FORM_TESTS
        (log,) = V7_FORM_TESTS - V6_FIXTURE_TESTS
        assert log.endswith("::test_a_directory_with_send_and_event_records_recovers_the_same")
        other = f"{SUITES[0]}::test_other"
        for fixture in sorted(V7_FORM_TESTS):
            parent = {name: {"outcome": "passed", "runs": []} for name in (fixture, other)}
            failed = {"outcome": "failed (call)", "runs": []}
            for allow, expected in ((frozenset(), [fixture]), (frozenset({"v7-forms"}), [])):
                report = Report()
                compare_suites(parent, {**parent, fixture: failed}, report, allow)
                assert [where for where, _, _ in report.differences] == expected
            report = Report()
            compare_suites(parent, {**parent, other: failed}, report, frozenset({"v7-forms"}))
            assert [where for where, _, _ in report.differences] == [other]

    #: A parent's suite test that calls the value envelope codec v7 deleted.
    ENVELOPE_PROBE = (
        "from repro.durability.codec import dumps, loads\n"
        "from repro.relational.bag import SignedBag\n"
        "\n"
        "def test_the_envelope_round_trips():\n"
        "    bag = SignedBag.from_rows([(1, 2), (1, 2)])\n"
        "    assert loads(dumps(bag)) == bag and dumps(bag) == dumps(loads(dumps(bag)))\n"
    )

    def test_a_tree_without_the_value_envelope_gets_it_from_the_plugin(self, tmp_path):
        (tmp_path / "test_probe.py").write_text(self.ENVELOPE_PROBE)
        tree = Tree(str(REPO_ROOT), str(tmp_path), "change")
        args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "same_histories"]
        args += ["--rootdir", str(tmp_path), "--histories-out", str(tmp_path / "h.json")]
        done = tree.python(
            args + ["--histories-allow", "v7-forms", "test_probe.py"], cwd=str(tmp_path)
        )
        assert done.returncode == 0, done.stdout + done.stderr
        without = tree.python(args + ["test_probe.py"], cwd=str(tmp_path))
        assert without.returncode == pytest.ExitCode.INTERRUPTED
        assert "cannot import name 'dumps'" in without.stdout

    def test_planner_counts_are_their_own_allowance(self, tmp_path):
        line = "shared compensation: {} distinct queries issued, 3 member queries absorbed\n"
        before, after = line.format(12), line.format(9)
        wal, planner = frozenset({"wal-layout"}), frozenset({"planner-counts"})
        assert normalize_stdout(before, wal) != normalize_stdout(after, wal)
        assert normalize_stdout(before, planner) == normalize_stdout(after, planner)

        paths = []
        for issued in (12, 9):
            series = {"series": [{"labels": {}, "value": issued}]}
            paths.append(tmp_path / f"{issued}.json")
            paths[-1].write_text(
                json.dumps({"metrics": {"repro_shared_queries_issued": series}})
            )
        assert normalize_metrics(str(paths[0]), wal) != normalize_metrics(str(paths[1]), wal)
        assert normalize_metrics(str(paths[0]), planner) == normalize_metrics(
            str(paths[1]), planner
        )
        recovered = [{"state": "s", "planner": [issued, 0]} for issued in (12, 9)]
        assert normalize_recovered(recovered[0], wal) != normalize_recovered(recovered[1], wal)
        assert normalize_recovered(recovered[0], planner) == normalize_recovered(
            recovered[1], planner
        )

    def test_wal_layout_drops_snapshot_spans_and_renumbers_the_rest(self, tmp_path):
        def span(span_id, name, links=(), **attrs):
            return {"span_id": span_id, "name": name, "parent": None,
                    "links": [list(link) for link in links], "attrs": attrs}

        parent = [
            span(1, "wal.snapshot", lsn=0),
            span(2, "wh.crash"),
            span(3, "wal.snapshot", lsn=4),
            span(4, "wh.recovery", [("recovers", 2)], snapshot_lsn=4, replayed=0),
        ]
        change = [
            span(1, "wal.snapshot", lsn=0),
            span(2, "wh.crash"),
            span(3, "wh.recovery", [("recovers", 2)], snapshot_lsn=0, replayed=3),
        ]
        paths = []
        for name, spans in (("parent", parent), ("change", change)):
            paths.append(tmp_path / name)
            paths[-1].write_text("".join(json.dumps(s) + "\n" for s in spans))
        wal = frozenset({"wal-layout"})
        assert normalize_trace(str(paths[0]), wal) == normalize_trace(str(paths[1]), wal)
        assert normalize_trace(str(paths[0]), frozenset()) != normalize_trace(
            str(paths[1]), frozenset()
        )


class TestOneChecker:
    """``one-checker``: the one checker over cuts may call a run complete
    that the parent called strongly consistent, and the parent's suites
    read the cut functions it deleted."""

    @staticmethod
    def side(level, exit_code=0):
        stdout = f"updates executed:   8\nconsistency:        {level}\nquiesce latency:    0.00\n"
        stderr = "" if exit_code == 0 else (
            f"FAIL: run is {level}, --require-consistent demands a consistent "
            "and convergent execution\n"
        )
        return {"exit": exit_code, "stdout": stdout, "stderr": stderr}

    #: The matrix's default row (no metrics or trace files: both sides read none).
    ROW = {"algorithm": "eca", **{name: values[0][0] for name, values in AXES}}

    def compared(self, parent, change, allow=frozenset({"one-checker"})):
        report = Report()
        results = {"parent": parent, "change": change}
        compare_row(0, self.ROW, "/nonexistent", results, report, allow)
        return report

    def test_complete_where_the_parent_read_strong_differs_only_as_allowed(self):
        report = self.compared(self.side("strongly consistent"), self.side("complete"))
        assert report.differences == []
        assert report.allowed == {"matrix rows": {"row 0 [eca]"}}

    def test_a_verdict_that_rises_past_the_gate_takes_its_exit_and_fail_line_along(self):
        report = self.compared(self.side("convergent", 1), self.side("strongly consistent"))
        assert report.differences == []
        assert report.allowed == {"matrix rows": {"row 0 [eca]"}}

    @pytest.mark.parametrize(
        "before, after",
        [
            ("strongly consistent", "consistent"),
            ("complete", "strongly consistent"),
            ("consistent", "weakly consistent"),
        ],
    )
    def test_a_verdict_that_drops_still_shows(self, before, after):
        exit_code = 0 if after in ("consistent", "strongly consistent") else 1
        report = self.compared(self.side(before), self.side(after, exit_code))
        assert ("row 0 [eca]", "stdout") in {
            (where, what) for where, what, _ in report.differences
        }

    def test_without_the_allowance_a_rise_is_a_difference(self):
        report = self.compared(
            self.side("strongly consistent"), self.side("complete"), frozenset()
        )
        assert [what for _, what, _ in report.differences] == ["stdout"]

    PROBE = (
        "from repro.consistency import check_cuts\n"
        "from repro.multisource import check_cut_consistency as exported\n"
        "from repro.multisource.consistency import (\n"
        "    check_cut_consistency, check_cut_convergence, cut_report,\n"
        ")\n"
        "from test_strobe_properties import build, R1, R2, R3, INITIAL\n"
        "from repro.kernel import SyncKernel\n"
        "from repro.simulation.schedules import RandomSchedule\n"
        "from repro.workloads.random_gen import random_workload\n"
        "\n"
        "def test_the_cut_functions_are_the_one_checkers():\n"
        "    view, sources, algorithm = build()\n"
        "    workload = random_workload([R1, R2, R3], 5, seed=3, initial=INITIAL,\n"
        "                               respect_keys=True)\n"
        "    kernel = SyncKernel(sources, algorithm, workload)\n"
        "    trace = kernel.run(RandomSchedule(22))\n"
        "    states, views = kernel.per_source_states, trace.view_states\n"
        "    report = check_cuts(view, states, views)\n"
        "    assert exported is check_cut_consistency\n"
        "    assert check_cut_consistency(view, states, views) == report.consistent\n"
        "    assert check_cut_convergence(view, states, views[-1]) == report.convergent\n"
        "    assert cut_report(view, states, views, views[-1]).level() == report.level()\n"
    )

    def test_a_tree_without_the_cut_module_gets_them_from_the_one_checker(
        self, tmp_path
    ):
        (tmp_path / "test_probe.py").write_text(self.PROBE)
        tree = Tree(str(REPO_ROOT), str(tmp_path), "change")
        args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "same_histories"]
        args += ["--rootdir", str(tmp_path), "--histories-out", str(tmp_path / "h.json")]
        env_path = str(REPO_ROOT / "tests" / "property")
        done = tree.python(
            args + ["--histories-allow", "one-checker", "-o", f"pythonpath={env_path}",
                    "test_probe.py"],
            cwd=str(tmp_path),
        )
        assert done.returncode == 0, done.stdout + done.stderr
        without = tree.python(
            args + ["-o", f"pythonpath={env_path}", "test_probe.py"], cwd=str(tmp_path)
        )
        assert without.returncode == pytest.ExitCode.INTERRUPTED
        assert "cannot import name 'check_cut_consistency'" in without.stdout


class TestHistoryHashes:
    def test_equal_runs_hash_equal_and_a_moved_recovery_hashes_equal_only_when_allowed(
        self,
    ):
        from repro.simulation.trace import W_REC, Trace

        def trace(detail):
            recorded = Trace()
            recorded.record_event(W_REC, detail)
            return recorded

        first = trace("recovered from snapshot lsn 0 + 1 replayed record(s)")
        again = trace("recovered from snapshot lsn 0 + 1 replayed record(s)")
        moved = trace("recovered from snapshot lsn 4 + 0 replayed record(s)")
        assert history_components(first, frozenset()) == history_components(
            again, frozenset()
        )
        assert history_components(first, frozenset()) != history_components(
            moved, frozenset()
        )
        wal = frozenset({"wal-layout"})
        assert history_components(first, wal) == history_components(moved, wal)


def test_portable_reads_every_bag_as_a_pairs_list_and_a_one_term_query_as_its_term():
    """A recovered state is hashed in one layout on both trees, so a
    format change compares equal states equal: codec v6 wrote view
    contents as a ``bag``, an algorithm's pending bag as a list of
    ``(row, count)`` tuples and a lone term as a ``term``; v7 writes
    every bag as a ``bag`` and a lone term as a one-term ``query``."""
    from repro.durability.codec import encode_value
    from repro.relational.bag import SignedBag
    from repro.relational.expressions import Query
    from repro.relational.schema import RelationSchema
    from repro.relational.views import View
    from repro.source.updates import insert

    as_v6_pending = [
        {"$": "tuple", "items": [{"$": "tuple", "items": [1, None]}, 1]},
        {"$": "tuple", "items": [{"$": "tuple", "items": [3, "x"]}, 1]},
    ]
    bag = SignedBag.from_rows([(3, "x"), (1, None)])
    assert "columns" in encode_value(bag)
    assert portable(encode_value(bag)) == as_v6_pending
    assert portable(encode_value(bag.to_pairs())) == as_v6_pending
    nested = SignedBag({((1, 2), 3): -1})
    assert "pairs" in encode_value(nested)
    assert portable(encode_value(nested)) == portable(encode_value(nested.to_pairs()))
    assert portable(encode_value(SignedBag())) == portable(encode_value([])) == []

    query = Query()
    state = encode_value({"uqs": {1: query}})
    assert state["items"][0][1]["items"][0][1]["$"] == "json"
    assert portable(state) == {
        "$": "dict",
        "items": [["uqs", {"$": "dict", "items": [[1, encode_value(query)]]}]],
    }

    schemas = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
    view = View.natural_join("V", schemas, ["W", "Y"])
    (term,) = view.substitute("r1", insert("r1", (7, 2)).signed_tuple()).terms
    first, second = (encode_value(schema) for schema in schemas)
    as_v6_term = {
        "$": "term",
        "operands": [
            {"$": "bound", "schema": first, "tuple": encode_value(term.operands[0].tuple)},
            {"$": "rel", "schema": second},
        ],
        "projection": list(term.projection),
        "condition": encode_value(term.condition),
        "coefficient": 1,
    }
    assert portable(encode_value(Query([term]))) == as_v6_term
    assert portable(as_v6_term) == as_v6_term
    two = encode_value(Query([term, term]))
    assert portable(two) == two  # a query of two terms stays a query


class TestClassPlacement:
    """``class-placement`` masks only what moving a class between shards
    moves, and only in runs where a class of two or more can move."""

    @staticmethod
    def run(share=True, shards=2, partitioner="hash"):
        from repro.core.eca import ECA
        from repro.relational.engine import evaluate_view
        from repro.relational.schema import RelationSchema
        from repro.relational.views import View
        from repro.runtime import run_concurrent
        from repro.source.memory import MemorySource
        from repro.source.updates import insert
        from repro.warehouse.catalog import WarehouseCatalog

        schemas = [
            RelationSchema("r1", ("W", "X"), key=("W",)),
            RelationSchema("r2", ("X", "Y"), key=("Y",)),
        ]
        source = MemorySource(schemas, {"r1": [(1, 2)], "r2": [(2, 5)]})
        algorithms = {}
        for name in ("A", "B", "C"):
            view = View.natural_join(name, schemas, ["W", "Y"])
            algorithms[name] = ECA(view, evaluate_view(view, source.snapshot()))
        catalog = WarehouseCatalog(algorithms, share_compensation=share)
        workload = [insert("r1", (10, 2)), insert("r2", (2, 20)), insert("r1", (11, 2))]
        return run_concurrent(
            {"source": source}, catalog, {"source": workload},
            seed=1, shards=shards, partitioner=partitioner,
        )

    def test_only_a_sharded_class_of_two_or_more_is_masked(self):
        allow = frozenset({"class-placement"})
        assert not shares_a_class(self.run(share=False))
        assert not shares_a_class(self.run(shards=None))
        result = self.run()
        assert shares_a_class(result)
        masked, raw = history_components(result, allow), history_components(result, frozenset())
        assert {key for key in raw if masked[key] != raw[key]} == {
            "events", "view_states", "action_log"
        }

    def test_the_class_on_another_shard_differs_only_as_allowed(self):
        from repro.sharding import ExplicitPartitioner

        runs = [
            self.run(partitioner=ExplicitPartitioner(
                {(name,): shard for name in "ABC"}, shards=2
            ))
            for shard in (0, 1)
        ]
        raw = [history_components(run, frozenset()) for run in runs]
        assert raw[0] != raw[1]
        allow = frozenset({"class-placement"})
        assert history_components(runs[0], allow) == history_components(runs[1], allow)


class TestSuiteSessions:
    """A pytest session that did not reach every suite is refused, not
    compared: a suite that fails to collect on both trees must not read
    as equal."""

    class Tree:
        label = "stub"

        def __init__(self, root, exit_code, suites):
            self.path, self.src = str(root), str(root / "src")
            self.exit_code, self.suites = exit_code, suites

        def python(self, args, cwd, timeout=None):
            tests = {f"{suite}::test": {"outcome": "passed", "runs": []} for suite in self.suites}
            with open(args[args.index("--histories-out") + 1], "w") as handle:
                json.dump({"repro": f"{self.src}/repro/__init__.py", "tests": tests}, handle)
            return subprocess.CompletedProcess(args, self.exit_code, "", "")

    def run(self, tmp_path, exit_code, suites):
        tree = self.Tree(tmp_path, exit_code, suites)
        return run_suites(tree, tree, frozenset(), str(tmp_path / "hashes.json"))

    def test_a_session_with_failed_tests_is_compared(self, tmp_path):
        assert len(self.run(tmp_path, 1, SUITES)) == len(SUITES)

    def test_an_interrupted_session_is_refused(self, tmp_path):
        with pytest.raises(SystemExit, match="pytest exit 2"):
            self.run(tmp_path, 2, SUITES)

    def test_a_suite_that_ran_no_test_is_refused(self, tmp_path):
        with pytest.raises(SystemExit, match=SUITES[0]):
            self.run(tmp_path, 0, SUITES[1:])


class TestPluginErrors:
    """An exception in the plugin's own hashing is kept apart from the
    test it happened in, and refuses the session: raised into the test,
    it failed that test alike on both trees, which compared as equal."""

    PROBE = (
        "import same_histories\n"
        "from repro.core.eca import ECA\n"
        "from repro.kernel.sync import SyncKernel\n"
        "from repro.relational.engine import evaluate_view\n"
        "from repro.simulation.schedules import RandomSchedule\n"
        "from repro.source.memory import MemorySource\n"
        "from repro.workloads.paper_examples import PAPER_EXAMPLES\n"
        "\n"
        "def planted(result, allow):\n"
        "    raise RuntimeError('planted in the hash')\n"
        "\n"
        "def test_a_kernel_run(monkeypatch):\n"
        "    monkeypatch.setattr(same_histories, 'history_components', planted)\n"
        "    scenario = PAPER_EXAMPLES['example-2']\n"
        "    source = MemorySource(scenario.schemas, scenario.initial)\n"
        "    view = evaluate_view(scenario.view, source.snapshot())\n"
        "    algorithm = ECA(scenario.view, view)\n"
        "    kernel = SyncKernel({'source': source}, algorithm, list(scenario.updates))\n"
        "    kernel.run(RandomSchedule(0))\n"
    )

    def test_a_raising_hash_refuses_the_session_and_names_the_test(self, tmp_path):
        (tmp_path / "test_probe.py").write_text(self.PROBE)
        out = tmp_path / "hashes.json"
        tree = Tree(str(REPO_ROOT), str(tmp_path), "change")
        args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "same_histories"]
        done = tree.python(
            args + ["--histories-out", str(out), "test_probe.py"], cwd=str(tmp_path)
        )
        assert done.returncode == pytest.ExitCode.INTERNAL_ERROR, done.stdout + done.stderr
        assert "hashing failed in test_probe.py::test_a_kernel_run" in done.stdout
        recorded = json.loads(out.read_text())
        # The test itself passed: the failure is the plugin's, not its.
        assert recorded["tests"]["test_probe.py::test_a_kernel_run"]["outcome"] == "passed"
        (error,) = recorded["errors"]
        assert error.startswith("test_probe.py::test_a_kernel_run: RuntimeError: planted")

    def test_run_suites_refuses_a_session_the_plugin_failed_in(self, tmp_path):
        failed = f"{SUITES[0]}::test: RuntimeError: planted"

        class Tree(TestSuiteSessions.Tree):
            def python(self, args, cwd, timeout=None):
                done = super().python(args, cwd, timeout)
                path = args[args.index("--histories-out") + 1]
                with open(path) as handle:
                    recorded = json.load(handle)
                recorded["errors"] = [failed]
                with open(path, "w") as handle:
                    json.dump(recorded, handle)
                return done

        tree = Tree(tmp_path, 0, SUITES)
        with pytest.raises(SystemExit) as refused:
            run_suites(tree, tree, frozenset(), str(tmp_path / "hashes.json"))
        assert "hashing plugin failed" in str(refused.value)
        assert failed in str(refused.value)


class TestCold:
    """``--cold`` runs every interpreter of the change's side with
    ``tools/cold_caches.py`` installed, and leaves the other side warm."""

    def test_pytest_loads_the_plugin_and_every_other_command_runs_through_it(
        self, monkeypatch, tmp_path
    ):
        ran = []
        monkeypatch.setattr(
            subprocess, "run", lambda args, **kwargs: ran.append(args[1:])
        )
        cold = Tree(str(REPO_ROOT), str(tmp_path), "change", cold=True)
        warm = Tree(str(REPO_ROOT), str(tmp_path), "parent")
        for tree in (cold, warm):
            tree.python(["-m", "pytest", "-q", "tests"], cwd=str(tmp_path))
            tree.python(["-m", "repro", "runtime", "--seed", "1"], cwd=str(tmp_path))
            tree.python(["-c", "print(1)", "a"], cwd=str(tmp_path))
        assert ran == [
            ["-m", "pytest", "-q", "tests", "-p", "cold_caches"],
            ["-m", "cold_caches", "-m", "repro", "runtime", "--seed", "1"],
            ["-m", "cold_caches", "-c", "print(1)", "a"],
            ["-m", "pytest", "-q", "tests"],
            ["-m", "repro", "runtime", "--seed", "1"],
            ["-c", "print(1)", "a"],
        ]
        assert cold.label.endswith(" cold") and not warm.label.endswith(" cold")

    def test_a_cold_interpreter_keeps_nothing(self, tmp_path):
        cold = Tree(str(REPO_ROOT), str(tmp_path), "change", cold=True)
        code = (
            "import sys\n"
            "from repro.relational import engine\n"
            "from repro.relational.expressions import Query\n"
            "query = Query()\n"
            "query.encoded = 'text'\n"
            "engine._SHARED['key'] = 'plan'\n"
            "print(query.encoded, len(engine._SHARED), sys.argv[1:])"
        )
        done = cold.python(["-c", code, "x"], cwd=str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["None", "0", "['x']"]
        (tmp_path / "test_probe.py").write_text(
            "def test_the_shared_plan_table_keeps_nothing():\n"
            "    from repro.relational import engine\n"
            "    engine._SHARED['key'] = 'plan'\n"
            "    assert len(engine._SHARED) == 0\n"
        )
        args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"]
        assert cold.python(args, cwd=str(tmp_path)).returncode == 0
        warm = Tree(str(REPO_ROOT), str(tmp_path), "parent")
        assert warm.python(args, cwd=str(tmp_path)).returncode == 1
