"""``tools/same_histories.py``: the generated matrix, the state text and
what an allow file lets move.

The tool's end-to-end run needs two trees and a minute; these pin the
parts that decide what it compares.
"""

import json
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "property"))

from same_histories import (  # noqa: E402
    ALLOW_FILE,
    AXES,
    ROW_OUTPUTS,
    SUITES,
    Allowances,
    Report,
    Tree,
    compare_suites,
    conflicts,
    history_components,
    normalize_metrics,
    normalize_stdout,
    normalize_trace,
    pairwise,
    parse_allowances,
    read_allowances,
    row_arguments,
    run_suites,
    state_text,
)
from families import FAMILIES, SCHEMAS, build  # noqa: E402

from repro.cli import build_parser  # noqa: E402
from repro.core.registry import ALGORITHMS, create_algorithm  # noqa: E402
from repro.durability.codec import decode_algorithm, encode_algorithm  # noqa: E402
from repro.kernel.sync import SyncKernel  # noqa: E402
from repro.messaging.messages import UpdateNotification  # noqa: E402
from repro.relational.bag import SignedBag  # noqa: E402
from repro.relational.expressions import BoundOperand, Query  # noqa: E402
from repro.relational.tuples import SignedTuple  # noqa: E402
from repro.relational.views import View  # noqa: E402
from repro.simulation.schedules import RandomSchedule  # noqa: E402
from repro.source.updates import insert  # noqa: E402

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


class TestAllowFile:
    """``tools/same_histories.allow``: masks and outcome prefixes as data,
    applied only where the change's file differs from the parent's."""

    @pytest.mark.parametrize(
        "line, refusal",
        [
            ("provide repro.durability.codec:dumps  imported", "unknown kind 'provide'"),
            ("mask planner-counts  trees before codec v5", "unknown mask 'planner-counts'"),
            ("outcome tests/integration", "want a kind, an argument and a reason"),
        ],
    )
    def test_a_line_the_tool_cannot_apply_is_refused_with_its_number(self, line, refusal):
        with pytest.raises(SystemExit, match=re.escape(f"line 3: {refusal}")):
            parse_allowances(f"# what moves\n\n{line}\n")

    def test_each_kind_reads_its_argument(self):
        text = "mask answer-bytes  columns\noutcome tests/a.py::T  its fixture\n"
        assert parse_allowances(text) == Allowances(
            frozenset({"answer-bytes"}), ("tests/a.py::T",)
        )
        parse_allowances((REPO_ROOT / ALLOW_FILE).read_text())  # the committed file reads

    def test_an_unchanged_file_applies_nothing(self, tmp_path):
        declared = "mask wal-layout  the log moved\n"
        trees = {}
        for role, text in (("parent", declared), ("same", declared), ("edited", "")):
            trees[role] = SimpleNamespace(path=str(tmp_path / role))
            (tmp_path / role / "tools").mkdir(parents=True)
            (tmp_path / role / ALLOW_FILE).write_text(text)
        assert read_allowances(trees["parent"], trees["same"]) == Allowances()
        assert read_allowances(trees["edited"], trees["parent"]).masks == {"wal-layout"}
        assert read_allowances(trees["parent"], trees["edited"]) == Allowances()
        (tmp_path / "edited" / ALLOW_FILE).unlink()  # a tree from before the file
        assert read_allowances(trees["edited"], trees["parent"]).masks == {"wal-layout"}

    def test_an_outcome_prefix_lets_exactly_its_tests_move(self):
        fixture, other = f"{SUITES[6]}::TestFixtures::test_a", f"{SUITES[0]}::test_other"
        parent = {name: {"outcome": "passed", "runs": []} for name in (fixture, other)}
        failed = {"outcome": "failed (call)", "runs": []}
        for outcomes, expected in (((), [fixture]), ((f"{SUITES[6]}::TestFixtures",), [])):
            report = Report()
            compare_suites(parent, {**parent, fixture: failed}, report, outcomes)
            assert [where for where, _, _ in report.differences] == expected
        report = Report()
        compare_suites(parent, {**parent, other: failed}, report, (f"{SUITES[6]}::",))
        assert [where for where, _, _ in report.differences] == [other]


def recovered(algorithm):
    """What ``recover`` rebuilds from a snapshot of ``algorithm``: its
    decoded twin, every memo slot empty."""
    return decode_algorithm(json.loads(encode_algorithm(algorithm)))


class TestStateText:
    """A recovered state is compared as the objects it decodes to."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_decoded_twin_and_filled_memos_give_the_same_text(self, family):
        sources, warehouse, workload = build(family, seed=1, refresh="end")
        kernel = SyncKernel(sources, warehouse, workload)
        schedule = RandomSchedule(1, weights={"update": 3.0})
        pending = 0
        while not kernel.is_done():
            kernel.step(schedule.choose(kernel.available_actions()))
            twin = recovered(kernel.algorithm)
            text = state_text(twin)
            assert text == state_text(kernel.algorithm)
            encode_algorithm(twin)  # fills every memo slot the codec owns
            assert state_text(twin) == text
            pending += bool(twin.pending_query_ids())
        assert pending or "stored-copies" in family  # stored copies never ask

    def test_every_piece_of_an_eca_state_moves_the_text(self):
        """COLLECT, one UQS binding, one term's coefficient, the id
        counter and the configuration: a text that dropped any of them
        would let a crash lose it unseen."""
        view = View.natural_join("V", SCHEMAS, ["W", "Y"])
        algorithm = create_algorithm("eca", view, SignedBag())
        for index, update in enumerate([insert("r1", (7, 2)), insert("r2", (2, 8))], 1):
            algorithm.on_update("source", UpdateNotification(update, index))
        text = state_text(recovered(algorithm))

        def collect(twin):
            twin.collect.add((99, 99), 1)

        def binding(twin):
            query_id, query = list(twin.uqs.items())[-1]
            term = query.terms[0]
            operands = [
                BoundOperand(op.schema, SignedTuple((99,) * len(op.tuple.values)))
                if op.is_bound else op
                for op in term.operands
            ]
            moved = term.with_operands(operands, term.coefficient)
            twin.uqs[query_id] = Query((moved,) + query.terms[1:])

        def coefficient(twin):
            query_id, query = list(twin.uqs.items())[-1]
            twin.uqs[query_id] = Query((query.terms[0].negate(),) + query.terms[1:])

        def next_query_id(twin):
            twin._next_query_id += 1

        def config(twin):
            twin.buffer_answers = not twin.buffer_answers

        texts = {text}
        for mutate in (collect, binding, coefficient, next_query_id, config):
            twin = recovered(algorithm)
            mutate(twin)
            texts.add(state_text(twin))
        assert len(texts) == 6


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

    def run(self, tmp_path, exit_code, suites, outcomes=()):
        tree = self.Tree(tmp_path, exit_code, suites)
        allow = Allowances(outcomes=outcomes)
        return run_suites(tree, tree, allow, str(tmp_path / "hashes.json"))

    def test_a_session_with_failed_tests_is_compared(self, tmp_path):
        assert len(self.run(tmp_path, 1, SUITES)) == len(SUITES)

    def test_an_interrupted_session_is_refused(self, tmp_path):
        with pytest.raises(SystemExit, match="pytest exit 2"):
            self.run(tmp_path, 2, SUITES)

    def test_a_suite_that_ran_no_test_is_refused(self, tmp_path):
        with pytest.raises(SystemExit, match=SUITES[0]):
            self.run(tmp_path, 0, SUITES[1:])

    def test_a_suite_under_an_outcome_prefix_may_fail_to_collect(self, tmp_path):
        """Its tests then count as moving, and nothing else does."""
        parent = self.run(tmp_path, 0, SUITES)
        with pytest.raises(SystemExit, match=SUITES[0]):
            self.run(tmp_path, 1, SUITES[1:], outcomes=(SUITES[1],))
        change = self.run(tmp_path, 1, SUITES[1:], outcomes=(SUITES[0],))
        report = Report()
        compare_suites(parent, change, report, (SUITES[0],))
        assert report.differences == []
        assert report.allowed == {"suite tests": {f"{SUITES[0]}::test"}}


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
            run_suites(tree, tree, Allowances(), str(tmp_path / "hashes.json"))
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
