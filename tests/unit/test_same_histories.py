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
    conflicts,
    history_components,
    normalize_metrics,
    normalize_stdout,
    normalize_trace,
    pairwise,
    row_arguments,
    run_suites,
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
