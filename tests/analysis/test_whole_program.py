"""Engine-level tests for the whole-program pipeline: input dedup,
SARIF output, and the incremental (``--changed``) mode.
"""

from __future__ import annotations

import json
import os
import time

from repro.analysis import run_analysis
from repro.analysis.cache import incremental_analysis, load_cache, store_result
from repro.analysis.engine import execute_analysis
from repro.analysis.report import render_sarif

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "repro")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")

_CLOCKED = "import time\n\n\ndef stamp():\n    return time.time()\n"


def _write_tree(root, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return str(root)


class TestInputDedup:
    def test_file_reached_via_walk_and_explicit_arg_reports_once(self, tmp_path):
        tree = _write_tree(tmp_path, {"repro/runtime/bad.py": _CLOCKED})
        explicit = str(tmp_path / "repro" / "runtime" / "bad.py")
        findings = run_analysis([tree, explicit])
        assert [(f.rule_id, f.line) for f in findings] == [("RPR002", 5)]

    def test_same_file_named_twice_reports_once(self, tmp_path):
        tree = _write_tree(tmp_path, {"repro/runtime/bad.py": _CLOCKED})
        explicit = os.path.join(tree, "repro", "runtime", "bad.py")
        findings = run_analysis([explicit, explicit])
        assert len(findings) == 1


class TestSarifReport:
    def test_sarif_document_shape(self):
        findings = run_analysis(
            [os.path.join(FIXTURES, "runtime", "rpr002_determinism.py")]
        )
        document = json.loads(render_sarif(findings))
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-2.1.0.json")
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert "RPR000" in rule_ids  # the synthetic parse-error entry
        assert {"RPR011", "RPR012"} <= set(rule_ids)
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]
            assert location["region"]["startLine"] >= 1
        assert len(run["results"]) == len(findings)

    def test_empty_run_is_still_a_valid_document(self):
        document = json.loads(render_sarif([]))
        assert document["runs"][0]["results"] == []


class TestIncrementalMode:
    TREE = {
        "repro/warehouse/helper.py": (
            "def scale(value):\n    return value * 2\n"
        ),
        "repro/warehouse/grouping.py": (
            "from repro.warehouse.helper import scale\n"
            "\n"
            "\n"
            "class GroupPlanner:\n"
            "    def plan(self, members):\n"
            "        return sorted(members)[: scale(1)]\n"
        ),
    }

    def test_warm_run_is_a_full_hit_with_identical_findings(self, tmp_path):
        tree = _write_tree(tmp_path / "proj", self.TREE)
        cache_dir = str(tmp_path / "cache")
        cold, cold_stats = incremental_analysis([tree], cache_dir=cache_dir)
        warm, warm_stats = incremental_analysis([tree], cache_dir=cache_dir)
        assert warm == cold
        assert not cold_stats["full_hit"]
        assert warm_stats["full_hit"]
        assert warm_stats["reanalyzed"] == []

    def test_editing_a_helper_dirties_its_callers(self, tmp_path):
        tree = _write_tree(tmp_path / "proj", self.TREE)
        cache_dir = str(tmp_path / "cache")
        clean, _ = incremental_analysis([tree], cache_dir=cache_dir)
        assert clean == []
        helper = tmp_path / "proj" / "repro" / "warehouse" / "helper.py"
        helper.write_text(
            "import time\n"
            "\n"
            "\n"
            "def scale(value):\n"
            "    return value * int(time.time())\n",
            encoding="utf-8",
        )
        findings, stats = incremental_analysis([tree], cache_dir=cache_dir)
        assert not stats["full_hit"]
        # The unchanged caller is re-analyzed because its dependency moved.
        assert sorted(os.path.basename(p) for p in stats["reanalyzed"]) == [
            "grouping.py",
            "helper.py",
        ]
        by_rule = {f.rule_id: f for f in findings}
        assert by_rule["RPR002"].path.endswith("helper.py")
        assert by_rule["RPR010"].path.endswith("grouping.py")
        assert "time.time" in by_rule["RPR010"].message

    def test_cold_plain_run_primes_the_cache(self, tmp_path):
        tree = _write_tree(tmp_path / "proj", self.TREE)
        cache_dir = str(tmp_path / "cache")
        result = execute_analysis([tree], None, None)
        store_result(result, cache_dir=cache_dir)
        payload = load_cache(cache_dir)
        assert payload is not None
        assert len(payload["files"]) == 2
        _, stats = incremental_analysis([tree], cache_dir=cache_dir)
        assert stats["full_hit"]

    def test_warm_run_over_unchanged_tree_is_5x_faster(self, tmp_path):
        """The acceptance bar: a full cache hit skips parsing entirely."""
        cache_dir = str(tmp_path / "cache")
        started = time.perf_counter()
        cold, _ = incremental_analysis([SRC_REPRO], cache_dir=cache_dir)
        cold_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        warm, stats = incremental_analysis([SRC_REPRO], cache_dir=cache_dir)
        warm_elapsed = time.perf_counter() - started
        assert stats["full_hit"]
        assert warm == cold == []
        assert warm_elapsed * 5 <= cold_elapsed, (
            f"warm {warm_elapsed:.3f}s not 5x faster than cold "
            f"{cold_elapsed:.3f}s"
        )


    def test_cache_written_by_an_older_version_is_ignored(self, tmp_path):
        """A ``CACHE_VERSION`` 1 document (the file/effects double
        bucket) degrades to a cold run with the same findings."""
        from repro.analysis.cache import CACHE_FILE, CACHE_VERSION

        tree = _write_tree(
            tmp_path / "proj", {"repro/runtime/bad.py": _CLOCKED}
        )
        bad = os.path.join(tree, "repro", "runtime", "bad.py")
        cache_dir = tmp_path / "cache"
        cold, _ = incremental_analysis([tree], cache_dir=str(cache_dir))
        assert [(f.rule_id, f.line) for f in cold] == [("RPR002", 5)]
        current = json.loads((cache_dir / CACHE_FILE).read_text())
        assert current["version"] == CACHE_VERSION == 2
        stale = {
            "version": 1,
            "rules": current["rules"],
            "files": {
                bad: {
                    "hash": current["files"][bad]["hash"],
                    "file": [],
                    "effects": [],
                }
            },
            "project": [],
            "deps": {},
        }
        (cache_dir / CACHE_FILE).write_text(json.dumps(stale))
        assert load_cache(str(cache_dir)) is None
        findings, stats = incremental_analysis([tree], cache_dir=str(cache_dir))
        assert findings == cold
        assert not stats["full_hit"]
        assert stats["reanalyzed"] == [bad]


class TestOnePass:
    def test_transitive_and_direct_findings_come_from_the_same_run(
        self, tmp_path
    ):
        tree = _write_tree(
            tmp_path,
            {
                "repro/warehouse/planner_mod.py": (
                    "from repro.warehouse.helper import scale\n"
                    "\n"
                    "\n"
                    "class LatePlanner:\n"
                    "    def plan(self, members):\n"
                    "        return members[: scale(1)]\n"
                ),
                "repro/warehouse/helper.py": (
                    "import time\n"
                    "\n"
                    "\n"
                    "def scale(value):\n"
                    "    return value * int(time.time())\n"
                ),
            },
        )
        findings = run_analysis([tree])
        assert [(f.rule_id, os.path.basename(f.path)) for f in findings] == [
            ("RPR002", "helper.py"),
            ("RPR010", "planner_mod.py"),
        ]
        assert "scale -> time.time (line 5)" in findings[1].message
        # Selecting one rule still sees the whole program.
        only = run_analysis([tree], select=frozenset({"RPR010"}))
        assert [f.rule_id for f in only] == ["RPR010"]
