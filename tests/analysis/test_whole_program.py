"""Engine-level tests for the whole-program pipeline: input dedup and
SARIF output.
"""

from __future__ import annotations

import json
import os

from repro.analysis import run_analysis
from repro.analysis.report import render_sarif

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "repro")

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
        assert {"RPR010", "RPR012"} <= set(rule_ids)
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]
            assert location["region"]["startLine"] >= 1
        assert len(run["results"]) == len(findings)

    def test_empty_run_is_still_a_valid_document(self):
        document = json.loads(render_sarif([]))
        assert document["runs"][0]["results"] == []


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
