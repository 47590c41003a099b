"""Every test id the CI workflow and the experiment docs name must exist.

A step that runs ``pytest path::Class::test`` for an id that a later
change renamed or moved reports ``ERROR: not found`` and runs nothing, so
the gate it stood for silently stops guarding; a doc that names a moved
test points its reader at nothing.  The ids are resolved
statically (no import, no collection): the file must exist and each
``::`` part must name a class or function inside the one before it;
``[...]`` parameters are not part of the name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
TEST_ID = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)*)")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def unresolved(text: str, root: Path = REPO):
    """The test ids in ``text`` that name no file, class or function."""
    missing = []
    modules = {}
    for path, parts in TEST_ID.findall(text):
        node_id = path + parts
        if not (root / path).is_file():
            missing.append(node_id)
            continue
        if path not in modules:
            modules[path] = ast.parse((root / path).read_text()).body
        scope = modules[path]
        for name in parts.split("::")[1:]:
            found = [
                node
                for node in scope
                if isinstance(node, DEFINITIONS) and node.name == name
            ]
            if not found:
                missing.append(node_id)
                break
            scope = found[0].body
    return missing


def test_every_test_id_in_the_ci_workflow_exists():
    text = WORKFLOW.read_text()
    assert TEST_ID.search(text)
    assert unresolved(text) == []


def test_every_test_id_the_experiment_docs_name_exists():
    for doc in ("EXPERIMENTS.md", "DESIGN.md"):
        text = (REPO / doc).read_text()
        assert TEST_ID.search(text), doc
        assert unresolved(text) == [], doc


def test_a_moved_test_and_a_missing_file_are_reported(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "class TestA:\n    def test_one(self):\n        pass\n\n"
        "def test_two():\n    pass\n"
    )
    text = (
        '"tests/test_a.py::TestA::test_one[x-1]" tests/test_a.py::test_two '
        "tests/test_a.py::TestA tests/test_a.py "
        "tests/test_a.py::TestA::test_two tests/test_b.py::test_one"
    )
    assert unresolved(text, tmp_path) == [
        "tests/test_a.py::TestA::test_two",
        "tests/test_b.py::test_one",
    ]
