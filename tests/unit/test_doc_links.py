"""The documentation must not rot: links resolve, anchors exist.

Runs the same checker CI's docs job runs (``tools/check_doc_links.py``)
over the real repository, plus unit coverage of the slug/extraction
rules on synthetic trees.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_doc_links import (  # noqa: E402
    ANALYSIS_CLI,
    ANALYSIS_DOC,
    RUNTIME_CLI,
    RUNTIME_FLAG_DOCS,
    SERVING_DOC,
    anchors_of,
    check_file,
    check_lint_flags,
    check_runtime_flags,
    check_subcommands,
    check_tree,
    lint_cli_flags,
    lint_flag_references,
    runtime_cli_flags,
    runtime_cli_subcommands,
    runtime_flag_references,
    slugify,
    subcommand_references,
)


class TestSlugify:
    def test_github_rules(self):
        assert slugify("Overhead") == "overhead"
        assert slugify("1. Schemas, views, sources") == "1-schemas-views-sources"
        assert slugify("The trace model") == "the-trace-model"
        assert slugify("`repro.obs` internals") == "reproobs-internals"

    def test_duplicate_headings_get_suffixes(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("# Setup\n\n## Setup\n")
        assert anchors_of(doc) == {"setup", "setup-1"}


class TestCheckFile:
    def test_valid_relative_link_and_anchor(self, tmp_path):
        (tmp_path / "other.md").write_text("# Target Heading\n")
        doc = tmp_path / "doc.md"
        doc.write_text("[ok](other.md) [ok2](other.md#target-heading) [self](#intro)\n\n# Intro\n")
        assert check_file(doc, tmp_path) == []

    def test_missing_file_reported_with_line(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("line one\n[bad](missing.md)\n")
        (broken,) = check_file(doc, tmp_path)
        assert broken.line == 2
        assert broken.target == "missing.md"
        assert broken.reason == "no such file"

    def test_missing_anchor_reported(self, tmp_path):
        (tmp_path / "other.md").write_text("# Only Heading\n")
        doc = tmp_path / "doc.md"
        doc.write_text("[bad](other.md#nope)\n")
        (broken,) = check_file(doc, tmp_path)
        assert "#nope" in broken.reason

    def test_external_links_and_code_are_skipped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[web](https://example.com) [mail](mailto:x@y.z)\n"
            "`[not a link](nowhere.md)`\n"
            "```\n[also not](nowhere.md)\n```\n"
        )
        assert check_file(doc, tmp_path) == []

    def test_link_escaping_the_repo_is_rejected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[out](../../etc/passwd)\n")
        (broken,) = check_file(doc, tmp_path)
        assert broken.reason == "escapes the repository"


class TestLintFlags:
    """docs/ANALYSIS.md's `repro lint` flag references must resolve."""

    def _tree(self, tmp_path, doc_text):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / Path(ANALYSIS_DOC).name).write_text(doc_text)
        cli = tmp_path / ANALYSIS_CLI
        cli.parent.mkdir(parents=True)
        cli.write_text((REPO_ROOT / ANALYSIS_CLI).read_text(encoding="utf-8"))
        return tmp_path

    def test_parser_flags_read_without_import(self):
        assert lint_cli_flags(REPO_ROOT) == {
            "--format",
            "--list-rules",
            "--sarif",
        }

    def test_references_extracted_from_spans_and_fences(self):
        refs = list(
            lint_flag_references(
                "Run `python -m repro.analysis --list-rules` or pass\n"
                "`--format json`.\n"
                "```bash\n"
                "python -m repro.analysis src --format text\n"
                "ruff check --fix src  # unrelated tool: not scanned\n"
                "```\n"
            )
        )
        assert refs == [(1, "--list-rules"), (2, "--format"), (4, "--format")]

    def test_dangling_flag_is_reported(self, tmp_path):
        root = self._tree(
            tmp_path, "Pass `--frobnicate` to `repro lint` for extra frob.\n"
        )
        (broken,) = check_lint_flags(root)
        assert broken.target == "--frobnicate"
        assert "no such repro lint flag" in broken.reason

    def test_real_analysis_doc_references_are_live_and_nonempty(self):
        doc = (REPO_ROOT / ANALYSIS_DOC).read_text(encoding="utf-8")
        refs = list(lint_flag_references(doc))
        assert refs, "ANALYSIS.md documents no CLI flags — scan is vacuous"
        assert check_lint_flags(REPO_ROOT) == []


class TestRuntimeFlags:
    """docs/SERVING.md's `repro runtime` flag references must resolve."""

    def _tree(self, tmp_path, doc_text, extra=None, extra_text=None):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / Path(SERVING_DOC).name).write_text(doc_text)
        if extra is not None:
            (tmp_path / extra).write_text(
                extra_text
                or "Pass `--hyper-batch` to `repro runtime` to batch harder.\n"
            )
        cli = tmp_path / RUNTIME_CLI
        cli.parent.mkdir(parents=True)
        cli.write_text((REPO_ROOT / RUNTIME_CLI).read_text(encoding="utf-8"))
        return tmp_path

    def test_parser_defines_the_serving_flags(self):
        flags = runtime_cli_flags(REPO_ROOT)
        assert {
            "--cache",
            "--staleness-bound",
            "--cache-capacity",
            "--cache-policy",
            "--read-workload",
        } <= flags

    def test_references_keyed_on_runtime_invocations(self):
        refs = list(
            runtime_flag_references(
                "Run `python -m repro runtime --cache` with\n"
                "`--staleness-bound 2`.\n"
                "```bash\n"
                "python -m repro runtime --cache --read-workload zipf:1.2\n"
                "python -m repro.analysis src --format text  # lint, not scanned\n"
                "```\n"
            )
        )
        assert refs == [
            (1, "--cache"),
            (2, "--staleness-bound"),
            (4, "--cache"),
            (4, "--read-workload"),
        ]

    def test_dangling_flag_is_reported(self, tmp_path):
        root = self._tree(
            tmp_path, "Pass `--turbo-cache` to `repro runtime` to go fast.\n"
        )
        (broken,) = check_runtime_flags(root)
        assert broken.target == "--turbo-cache"
        assert "no such repro runtime flag" in broken.reason

    def test_real_serving_doc_references_are_live_and_nonempty(self):
        doc = (REPO_ROOT / SERVING_DOC).read_text(encoding="utf-8")
        refs = list(runtime_flag_references(doc))
        assert refs, "SERVING.md documents no CLI flags — scan is vacuous"
        assert check_runtime_flags(REPO_ROOT) == []

    def test_parser_defines_the_batching_flags(self):
        assert {"--batch-k", "--wire-codec"} <= runtime_cli_flags(REPO_ROOT)

    def test_relational_and_performance_docs_are_scanned(self):
        # The k-update docs must be in the validated set, reference the
        # batching flags, and resolve cleanly against the parser.
        assert "docs/RELATIONAL.md" in RUNTIME_FLAG_DOCS
        assert "docs/PERFORMANCE.md" in RUNTIME_FLAG_DOCS
        for relpath in ("docs/RELATIONAL.md", "docs/PERFORMANCE.md"):
            doc = (REPO_ROOT / relpath).read_text(encoding="utf-8")
            flags = {flag for _, flag in runtime_flag_references(doc)}
            assert {"--batch-k", "--wire-codec"} <= flags, relpath
        assert check_runtime_flags(REPO_ROOT) == []

    def test_dangling_flag_in_a_new_runtime_doc_is_reported(self, tmp_path):
        root = self._tree(
            tmp_path, "# serving\n", extra="docs/RELATIONAL.md"
        )
        (broken,) = check_runtime_flags(root)
        assert broken.target == "--hyper-batch"
        assert broken.file.name == "RELATIONAL.md"


class TestSubcommands:
    """Every ``repro <sub>`` a doc shows must be a registered subparser."""

    def test_parser_registers_the_documented_subcommands(self):
        subs = runtime_cli_subcommands(REPO_ROOT)
        assert {"runtime", "freshness", "trace", "lint", "scenario"} <= subs

    def test_references_come_from_code_positions_only(self):
        refs = list(
            subcommand_references(
                "Prose about the repro warehouse is not scanned.\n"
                "Run `repro freshness --reads 8` or `python -m repro trace t`.\n"
                "```bash\n"
                "python -m repro runtime --seed 7\n"
                "```\n"
                "```python\n"
                "from repro import Simulation  # import, not an invocation\n"
                "```\n"
            )
        )
        assert refs == [(2, "freshness"), (2, "trace"), (4, "runtime")]

    def test_dangling_subcommand_is_reported(self, tmp_path):
        (tmp_path / "README.md").write_text("See `repro frobnicate --all`.\n")
        cli = tmp_path / RUNTIME_CLI
        cli.parent.mkdir(parents=True)
        cli.write_text((REPO_ROOT / RUNTIME_CLI).read_text(encoding="utf-8"))
        (broken,) = check_subcommands(tmp_path)
        assert broken.target == "repro frobnicate"
        assert "no such repro subcommand" in broken.reason

    def test_multiview_doc_is_flag_checked_and_references_are_live(self):
        assert "docs/MULTIVIEW.md" in RUNTIME_FLAG_DOCS
        doc = (REPO_ROOT / "docs" / "MULTIVIEW.md").read_text(encoding="utf-8")
        flags = {flag for _, flag in runtime_flag_references(doc)}
        assert "--share-compensation" in flags
        subs = {sub for _, sub in subcommand_references(doc)}
        assert {"runtime", "freshness"} <= subs
        assert check_runtime_flags(REPO_ROOT) == []
        assert check_subcommands(REPO_ROOT) == []


class TestRealRepository:
    def test_readme_and_docs_have_no_dead_links(self):
        broken = check_tree(REPO_ROOT)
        assert broken == [], "\n".join(
            f"{b.file.relative_to(REPO_ROOT)}:{b.line}: {b.target} — {b.reason}"
            for b in broken
        )

    def test_documentation_index_covers_every_docs_file(self):
        # Every docs/*.md must be reachable from the README's index.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for path in sorted((REPO_ROOT / "docs").glob("*.md")):
            assert f"docs/{path.name}" in readme, f"README does not link docs/{path.name}"


class TestTutorialDoctest:
    def test_tutorial_examples_execute(self):
        import doctest

        failures, tested = doctest.testfile(
            str(REPO_ROOT / "docs" / "TUTORIAL.md"), module_relative=False
        )
        assert tested > 0
        assert failures == 0
