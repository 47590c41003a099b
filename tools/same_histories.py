#!/usr/bin/env python
"""Show that two trees behave the same: histories, runs and recovery.

Usage::

    python tools/same_histories.py PARENT CHANGE [--allow NAME ...] [--quick]

``PARENT`` and ``CHANGE`` are git revisions of this repository or
directories holding a checkout (``.`` is the working tree).  Two halves:

1. **Suites.**  The parent's nine history suites (:data:`SUITES`) run
   against each tree's ``src``, with this module loaded as a pytest
   plugin.  The plugin hashes every history a ``run_concurrent`` or
   ``SyncKernel.run`` call produces — events, source states, per-source
   states, view states, action log, read results, final view, crashes
   and WAL totals — and the two trees' outcomes and hashes are compared
   test by test.
2. **Matrix.**  ``repro runtime`` runs on both trees over a *generated*
   matrix: a pairwise covering array over :data:`AXES` (every pair of
   axis values appears in some row).  Every row runs with ``--wal-dir
   --metrics-out --trace-out --require-consistent``.  Exit code, stderr,
   stdout, metrics, trace and the state ``recover`` rebuilds from every
   WAL directory are compared, and the change's ``recover`` must also
   rebuild the parent's directories to what the parent's does.

A change that is *meant* to move some bytes names them with ``--allow``
(:data:`ALLOWANCES`) instead of editing this file.  Wall-clock figures
are never compared.  Exit status: 0 when nothing else differs, 1
otherwise.  ``--quick`` keeps every suite and a quarter of the matrix
(under a minute on two CPUs).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

TOOLS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TOOLS)

SUITES = tuple(
    f"tests/integration/test_{name}.py"
    for name in (
        "conformance",
        "batched_conformance",
        "shared_compensation",
        "sharding",
        "history_recorder",
        "runtime",
        "crash_recovery",
        "serving_runtime",
        "obs_runtime",
    )
)

#: The differences a change may declare, by name.
ALLOWANCES = {
    "wh-bytes": "byte counters of the wh-> channels (what the warehouse ships)",
    "wal-layout": "WAL record and snapshot counts, LSNs, replayed record "
    "counts, and wal.snapshot spans (span ids renumbered)",
    "planner-counts": "the shared-compensation planner's issued / saved "
    "query counts, which are not persisted: a recovered catalog restarts "
    "them at its snapshot, so they move with snapshot placement",
}

#: Matrix axes: name -> (label, ``repro runtime`` arguments) per value.
AXES: Tuple[Tuple[str, Tuple[Tuple[str, Tuple[str, ...]], ...]], ...] = (
    (
        "crash",
        (
            ("off", ()),
            ("mid-uqs", ("--crash",)),
            ("after-answer", ("--crash", "--crash-mode", "after-answer")),
            ("event", ("--crash", "--crash-mode", "event", "--crash-at", "4")),
        ),
    ),
    ("drop-sends", (("off", ()), ("on", ("--drop-sends",)))),
    (
        "codec",
        (
            ("none", ()),
            ("frame", ("--wire-codec", "frame")),
            ("zlib", ("--wire-codec", "zlib")),
        ),
    ),
    ("batch-k", (("1", ()), ("4", ("--batch-k", "4")))),
    (
        "shards",
        (
            ("off", ()),
            ("2", ("--shards", "2")),
            ("3/crash-shard-1", ("--shards", "3", "--crash-shard", "1")),
        ),
    ),
    ("sharing", (("off", ()), ("on", ("--share-compensation", "on")))),
    ("cache", (("off", ()), ("on", ("--cache", "--read-workload", "zipf:1")))),
    (
        "topology",
        (
            ("2x6", ("--sources", "2", "--updates", "6", "--clients", "2")),
            ("1x24", ("--sources", "1", "--updates", "24", "--clients", "0")),
            ("3x4", ("--sources", "3", "--updates", "4", "--clients", "1")),
        ),
    ),
    ("seed", tuple((str(seed), ("--seed", str(seed))) for seed in range(3))),
)

#: Every matrix row also writes all three artefacts and demands consistency.
ROW_OUTPUTS = (
    "--wal-dir",
    "wal",
    "--metrics-out",
    "metrics.json",
    "--trace-out",
    "trace.jsonl",
    "--require-consistent",
)

#: A row's subprocess budget (a stalled run must not stall the tool).
ROW_TIMEOUT_S = 120

#: Matrix rows run at once, each in its own interpreter: one per CPU,
#: at most four (the three-source rows' consistency check is not small).
ROW_WORKERS = min(4, os.cpu_count() or 1)

Row = Dict[str, str]
Allow = frozenset


# --------------------------------------------------------------------- #
# Hashing: one deterministic text per recorded value
# --------------------------------------------------------------------- #


def canon(value: object) -> str:
    """Deterministic text for a recorded value: bags as sorted pairs,
    dicts sorted, slotted objects field by field."""
    if hasattr(value, "to_pairs"):
        return f"bag{value.to_pairs()!r}"
    if isinstance(value, dict):
        items = sorted(f"{canon(key)}:{canon(item)}" for key, item in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(item) for item in value) + "]"
    slots = getattr(type(value), "__slots__", None)
    if slots and not isinstance(value, (str, bytes)):
        fields = {slot: getattr(value, slot, None) for slot in slots}
        return type(value).__name__ + canon(fields)
    return repr(value)


def digest(values: Iterable[object]) -> str:
    """One hash over a sequence, each distinct object rendered once."""
    values = list(values)  # alive until the end: the memo is keyed by id
    seen: Dict[int, str] = {}
    hasher = hashlib.sha256()
    for value in values:
        text = seen.get(id(value))
        if text is None:
            text = seen[id(value)] = canon(value)
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


_RECOVERED_FROM = re.compile(r"snapshot lsn \d+ \+ \d+ replayed")


def mask_recovery(text: str, allow: Allow) -> str:
    """``recovered from snapshot lsn N + M replayed`` with N, M hidden."""
    if "wal-layout" not in allow:
        return text
    return _RECOVERED_FROM.sub("snapshot lsn * + * replayed", text)


def history_components(result: object, allow: Allow) -> Dict[str, str]:
    """Hashes of what one ``RuntimeResult`` or ``Trace`` recorded."""
    trace = getattr(result, "trace", result)
    parts: Dict[str, str] = {
        "events": digest(mask_recovery(repr(e), allow) for e in trace.events),
        "source_states": digest(trace.source_states),
        "view_states": digest(trace.view_states),
    }
    if trace is result:
        return parts
    crashes = [dict(crash) for crash in result.crashes]
    if "wal-layout" in allow:
        for crash in crashes:
            crash.pop("snapshot_lsn", None)
            crash.pop("replayed", None)
    parts.update(
        per_source_states=digest([result.per_source_states]),
        action_log=digest(result.action_log),
        read_results=digest([result.read_results]),
        final_view=digest([result.final_view]),
        crashes=digest(crashes),
        wal=digest([None if "wal-layout" in allow else result.wal_stats]),
    )
    return parts


# --------------------------------------------------------------------- #
# The pytest plugin (``-p same_histories``)
# --------------------------------------------------------------------- #


def pytest_addoption(parser) -> None:
    group = parser.getgroup("same-histories")
    group.addoption("--histories-out", help="write per-test history hashes here")
    group.addoption("--histories-allow", action="append", default=[])


def pytest_configure(config) -> None:
    path = config.getoption("histories_out")
    if path:
        allow = Allow(config.getoption("histories_allow"))
        config.pluginmanager.register(HistoryHashes(path, allow), "history-hashes")


class HistoryHashes:
    """Hashes every history the session's tests produce, per test id."""

    def __init__(self, path: str, allow: Allow) -> None:
        from repro.kernel.sync import SyncKernel
        from repro.runtime.harness import RuntimeResult

        self.path = path
        self.tests: Dict[str, Dict[str, object]] = {}
        self.current = ""
        record = self.record
        original_init, original_run = RuntimeResult.__init__, SyncKernel.run

        def init(result, *args, **kwargs):
            original_init(result, *args, **kwargs)
            record("run_concurrent", result, allow)

        def run(kernel, *args, **kwargs):
            trace = original_run(kernel, *args, **kwargs)
            record("SyncKernel.run", trace, allow)
            return trace

        RuntimeResult.__init__ = init
        SyncKernel.run = run

    def entry(self, nodeid: str) -> Dict[str, object]:
        return self.tests.setdefault(nodeid, {"outcome": "passed", "runs": []})

    def record(self, kind: str, result: object, allow: Allow) -> None:
        self.entry(self.current)["runs"].append(
            {
                "kind": kind,
                "hashes": history_components(result, allow),
                "raw": history_components(result, Allow()),
            }
        )

    def pytest_runtest_setup(self, item) -> None:
        self.current = item.nodeid

    def pytest_runtest_logreport(self, report) -> None:
        entry = self.entry(report.nodeid)
        if report.failed:
            entry["outcome"] = f"failed ({report.when})"
        elif report.skipped:
            entry["outcome"] = "skipped"

    def pytest_sessionfinish(self) -> None:
        import repro

        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump({"repro": repro.__file__, "tests": self.tests}, handle, indent=1)


# --------------------------------------------------------------------- #
# Recovered state (run inside a tree: ``print_recovered``)
# --------------------------------------------------------------------- #


def recovered_state(directory: str) -> Dict[str, object]:
    """What ``recover`` rebuilds from one WAL directory, as hashes."""
    from repro.durability import recover
    from repro.durability.codec import canonical_json, encode_algorithm, encode_value

    def text_hash(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    try:
        result = recover(directory)
    except Exception as error:  # a refusal is an outcome to compare too
        return {"error": f"{type(error).__name__}: {error}".replace(directory, "<dir>")}
    algorithm = result.algorithm
    state = encode_algorithm(algorithm)
    if not isinstance(state, str):
        state = canonical_json(state)
    return {
        "view": text_hash(canonical_json(encode_value(algorithm.view_state()))),
        # View contents, COLLECT, UQS queries, configuration: everything.
        "state": text_hash(state),
        "uqs": list(algorithm.pending_query_ids()),
        "reissue": [
            [destination, request.query_id, text_hash(canonical_json(encode_value(request.query)))]
            for destination, request in result.reissue
        ],
        "replayed": result.replayed,
        "lsns": [result.snapshot_lsn, result.last_lsn],
        "torn": result.torn_records,
    }


def print_recovered(directories: Sequence[str]) -> None:
    json.dump({path: recovered_state(path) for path in directories}, sys.stdout)


# --------------------------------------------------------------------- #
# The matrix: a pairwise covering array over AXES
# --------------------------------------------------------------------- #


def conflicts(row: Row, multi_source: Set[str]) -> bool:
    """Whether a (partial) row is a combination the CLI rejects by design."""
    if row.get("algorithm") in multi_source and (
        row.get("shards", "off") != "off"
        or row.get("sharing", "off") != "off"
        or row.get("topology") == "1x24"
    ):
        return True  # one spanning view: nothing to shard or share
    return row.get("drop-sends") == "on" and row.get("crash") == "off"


def pairwise(
    axes: Sequence[Tuple[str, Sequence[str]]], multi_source: Set[str]
) -> List[Row]:
    """Rows covering every feasible pair of axis values (greedy, deterministic)."""
    names = [name for name, _ in axes]
    values = dict(axes)
    uncovered = {
        ((a, x), (b, y))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        for x in values[a]
        for y in values[b]
        if not conflicts({a: x, b: y}, multi_source)
    }

    def pairs(row: Row, name: str) -> int:
        return sum(
            (((a, row[a]), (name, row[name])) if names.index(a) < names.index(name)
             else ((name, row[name]), (a, row[a]))) in uncovered
            for a in row
            if a != name
        )

    rows: List[Row] = []
    while uncovered:
        (a, x), (b, y) = min(uncovered)
        row = {a: x, b: y}
        for name in names:
            if name in row:
                continue
            best: Optional[Tuple[int, str]] = None
            for label in values[name]:
                candidate = {**row, name: label}
                if conflicts(candidate, multi_source):
                    continue
                gain = pairs(candidate, name)
                if best is None or gain > best[0]:
                    best = (gain, label)
            assert best is not None, f"no value of {name} fits {row}"
            row[name] = best[1]
        rows.append({name: row[name] for name in names})
        uncovered -= {
            ((p, row[p]), (q, row[q]))
            for i, p in enumerate(names)
            for q in names[i + 1 :]
        }
    return rows


def row_arguments(row: Row) -> List[str]:
    options = {name: dict(values) for name, values in AXES}
    arguments = ["--algorithm", row["algorithm"]]
    for name, _ in AXES:
        arguments += options[name][row[name]]
    return arguments + list(ROW_OUTPUTS)


def row_label(row: Row) -> str:
    return " ".join(
        [row["algorithm"]]
        + [f"{name}={row[name]}" for name, values in AXES if row[name] != values[0][0]]
    )


# --------------------------------------------------------------------- #
# What each side of a row is compared on
# --------------------------------------------------------------------- #


def normalize_stdout(text: str, allow: Allow) -> List[str]:
    """Stdout lines as single-spaced tokens (a column that narrows must
    not move its neighbours), wall-clock lines and allowed cells masked."""
    lines: List[str] = []
    bytes_at: Optional[int] = None
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            bytes_at = None
        elif tokens[:2] == ["wall", "time:"] or tokens[0] == "throughput:":
            tokens = tokens[:-2] + ["*"]
        elif tokens[:4] == ["channel", "sent", "delivered", "bytes"]:
            bytes_at = 3
        elif bytes_at is not None and "wh-bytes" in allow and tokens[0].startswith("wh->"):
            tokens[bytes_at] = "*"
        elif "wal-layout" in allow and tokens[0] == "WAL:":
            tokens = ["WAL:", "*"]
        elif "planner-counts" in allow and tokens[:2] == ["shared", "compensation:"]:
            tokens = tokens[:2] + ["*"]
        elif "wal-layout" in allow and tokens[0] == "trace:":
            tokens[1] = "*"
        lines.append(mask_recovery(" ".join(tokens), allow))
    return lines


#: Series that count WAL records, snapshots, LSNs and replays.
_WAL_LAYOUT_SERIES = (
    "repro_wal_snapshot_total",
    "repro_wal_records",
    "repro_wal_snapshots",
    "repro_wal_last_lsn",
    "repro_recovery_replayed_total",
)
_PLANNER_SERIES = ("repro_shared_queries_issued", "repro_shared_queries_saved")


def normalize_metrics(path: str, allow: Allow) -> Dict[str, object]:
    """``name{labels}`` -> value, without wall time or allowed series."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    flat: Dict[str, object] = {"meta": document.get("meta")}
    for name, metric in document["metrics"].items():
        for series in metric["series"]:
            labels = series["labels"]
            if name == "repro_run" and labels.get("stat") == "wall_seconds":
                continue
            if "wh-bytes" in allow and name == "repro_channel_bytes_total" and str(
                labels.get("channel", "")
            ).startswith("wh->"):
                continue
            if "wal-layout" in allow and (
                name in _WAL_LAYOUT_SERIES
                or (name == "repro_wal_append_total" and labels.get("type") != "recv")
            ):
                continue
            if "planner-counts" in allow and name in _PLANNER_SERIES:
                continue
            flat[f"{name}{json.dumps(labels, sort_keys=True)}"] = series["value"]
    return flat


def normalize_trace(path: str, allow: Allow) -> List[str]:
    """Spans in order; under ``wal-layout`` without ``wal.snapshot``
    spans, ids renumbered in order, recovery counts hidden."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    if "wal-layout" in allow:
        spans = [span for span in spans if span["name"] != "wal.snapshot"]
        renumber = {span["span_id"]: index for index, span in enumerate(spans, 1)}
        for span in spans:
            span["span_id"] = renumber[span["span_id"]]
            if span.get("parent") is not None:
                span["parent"] = renumber.get(span["parent"], "dropped")
            span["links"] = [[kind, renumber.get(to, "dropped")] for kind, to in span["links"]]
            if span["name"] == "wh.recovery":
                span["attrs"].pop("snapshot_lsn", None)
                span["attrs"].pop("replayed", None)
    return [json.dumps(span, sort_keys=True) for span in spans]


def normalize_recovered(state: Dict[str, object], allow: Allow) -> Dict[str, object]:
    if "wal-layout" in allow:
        return {k: v for k, v in state.items() if k not in ("replayed", "lsns")}
    return state


# --------------------------------------------------------------------- #
# Driving two trees
# --------------------------------------------------------------------- #


class Tree:
    """One side of the comparison: a checkout with ``src/repro``."""

    def __init__(self, spec: str, work: str, role: str) -> None:
        if os.path.isdir(os.path.join(spec, "src", "repro")):
            self.path = os.path.abspath(spec)
            self.label = f"{spec} (directory)"
        else:
            commit = git("rev-parse", "--verify", f"{spec}^{{commit}}").strip()
            self.path = os.path.join(work, role)
            os.makedirs(self.path)
            archive = subprocess.run(
                ["git", "-C", REPO, "archive", commit], check=True, capture_output=True
            ).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
                tar.extractall(self.path, **extra)
            self.label = f"{spec} ({commit[:10]})"
        self.src = os.path.join(self.path, "src")

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([self.src, TOOLS])
        env["PYTHONHASHSEED"] = "0"
        return env

    def python(self, args: Sequence[str], cwd: str, timeout: Optional[float] = None):
        return subprocess.run(
            [sys.executable, *args],
            cwd=cwd,
            env=self.env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", REPO, *args], check=True, capture_output=True, text=True
    ).stdout


class Report:
    """Every difference found, and how many an allowance covered."""

    def __init__(self) -> None:
        self.differences: List[Tuple[str, str, str]] = []
        self.allowed: Dict[str, Set[str]] = {}
        self.compared: Dict[str, int] = {}

    def count(self, section: str) -> None:
        self.compared[section] = self.compared.get(section, 0) + 1

    def compare(
        self, section: str, where: str, what: str, parent, change, parent_raw=None, change_raw=None
    ) -> None:
        """Record a difference; or, when only the unmasked forms differ,
        that an allowance covered one."""
        if parent != change:
            self.differences.append((where, what, describe(parent, change)))
        elif parent_raw is not None and parent_raw != change_raw:
            self.allowed.setdefault(section, set()).add(where)


def describe(parent: object, change: object) -> str:
    """The first place two compared values part."""
    if isinstance(parent, dict) and isinstance(change, dict):
        keys = sorted(set(parent) | set(change), key=str)
        for key in keys:
            if parent.get(key) != change.get(key):
                return f"{key}: {parent.get(key)!r} -> {change.get(key)!r}"
    if isinstance(parent, list) and isinstance(change, list):
        for index, (a, b) in enumerate(zip(parent, change)):
            if a != b:
                return f"[{index}] {a!r} -> {b!r}"
        return f"length {len(parent)} -> {len(change)}"
    return f"{parent!r} -> {change!r}"


def run_suites(tree: Tree, tests_from: Tree, allow: Allow, out: str) -> Dict[str, object]:
    """The parent's suites against ``tree``'s src; the plugin's hashes.

    Only a session that reached every suite counts: pytest exits 0 or 1
    (a failed test is an outcome to compare) and each of :data:`SUITES`
    ran tests.  A suite that fails to collect on both trees would
    otherwise compare equal by being absent from both."""
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "same_histories"]
    args += ["--histories-out", out]
    for name in sorted(allow):
        args += ["--histories-allow", name]
    done = tree.python(args + list(SUITES), cwd=tests_from.path)
    output = f"{done.stdout}{done.stderr}"
    if done.returncode not in (0, 1) or not os.path.exists(out):
        raise SystemExit(
            f"suites did not run on {tree.label} (pytest exit {done.returncode}):\n{output}"
        )
    with open(out, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if not os.path.abspath(recorded["repro"]).startswith(tree.src + os.sep):
        raise SystemExit(f"suites imported {recorded['repro']}, not {tree.label}'s src")
    tests = recorded["tests"]
    silent = [
        suite for suite in SUITES if not any(nodeid.startswith(suite + "::") for nodeid in tests)
    ]
    if silent:
        raise SystemExit(f"no test of {', '.join(silent)} ran on {tree.label}:\n{output}")
    return tests


def compare_suites(parent: Dict, change: Dict, report: Report) -> None:
    for nodeid in sorted(set(parent) | set(change)):
        report.count("suite tests")
        a, b = parent.get(nodeid), change.get(nodeid)
        if a is None or b is None:
            report.differences.append((nodeid, "test", "only in one tree"))
            continue
        report.compare("suite tests", nodeid, "outcome", a["outcome"], b["outcome"])
        if len(a["runs"]) != len(b["runs"]):
            report.differences.append(
                (nodeid, "histories", f"{len(a['runs'])} -> {len(b['runs'])} runs")
            )
            continue
        for index, (x, y) in enumerate(zip(a["runs"], b["runs"])):
            report.count("suite histories")
            report.compare(
                "suite histories",
                f"{nodeid} run {index}",
                x["kind"],
                x["hashes"],
                y["hashes"],
                x["raw"],
                y["raw"],
            )


def run_row(tree: Tree, row_dir: str, arguments: Sequence[str]) -> Dict[str, object]:
    os.makedirs(row_dir)
    try:
        done = tree.python(
            ["-m", "repro", "runtime", *arguments], cwd=row_dir, timeout=ROW_TIMEOUT_S
        )
        exit_code, stdout, stderr = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        exit_code, stdout, stderr = "timeout", "", ""
    return {"exit": exit_code, "stdout": stdout, "stderr": stderr}


def wal_directories(row_dir: str) -> List[str]:
    """Every directory under the row's ``wal`` that holds a log or snapshot."""
    found = []
    for root, _dirs, names in os.walk(os.path.join(row_dir, "wal")):
        if any(name == "wal.jsonl" or name.startswith("snapshot-") for name in names):
            found.append(root)
    return sorted(found)


def recover_all(tree: Tree, directories: Sequence[str], cwd: str) -> Dict[str, Dict]:
    if not directories:
        return {}
    code = "import sys, same_histories; same_histories.print_recovered(sys.argv[1:])"
    done = tree.python(["-c", code, *directories], cwd=cwd)
    if done.returncode != 0:
        raise SystemExit(f"recovery digest failed on {tree.label}:\n{done.stderr}")
    return json.loads(done.stdout)


def compare_row(
    index: int, row: Row, work: str, results: Dict[str, Dict], report: Report, allow: Allow
) -> None:
    where = f"row {index} [{row_label(row)}]"
    report.count("matrix rows")
    sides = {role: results[role] for role in ("parent", "change")}
    report.compare("matrix rows", where, "exit", sides["parent"]["exit"], sides["change"]["exit"])
    report.compare(
        "matrix rows", where, "stderr", sides["parent"]["stderr"].splitlines(),
        sides["change"]["stderr"].splitlines(),
    )
    for what, normalize, source in (
        ("stdout", normalize_stdout, "stdout"),
        ("metrics", normalize_metrics, "metrics.json"),
        ("trace", normalize_trace, "trace.jsonl"),
    ):
        forms = {}
        for role in ("parent", "change"):
            if source == "stdout":
                value = sides[role]["stdout"]
            else:
                value = os.path.join(work, role + "-rows", str(index), source)
            forms[role] = (normalize(value, allow), normalize(value, Allow()))
        report.compare(
            "matrix rows", where, what, forms["parent"][0], forms["change"][0],
            forms["parent"][1], forms["change"][1],
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision or checkout directory")
    parser.add_argument("change", help="git revision or checkout directory")
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        choices=sorted(ALLOWANCES),
        metavar="NAME",
        help="a difference the change is meant to make: "
        + "; ".join(f"{name} = {text}" for name, text in ALLOWANCES.items()),
    )
    parser.add_argument(
        "--quick", action="store_true", help="every suite, every fourth matrix row"
    )
    parser.add_argument("--keep", metavar="DIR", help="work here and keep it")
    args = parser.parse_args(argv)
    allow = Allow(args.allow)

    work = args.keep or tempfile.mkdtemp(prefix="same-histories-")
    os.makedirs(work, exist_ok=True)
    try:
        trees = {
            "parent": Tree(args.parent, work, "parent"),
            "change": Tree(args.change, work, "change"),
        }
        report = Report()

        suites = {
            role: run_suites(tree, trees["parent"], allow, os.path.join(work, f"{role}-suites.json"))
            for role, tree in trees.items()
        }
        compare_suites(suites["parent"], suites["change"], report)

        names = [
            set(tree.python(["-c", _LIST_ALGORITHMS], cwd=work).stdout.split())
            for tree in trees.values()
        ]
        algorithms = sorted(names[0] & names[1])
        multi = {name[1:] for name in algorithms if name.startswith("*")}
        algorithms = [name.lstrip("*") for name in algorithms]
        axes = [("algorithm", algorithms)] + [
            (name, [label for label, _ in values]) for name, values in AXES
        ]
        rows = pairwise(axes, multi)
        if args.quick:
            rows = rows[::4]

        results: Dict[int, Dict[str, Dict]] = {index: {} for index in range(len(rows))}
        jobs = [(index, role) for index in range(len(rows)) for role in trees]

        def execute(job: Tuple[int, str]) -> None:
            index, role = job
            row_dir = os.path.join(work, role + "-rows", str(index))
            results[index][role] = run_row(trees[role], row_dir, row_arguments(rows[index]))

        with ThreadPoolExecutor(max_workers=ROW_WORKERS) as pool:
            list(pool.map(execute, jobs))
        for index, row in enumerate(rows):
            compare_row(index, row, work, results[index], report, allow)

        # Recovery: each tree over its own directories, and the change
        # over the parent's (a directory the parent wrote must recover).
        directories = {
            role: [
                directory
                for index in range(len(rows))
                for directory in wal_directories(os.path.join(work, f"{role}-rows", str(index)))
            ]
            for role in trees
        }
        own = {role: recover_all(tree, directories[role], work) for role, tree in trees.items()}
        crossed = recover_all(trees["change"], directories["parent"], work)
        parent_rows = os.path.join(work, "parent-rows")
        for path in directories["parent"]:
            relative = os.path.relpath(path, parent_rows)
            twin = os.path.join(work, "change-rows", relative)
            report.count("WAL directories")
            where = f"row {relative}"
            if twin not in own["change"]:
                report.differences.append((where, "recover", "directory missing in change"))
                continue
            a, b = own["parent"][path], own["change"][twin]
            report.compare(
                "WAL directories", where, "recover",
                normalize_recovered(a, allow), normalize_recovered(b, allow), a, b,
            )
            report.compare(
                "WAL directories", where, "recovered by the change", a, crossed[path]
            )
        extra = len(directories["change"]) - len(directories["parent"])
        if extra > 0:
            report.differences.append(("wal", "recover", f"{extra} directories only in change"))

        print_report(trees, allow, report)
        return 1 if report.differences else 0
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


#: Registry names, multi-source ones starred (they take no shards or sharing).
_LIST_ALGORITHMS = (
    "from repro.core.registry import ALGORITHMS\n"
    "print(*('*' * bool(getattr(c, 'multi_source', False)) + n for n, c in ALGORITHMS.items()))"
)


def print_report(trees: Dict[str, Tree], allow: Allow, report: Report) -> None:
    allowed = ", ".join(sorted(allow)) or "nothing"
    print(f"same histories: {trees['parent'].label} -> {trees['change'].label}")
    print(f"allowed: {allowed}")
    for section, count in report.compared.items():
        covered = len(report.allowed.get(section, ()))
        note = f", {covered} differ only as allowed" if covered else ""
        print(f"  {section}: {count} compared{note}")
    if not report.differences:
        print("no differences")
        return
    print(f"{len(report.differences)} difference(s):")
    width = max(len(where) for where, _, _ in report.differences)
    print(f"{'where':<{width}}  {'what':<14}  detail")
    for where, what, detail in report.differences:
        print(f"{where:<{width}}  {what:<14}  {detail[:200]}")


if __name__ == "__main__":
    sys.exit(main())
