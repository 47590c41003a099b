"""Incremental mode: a content-hash finding cache under ``.repro-lint-cache/``.

``repro lint --changed`` re-analyzes only *dirty* files — files whose
content hash changed (or that are new) plus every file that can reach a
dirty file through the call graph (its transitive reverse
dependencies).  Dependents must re-run because their findings depend
on effects inferred across the edge: making a helper
impure must surface a finding in its unchanged caller, and cleaning the
helper must retract it.

The cache is one JSON document:

- per file: content hash and findings;
- the file-level dependency edges extracted from the last call graph;
- the findings of ``recompute_every_run`` rules (RPR006: cheap, and
  recomputed on any partial run).

A fully warm run — every hash matches — returns the cached findings
without parsing a single file, which is where the ≥5× cold/warm speedup
the tests assert comes from.  Anything suspicious (missing file, a cache
written under another :data:`CACHE_VERSION`, different rule selection)
degrades to a full cold run; the cache
is an optimization, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (
    AnalysisResult,
    all_rules,
    collect_files,
    execute_analysis,
)
from repro.analysis.findings import Finding

DEFAULT_CACHE_DIR = ".repro-lint-cache"
CACHE_FILE = "cache.json"
CACHE_VERSION = 2

Stats = Dict[str, object]


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rule_signature(select: Optional[Sequence[str]]) -> List[str]:
    ids = [rule.rule_id for rule in all_rules()]
    if select is not None:
        chosen = set(select)
        ids = [rule_id for rule_id in ids if rule_id in chosen]
    return ids


def _cache_path(cache_dir: str) -> Path:
    return Path(cache_dir) / CACHE_FILE


def load_cache(cache_dir: str) -> Optional[Dict[str, object]]:
    path = _cache_path(cache_dir)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CACHE_VERSION:
        return None
    return payload


def _dump_findings(findings: Sequence[Finding]) -> List[Dict[str, object]]:
    return [finding.as_dict() for finding in findings]


def _load_findings(raw: object) -> List[Finding]:
    if not isinstance(raw, list):
        return []
    return [Finding.from_dict(entry) for entry in raw]


def _write_cache(cache_dir: str, payload: Dict[str, object]) -> None:
    directory = Path(cache_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _cache_path(cache_dir).write_text(
            json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
        )
    except OSError:
        # An unwritable cache never fails the lint run.
        return


def _payload(
    rules_signature: List[str],
    hashes: Dict[str, str],
    by_path: Dict[str, List[Finding]],
    uncached: Sequence[Finding],
    deps: Dict[str, List[str]],
) -> Dict[str, object]:
    return {
        "version": CACHE_VERSION,
        "rules": rules_signature,
        "files": {
            display: {
                "hash": hashes[display],
                "findings": _dump_findings(by_path.get(display, [])),
            }
            for display in hashes
        },
        "uncached": _dump_findings(uncached),
        "deps": deps,
    }


def store_result(
    result: AnalysisResult,
    *,
    cache_dir: str = DEFAULT_CACHE_DIR,
) -> None:
    """Persist a *full* (unlimited) analysis result as the new cache."""
    hashes: Dict[str, str] = {}
    for display in result.by_path:
        try:
            hashes[display] = _hash_file(Path(display))
        except OSError:
            return  # a vanished file: skip caching this run entirely
    _write_cache(
        cache_dir,
        _payload(
            _rule_signature(None),
            hashes,
            result.by_path,
            result.uncached,
            result.file_deps,
        ),
    )


def _reverse_closure(
    seeds: Set[str], deps: Dict[str, List[str]]
) -> Set[str]:
    """Seeds plus everything that (transitively) depends on a seed."""
    reverse: Dict[str, Set[str]] = {}
    for caller, callees in deps.items():
        for callee in callees:
            reverse.setdefault(callee, set()).add(caller)
    dirty = set(seeds)
    frontier = list(seeds)
    while frontier:
        current = frontier.pop()
        for dependent in reverse.get(current, ()):
            if dependent not in dirty:
                dirty.add(dependent)
                frontier.append(dependent)
    return dirty


def incremental_analysis(
    paths: Sequence[str],
    *,
    cache_dir: str = DEFAULT_CACHE_DIR,
    select: Optional[FrozenSet[str]] = None,
) -> Tuple[List[Finding], Stats]:
    """The ``--changed`` pipeline: reuse, re-analyze, re-cache.

    Returns ``(findings, stats)`` where ``stats`` records whether the
    run was a full cache hit and which files were re-analyzed.
    """
    entries = collect_files(paths)
    hashes = {display: _hash_file(path) for path, display in entries}
    signature = _rule_signature(sorted(select) if select else None)
    cached = load_cache(cache_dir) or {}
    cached_files: Dict[str, Dict[str, object]] = {}
    raw_files, raw_deps = cached.get("files"), cached.get("deps")
    if cached.get("rules") == signature and isinstance(raw_files, dict):
        cached_files = raw_files

    changed = {
        display
        for display, digest in hashes.items()
        if display not in cached_files
        or cached_files[display].get("hash") != digest
    }
    removed = set(cached_files) - set(hashes)
    deps = raw_deps if isinstance(raw_deps, dict) else {}
    dirty = _reverse_closure(changed | removed, deps) & set(hashes)
    full_hit = bool(cached_files) and not changed and not removed

    by_path = {
        display: _load_findings(cached_files[display].get("findings"))
        for display in hashes
        if display not in dirty
    }
    if full_hit:
        uncached = _load_findings(cached.get("uncached"))
    else:
        result = execute_analysis(paths, select=select, limit=dirty)
        by_path.update(
            {display: result.by_path.get(display, []) for display in dirty}
        )
        uncached = result.uncached
        _write_cache(
            cache_dir,
            _payload(signature, hashes, by_path, uncached, result.file_deps),
        )
    stats: Stats = {
        "full_hit": full_hit,
        "reanalyzed": sorted(dirty),
        "reused": sorted(set(hashes) - dirty),
    }
    return AnalysisResult(by_path, uncached).findings(), stats
