"""Where the traced pass puts its spans, and what it derives from them.

Layers are the repo's packages.  :data:`SITES` lists, per span name, the
bindings to wrap: the defining module or class and, where a module did
``from x import f``, that module too (its copy of the name is what its
code calls).  Two functions are wrapped *only* at an import site, because
other layers call the same definition and must not be billed to this one:
``evaluate_query`` as bound in ``repro.source.memory`` (the benchmark's
own output checks use the engine directly) and ``canonical_json`` /
``encode_algorithm`` as bound in ``repro.durability.wal`` (the wire codec
calls the same ``canonical_json``).
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence

from bench.metrics import PER_LAYER, at_reference, percentile
from bench.trace import Site, Tracer
from bench.workloads import Outcome

#: Name of the root span a workload opens around each region it times.
ROOT = "bench.measured"


def _terms_built(args, result) -> int:
    return len(result.terms)


def _terms_negated(args, result) -> int:
    return len(args[1].terms)


def _uqs_and_terms(args, routed):
    """After ``on_update``: UQS size, and term count of each query sent."""
    return len(args[0].uqs), [request.query.term_count() for _, request in routed]


class _WalBytes:
    """Bytes ``append`` added to the log and ``snapshot`` wrote to its file.

    Neither returns a size, so probe the file position after the call: the
    log handle is reopened in append mode after every compaction, and its
    position is the file's length.  Positions are remembered per directory:
    the log reopened after a crash continues the same file.
    """

    def __init__(self) -> None:
        self._position: Dict[str, int] = {}

    def append(self, args, lsn) -> int:
        wal = args[0]
        position = wal._file.tell()
        added = position - self._position.get(wal.directory, 0)
        self._position[wal.directory] = position
        return added

    def snapshot(self, args, lsn) -> int:
        wal = args[0]
        self._position[wal.directory] = wal._file.tell()
        name = f"snapshot-{lsn:010d}.json"
        return os.path.getsize(os.path.join(wal.directory, name))


def sites() -> List[Site]:
    wal_bytes = _WalBytes()
    expressions = "repro.relational.expressions"
    return [
        ("relational.build", "repro.relational.views", "View.substitute", None),
        ("relational.build", expressions, "Query.substitute", _terms_built),
        ("relational.build", expressions, "Query.__sub__", _terms_negated),
        ("relational.build", expressions, "Query.__add__", None),
        ("relational.evaluate", "repro.source.memory", "evaluate_query",
         lambda args, bag: bag.distinct_count()),
        ("relational.evaluate", expressions, "Query.evaluate",
         lambda args, bag: bag.distinct_count()),
        ("relational.signature", "repro.relational.signature", "query_signature", None),
        ("relational.signature", "repro.warehouse.planner", "query_signature", None),
        ("core.on_update", "repro.core.protocol", "WarehouseAlgorithm.on_update",
         _uqs_and_terms),
        ("core.on_answer", "repro.core.protocol", "WarehouseAlgorithm.on_answer", None),
        ("warehouse.apply_delta", "repro.warehouse.state",
         "MaterializedView.apply_delta", None),
        ("warehouse.catalog", "repro.warehouse.catalog", "WarehouseCatalog.on_update", None),
        ("warehouse.catalog", "repro.warehouse.catalog", "WarehouseCatalog.on_answer", None),
        ("warehouse.planner", "repro.warehouse.planner", "CompensationPlanner.plan", None),
        ("warehouse.planner", "repro.warehouse.planner", "CompensationPlanner.retire", None),
        ("kernel.dispatch", "repro.kernel.dispatch", "dispatch_event", None),
        ("kernel.dispatch", "repro.kernel.sync", "dispatch_event", None),
        ("kernel.dispatch", "repro.runtime.actors", "dispatch_event", None),
        ("kernel.dispatch", "repro.durability.recovery", "dispatch_event", None),
        ("kernel.sync", "repro.kernel.sync", "SyncKernel.step", None),
        ("kernel.sync", "repro.simulation.driver", "Simulation.step", None),
        ("source.apply_update", "repro.source.memory", "MemorySource.apply_update", None),
        ("source.evaluate", "repro.source.memory", "MemorySource.evaluate", None),
        ("source.snapshot", "repro.source.memory", "MemorySource.snapshot", None),
        ("messaging.wire.encode", "repro.messaging.wire", "WireCodec.encode",
         lambda args, frame: len(frame)),
        ("messaging.wire.decode", "repro.messaging.wire", "WireCodec.decode", None),
        ("durability.append", "repro.durability.wal", "WriteAheadLog.append",
         wal_bytes.append),
        ("durability.snapshot", "repro.durability.wal", "WriteAheadLog.snapshot",
         wal_bytes.snapshot),
        ("durability.codec", "repro.durability.wal", "encode_algorithm", None),
        ("durability.codec", "repro.durability.wal", "canonical_json", None),
        ("durability.recover", "repro.durability.recovery", "recover", None),
        ("durability.recover", "repro.durability", "recover", None),
        ("durability.recover", "repro.runtime.harness", "recover", None),
        ("durability.recover", "repro.sharding.harness", "recover", None),
        ("runtime", "repro.runtime.harness", "run_concurrent", None),
        ("runtime", "repro.runtime", "run_concurrent", None),
        ("serving.read", "repro.serving.cache", "ServingCache.read",
         lambda args, served: served.status),
        ("serving.backend", "repro.serving.backend", "WarehouseReader.read", None),
        ("serving.invalidate", "repro.serving.cache", "ServingCache.invalidate", None),
    ]


def maintain_s(repeats: Sequence[Outcome]) -> float:
    """Maintenance time of a set of repeats (same estimator as
    ``updates_per_s``), for the overhead ratios."""
    return statistics.median(at_reference(r, r.maintain_s) for r in repeats)


def derive(
    tracer: Tracer, traced: Sequence[Outcome], untraced: Sequence[Outcome]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one workload.

    ``tracer`` holds the spans of the ``traced`` repeats (same inputs every
    time, so counts are per repeat and times are divided by the repeat
    count); ``untraced`` repeats of the same inputs price the tracing.
    Span times are brought to reference machine speed with the mean
    slowdown of the traced repeats.
    A layer the workload never enters reads 0.
    """
    repeats = len(traced)
    slowdown = statistics.fmean(r.slowdown for r in traced)
    durations = [d / slowdown for d in tracer.durations()]
    own = [d / slowdown for d in tracer.self_times()]
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    spans_of: Dict[str, List[int]] = {}
    for index, name in enumerate(tracer.names):
        spans_of.setdefault(name, []).append(index)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[index]
        total_s[name] = total_s.get(name, 0.0) + durations[index]

    out = {metric.name: 0.0 for metric in PER_LAYER}
    for name in calls:
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = calls[name] / repeats
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] = self_s[name] / repeats
    out["kernel.sync.steps"] = calls.get("kernel.sync", 0) / repeats

    def values(name: str) -> List[object]:
        return [
            tracer.values[i]
            for i in spans_of.get(name, ())
            if tracer.values[i] is not None
        ]

    for name, field in (
        ("relational.build", "terms"),
        ("relational.evaluate", "rows_out"),
        ("messaging.wire.encode", "bytes"),
        ("durability.append", "bytes"),
        ("durability.snapshot", "bytes"),
    ):
        out[f"{name}.{field}"] = sum(values(name)) / repeats
    sent = values("core.on_update")
    if sent:
        per_query = [terms for _, queries in sent for terms in queries]
        out["core.uqs_peak"] = max(uqs for uqs, _ in sent)
        if per_query:
            out["core.terms_per_query_mean"] = statistics.fmean(per_query)
            out["core.terms_per_query_max"] = max(per_query)

    reads = [
        (durations[i] * 1e6, tracer.values[i])
        for i in spans_of.get("serving.read", ())
    ]
    if reads:
        hits = [us for us, status in reads if status == "hit"]
        out["serving.read.hit_p50_us"] = statistics.median(hits) if hits else 0.0
        out["serving.read.p99_us"] = percentile([us for us, _ in reads], 99)

    last = traced[-1]
    out.update(last.counters)
    out["messaging.msgs_to_source"] = last.msgs_to_source
    out["messaging.msgs_to_warehouse"] = last.msgs_to_warehouse
    shared = out["warehouse.planner.issued"] + out["warehouse.planner.saved"]
    if shared:
        out["warehouse.planner.share_ratio"] = out["warehouse.planner.saved"] / shared

    wall = total_s.get(ROOT, 0.0)
    if "runtime" in calls:
        out["runtime.total_s"] = total_s["runtime"] / repeats
        out["runtime.residual_s"] = self_s["runtime"] / repeats
        out["runtime.residual_share"] = self_s["runtime"] / total_s["runtime"]
    if wall:
        layered = sum(s for n, s in self_s.items() if n not in (ROOT, "runtime"))
        out["trace.coverage"] = layered / wall
    out["trace.overhead_ratio"] = maintain_s(traced) / maintain_s(untraced)
    out["machine.slowdown"] = statistics.median(
        r.slowdown for r in list(traced) + list(untraced)
    )
    return out
