"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Print Table 1 and the Section 6.1 message-count analysis.
``figures``
    Regenerate the analytic series of Figures 6.2-6.5.
``measure``
    Run the simulated (measured) counterparts of the cost curves.
``scenario``
    Replay one of the paper's worked examples event by event.
``audit``
    Run the correctness-hierarchy audit over randomized workloads.
``crossovers``
    Print the headline crossover points the figures claim.
``runtime``
    Run the concurrent asyncio runtime: N sources x M clients, optional
    fault-injecting transport, consistency verdict and metrics.  With
    ``--trace-out`` / ``--metrics-out`` / ``--prom-out`` the run also
    exports its causal span trace and metrics registry.
``trace``
    Render a recorded trace file as a causal timeline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.costmodel.parameters import PaperParameters


def _add_param_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cardinality", "-C", type=int, default=100, help="relation cardinality C")
    parser.add_argument("--tuple-bytes", "-S", type=int, default=4, help="bytes per projected tuple S")
    parser.add_argument("--selectivity", type=float, default=0.5, help="selection factor sigma")
    parser.add_argument("--join-factor", "-J", type=int, default=4, help="join factor J")
    parser.add_argument("--block-factor", "-K", type=int, default=20, help="tuples per block K")


def _params(args: argparse.Namespace) -> PaperParameters:
    return PaperParameters(
        cardinality=args.cardinality,
        tuple_bytes=args.tuple_bytes,
        selectivity=args.selectivity,
        join_factor=args.join_factor,
        block_factor=args.block_factor,
    )


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.experiments.tables import messages_table, parameter_table

    print(render_table("Table 1 — model parameters", parameter_table(_params(args))))
    print()
    print(
        render_table(
            "Section 6.1 — messages",
            messages_table(k_values=(1, 10, 100), periods=(1, 10)),
        )
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.report import render_series

    params = _params(args)
    wanted = args.figure
    for name, builder in ALL_FIGURES.items():
        if wanted != "all" and not name.endswith(wanted):
            continue
        series = builder(params)
        x_key = "C" if name == "figure-6.2" else "k"
        print(render_series(name, series, x_key=x_key))
        print()
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    from repro.experiments.measured import measure_bytes_series, measure_io_series
    from repro.experiments.report import render_series

    params = _params(args)
    k_values = tuple(args.k)
    if args.metric == "bytes":
        series = measure_bytes_series(params, k_values=k_values, source_kind=args.source)
        title = "Measured B versus k"
    else:
        scenario = 1 if args.metric == "io1" else 2
        series = measure_io_series(
            scenario, params, k_values=k_values, source_kind=args.source
        )
        title = f"Measured IO versus k, Scenario {scenario}"
    print(render_series(title, series))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.consistency import check_trace
    from repro.experiments.runner import run_scenario
    from repro.relational.engine import evaluate_view
    from repro.workloads.paper_examples import PAPER_EXAMPLES

    if args.list or args.name is None:
        for name, scenario in sorted(PAPER_EXAMPLES.items()):
            print(f"{name:<12} {scenario.paper_ref:<28} algorithm={scenario.algorithm}")
        return 0
    try:
        scenario = PAPER_EXAMPLES[args.name]
    except KeyError:
        print(f"unknown scenario {args.name!r}; use --list", file=sys.stderr)
        return 2
    trace, warehouse = run_scenario(
        scenario, algorithm=args.algorithm, source_kind=args.source
    )
    print(f"{scenario.paper_ref} — {scenario.description}\n")
    print(trace.describe())
    correct = evaluate_view(scenario.view, trace.final_source_state)
    report = check_trace(scenario.view, trace)
    print(f"\nfinal view:   {sorted(warehouse.mv.rows())}")
    print(f"correct view: {sorted(correct.expand_rows())}")
    print(f"correctness:  {report.level()}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.experiments.tables import audit_rows

    print(
        render_table(
            f"Correctness audit ({args.workloads} workloads x 3 schedules)",
            audit_rows(args.workloads, args.updates),
        )
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.full_report import generate_report

    text = generate_report(_params(args), quick=args.quick)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_staleness(args: argparse.Namespace) -> int:
    from repro.consistency import check_trace, staleness_profile
    from repro.core.batch import BatchECA
    from repro.core.eca import ECA
    from repro.core.recompute import RecomputeView
    from repro.costmodel.counters import CostRecorder
    from repro.experiments.report import render_table
    from repro.relational.engine import evaluate_view
    from repro.relational.schema import RelationSchema
    from repro.relational.views import View
    from repro.simulation.driver import Simulation
    from repro.simulation.schedules import BestCaseSchedule
    from repro.source.memory import MemorySource
    from repro.workloads.random_gen import random_workload

    schemas = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
    initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
    k = args.updates
    policies = [("ECA (immediate)", lambda v, iv: ECA(v, iv))]
    for s in args.periods:
        policies.append(
            (f"RV s={s}", lambda v, iv, s=s: RecomputeView(v, iv, period=s))
        )
    for b in args.batches:
        policies.append(
            (f"Batch b={b}", lambda v, iv, b=b: BatchECA(v, iv, batch_size=b))
        )
    rows = []
    for label, factory in policies:
        view = View.natural_join("V", schemas, ["W", "Y"])
        source = MemorySource(schemas, initial)
        warehouse = factory(view, evaluate_view(view, source.snapshot()))
        recorder = CostRecorder()
        workload = random_workload(schemas, k, seed=args.seed, initial=initial)
        trace = Simulation(source, warehouse, workload, recorder).run(
            BestCaseSchedule()
        )
        profile = staleness_profile(view, trace)
        rows.append(
            {
                "policy": label,
                "messages": recorder.messages,
                "mean lag": round(profile.mean_lag, 2),
                "max lag": profile.max_lag,
                "level": check_trace(view, trace).level(),
            }
        )
    print(render_table(f"Freshness vs messages (k={k})", rows))
    return 0


def _fanout_topology(n_sources: int, updates: int, seed: int, algorithm: str = "eca"):
    """The Section 7 fan-out: N autonomous sources, one join view each.

    Source ``s<i>`` owns ``s<i>r1(W, X)`` / ``s<i>r2(X, Y)`` and view
    ``V<i>`` joins them; the chosen per-view ``algorithm`` maintains each
    view separately.  Shared by ``repro runtime`` and ``repro freshness``
    so both commands measure the same topology.
    """
    from repro.core.registry import create_algorithm
    from repro.relational.engine import evaluate_view
    from repro.relational.schema import RelationSchema
    from repro.relational.views import View
    from repro.source.memory import MemorySource
    from repro.workloads.random_gen import random_workload

    sources = {}
    algorithms = {}
    workload = []
    for index in range(n_sources):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
            RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {
            f"{prefix}r1": [(1, 2), (2, 3)],
            f"{prefix}r2": [(2, 5), (3, 6)],
        }
        source = MemorySource(schemas, initial)
        sources[prefix] = source
        view = View.natural_join(f"V{index}", schemas, ["W", "Y"])
        state = source.snapshot()
        # Stored copies start from the source's data, like the view does.
        options = {"initial_copies": state} if algorithm == "stored-copies" else {}
        algorithms[f"V{index}"] = create_algorithm(
            algorithm, view, evaluate_view(view, state), **options
        )
        workload.extend(
            random_workload(
                schemas,
                updates,
                seed=seed + index,
                initial=initial,
                respect_keys=True,
            )
        )
    return sources, algorithms, workload


def cmd_runtime(args: argparse.Namespace) -> int:
    from repro.consistency import check_trace
    from repro.core.registry import ALGORITHMS, create_algorithm
    from repro.errors import ProtocolError, SimulationError
    from repro.experiments.report import render_table
    from repro.messaging.wire import create_codec
    from repro.multisource.consistency import cut_report
    from repro.relational.engine import evaluate_view
    from repro.relational.schema import RelationSchema
    from repro.relational.views import View
    from repro.runtime import FaultPlan, run_concurrent
    from repro.source.memory import MemorySource
    from repro.warehouse.catalog import WarehouseCatalog
    from repro.workloads.random_gen import random_workload

    if args.sources < 1:
        print(f"error: --sources must be >= 1, got {args.sources}", file=sys.stderr)
        return 2
    try:
        create_codec(args.wire_codec)
    except ProtocolError as error:  # 'zstd' without the optional package
        print(f"error: {error}", file=sys.stderr)
        return 2
    multi = getattr(ALGORITHMS[args.algorithm], "multi_source", False)
    if multi and args.share_compensation == "on":
        print(
            "--share-compensation dedupes compensating queries across the "
            "catalog's member views; the multi-source topology maintains a "
            "single spanning view, so there is nothing to share — drop the "
            "flag or pick a single-source algorithm",
            file=sys.stderr,
        )
        return 2
    if multi and args.shards:
        print(
            "--shards places whole views on shards; a view spanning several "
            "sources cannot be partitioned — drop --shards or pick a "
            "single-source algorithm",
            file=sys.stderr,
        )
        return 2
    sources = {}
    workload = []
    spanning_view = None
    if multi:
        # Topology: one view spanning all N sources as a join chain —
        # source s<i> owns relation s<i>r(C<i>, C<i+1>).  The projection
        # keeps every key column, so the Strobe family's key-completeness
        # requirement holds for any N.
        schemas = []
        for index in range(args.sources):
            name = f"s{index}"
            relation = f"{name}r"
            key = ("C0",) if index == 0 else (f"C{index + 1}",)
            schema = RelationSchema(
                relation, (f"C{index}", f"C{index + 1}"), key=key
            )
            schemas.append(schema)
            initial = {relation: [(1, 1), (2, 2)]}
            sources[name] = MemorySource([schema], initial)
            workload.extend(
                random_workload(
                    [schema],
                    args.updates,
                    seed=args.seed + index,
                    initial=initial,
                    respect_keys=True,
                    domain=3,
                )
            )
        # Key columns double as join columns from 3 sources up, so the
        # projection must qualify them (bare "C2" is ambiguous between
        # s1r and s2r).
        projection = [f"{schemas[0].name}.C0"] + [
            f"{schema.name}.{schema.key[0]}" for schema in schemas[1:]
        ]
        spanning_view = View.natural_join("V", schemas, projection)
        owners = {f"s{index}r": f"s{index}" for index in range(args.sources)}
        snapshot = {}
        for source in sources.values():
            snapshot.update(source.snapshot())
        options = {"owners": owners}
        if args.algorithm == "multi-stored-copies":
            options["initial_copies"] = snapshot
        warehouse = create_algorithm(
            args.algorithm,
            spanning_view,
            evaluate_view(spanning_view, snapshot),
            **options,
        )
        checkable = spanning_view
    else:
        # Topology: N autonomous sources, each owning a two-relation join
        # view maintained by the chosen algorithm (Section 7: "ECA is
        # simply applied to each view separately").
        sources, algorithms, workload = _fanout_topology(
            args.sources, args.updates, args.seed, args.algorithm
        )
        share = args.share_compensation == "on"
        if len(algorithms) == 1 and not args.shards and not share:
            warehouse = next(iter(algorithms.values()))
            checkable = warehouse.view
        else:
            # Sharded runs always go through a catalog: shards merge into
            # one tagged global view, so the oracle must be tagged too.
            warehouse = WarehouseCatalog(algorithms, share_compensation=share)
            checkable = warehouse

    # Every configuration error — a constructor rejecting a flag value
    # (CrashPolicy, FaultPlan, ServingCache, WriteAheadLog) or the harness
    # rejecting a combination (e.g. --crash-shard without --shards) — is
    # reported like a usage error.
    temp_wal = None
    try:
        faults = None
        if args.faults:
            faults = FaultPlan(
                latency=args.latency,
                jitter=args.jitter,
                drop_rate=args.drop_rate,
            )

        cache = None
        read_workload = None
        if args.cache or args.read_workload:
            from repro.serving import ServingCache, reader_for
            from repro.workloads.random_gen import zipf_read_workload

            if args.cache:
                cache = ServingCache(
                    capacity=args.cache_capacity,
                    staleness_bound=args.staleness_bound,
                    policy=args.cache_policy,
                )
            if args.read_workload:
                kind, _, rest = args.read_workload.partition(":")
                theta = None
                if kind == "zipf":
                    try:
                        theta = float(rest) if rest else 1.0
                    except ValueError:
                        theta = None
                if theta is None or theta < 0:
                    print(
                        f"unknown read workload {args.read_workload!r} "
                        "(expected zipf:THETA with THETA >= 0, e.g. zipf:1.2)",
                        file=sys.stderr,
                    )
                    return 2
                # Key universe: serving keys of the initial view contents.
                # Updates add and remove keys, so some reads will miss — that
                # is representative of a real read mix, not a bug.
                keys = reader_for(warehouse).current_keys()
                count = max(1, args.updates * args.sources * 2)
                read_workload = zipf_read_workload(
                    keys, count, theta=theta, seed=args.seed
                )

        obs = None
        if args.trace_out or args.metrics_out or args.prom_out:
            from repro.obs import Observability

            obs = Observability(
                trace=bool(args.trace_out), sharded=bool(args.shards)
            )

        crash = None
        wal_dir = args.wal_dir
        if args.crash:
            from repro.durability.crash import CrashPolicy

            crash = CrashPolicy(
                mode=args.crash_mode,
                at=args.crash_at,
                skip=args.crash_skip,
                max_crashes=args.max_crashes,
                drop_sends=args.drop_sends,
                seed=args.seed,
            )
            if wal_dir is None:
                # Crash recovery needs a WAL; default to a throwaway one.
                import tempfile

                temp_wal = tempfile.TemporaryDirectory(prefix="repro-wal-")
                wal_dir = temp_wal.name
        result = run_concurrent(
            sources,
            warehouse,
            workload,
            clients=args.clients,
            client_reads=args.reads,
            faults=faults,
            seed=args.seed,
            wal_dir=wal_dir,
            wal_fsync=args.wal_fsync,
            snapshot_every=args.snapshot_every,
            crash=crash,
            obs=obs,
            shards=args.shards,
            partitioner=args.partitioner,
            crash_shard=args.crash_shard,
            cache=cache,
            read_workload=read_workload,
            batch_k=args.batch_k,
            wire_codec=args.wire_codec,
        )
    except (SimulationError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if temp_wal is not None:
            temp_wal.cleanup()
    if multi:
        # A spanning view has no global source-state sequence; classify
        # against monotone consistent cuts of the per-source histories.
        report = cut_report(
            spanning_view,
            result.per_source_states,
            result.trace.view_states,
            result.final_view,
        )
    elif args.shards:
        # Shards interleave independently, so the merged trace likewise
        # has no single source-state sequence; the catalog stands in as
        # the tagged oracle over consistent cuts.
        report = cut_report(
            checkable,
            result.per_source_states,
            result.trace.view_states,
            result.final_view,
        )
    else:
        report = check_trace(checkable, result.trace)

    print(render_table("Per-actor metrics", result.metrics_table()))
    print()
    stat_rows = [
        dict(channel=name, **stats.as_dict())
        for name, stats in sorted(result.channel_stats.items())
    ]
    print(render_table("Channel statistics", stat_rows))
    print()
    print(f"updates executed:   {result.updates}")
    print(f"warehouse events:   {len(result.trace.events)}")
    if result.shard_info is not None:
        info = result.shard_info
        placement = ", ".join(
            f"{name}->s{shard}" for name, shard in sorted(info["assignment"].items())
        )
        print(
            f"sharding:           {info['shards']} shard(s), "
            f"{info['partitioner']} partitioner ({placement})"
        )
    print(f"consistency:        {report.level()}")
    print(f"quiesce latency:    {result.quiesce_latency:.2f} (virtual)")
    print(f"virtual duration:   {result.virtual_duration:.2f}")
    print(f"wall time:          {result.wall_seconds * 1000:.1f} ms")
    print(f"throughput:         {result.throughput():.0f} updates/s")
    if result.wal_stats is not None:
        print(
            f"WAL:                {result.wal_stats['records']} record(s), "
            f"{result.wal_stats['snapshots']} snapshot(s), "
            f"last lsn {result.wal_stats['last_lsn']}"
        )
    for crash_info in result.crashes:
        print(
            f"crash @ event {crash_info['event_index']} "
            f"(mode={crash_info['mode']}, drop_sends={crash_info['drop_sends']}): "
            f"recovered from snapshot lsn {crash_info['snapshot_lsn']} + "
            f"{crash_info['replayed']} replayed, "
            f"{crash_info['reissued']} re-issued"
        )
    if args.crash and not result.crashes:
        print("crash policy never fired (no eligible event boundary)")
    if not multi and args.share_compensation == "on":
        if args.shards and result.shard_info is not None:
            stats = [
                catalog.shared_query_stats()
                for catalog in result.shard_info["algorithms"].values()
            ]
            issued = sum(s[0] for s in stats)
            saved = sum(s[1] for s in stats)
        else:
            issued, saved = warehouse.shared_query_stats()
        print(
            f"shared compensation: {issued} distinct quer{'y' if issued == 1 else 'ies'} "
            f"issued, {saved} member quer{'y' if saved == 1 else 'ies'} absorbed"
        )
    if result.serving is not None:
        serving = result.serving
        if "hit_rate" in serving:
            print(
                f"serving cache:      {serving['reads']} read(s), "
                f"hit rate {serving['hit_rate']:.2f}, "
                f"{serving['stale_served']} stale-served "
                f"(max lag {serving['max_served_lag']}, "
                f"bound {serving['staleness_bound']}), "
                f"{serving['invalidations']} invalidation(s), "
                f"{serving['backend_reads']} backend read(s)"
            )
        else:
            print(
                f"serving reads:      {serving['reads']} read(s), "
                f"{serving['backend_reads']} backend read(s) (cache off)"
            )
    if obs is not None:
        from repro.obs import write_metrics_json, write_prometheus, write_trace_jsonl

        if args.trace_out:
            written = write_trace_jsonl(obs.tracer, args.trace_out)
            dropped = obs.tracer.dropped
            suffix = f" ({dropped} evicted)" if dropped else ""
            print(f"trace:              {written} span(s) -> {args.trace_out}{suffix}")
        if args.metrics_out:
            meta = {
                "command": "runtime",
                "algorithm": args.algorithm,
                "sources": args.sources,
                "clients": args.clients,
                "seed": args.seed,
            }
            write_metrics_json(obs.registry, args.metrics_out, meta=meta)
            print(f"metrics:            -> {args.metrics_out}")
        if args.prom_out:
            write_prometheus(obs.registry, args.prom_out)
            print(f"prometheus:         -> {args.prom_out}")
    if args.require_consistent and not (report.consistent and report.convergent):
        print(
            f"FAIL: run is {report.level()}, --require-consistent demands "
            "a consistent and convergent execution",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_freshness(args: argparse.Namespace) -> int:
    """Run a cached read-serving workload and report per-view freshness as JSON."""
    import json

    from repro.runtime import run_concurrent
    from repro.serving import ServingCache, reader_for
    from repro.warehouse.catalog import WarehouseCatalog
    from repro.workloads.random_gen import zipf_read_workload

    sources, algorithms, workload = _fanout_topology(
        args.sources, args.updates, args.seed
    )
    share = args.share_compensation == "on"
    warehouse = WarehouseCatalog(algorithms, share_compensation=share)
    cache = ServingCache(
        capacity=args.cache_capacity, staleness_bound=args.staleness_bound
    )
    keys = reader_for(warehouse).current_keys()
    reads = zipf_read_workload(
        keys,
        max(1, args.reads * args.sources),
        theta=args.theta,
        seed=args.seed,
    )
    result = run_concurrent(
        sources,
        warehouse,
        workload,
        clients=0,
        seed=args.seed,
        cache=cache,
        read_workload=reads,
    )
    serving = dict(result.serving or {})
    issued, saved = warehouse.shared_query_stats()
    report = {
        "views": sorted(algorithms),
        "updates": result.updates,
        "staleness_bound": args.staleness_bound,
        "share_compensation": args.share_compensation,
        "shared_queries": {"issued": issued, "saved": saved},
        "freshness": serving.pop("freshness", {}),
        "serving": serving,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_trace_jsonl, render_timeline

    try:
        spans = read_trace_jsonl(args.path)
    except OSError as exc:
        print(f"cannot read {args.path!r}: {exc}", file=sys.stderr)
        return 2
    if args.kind:
        wanted = set(args.kind)
        spans = [s for s in spans if s.get("kind") in wanted]
    if not spans:
        print("(no spans)")
        return 0
    print(render_timeline(spans, limit=args.limit))
    return 0


def cmd_crossovers(args: argparse.Namespace) -> int:
    from repro.experiments.tables import crossover_rows

    for row in crossover_rows(_params(args)):
        print(f"{row['comparison']}: k = {row['crossover k']}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.__main__ import run_lint

    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'View Maintenance in a Warehousing Environment' "
            "(SIGMOD 1995)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="Table 1 and message counts")
    _add_param_arguments(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("figures", help="analytic series of Figures 6.2-6.5")
    _add_param_arguments(p)
    p.add_argument("--figure", default="all", choices=["all", "6.2", "6.3", "6.4", "6.5"])
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("measure", help="measured cost curves from full simulation")
    _add_param_arguments(p)
    p.add_argument("--metric", default="bytes", choices=["bytes", "io1", "io2"])
    p.add_argument("--k", type=int, nargs="+", default=[3, 6, 12, 24])
    p.add_argument("--source", default="memory", choices=["memory", "sqlite"])
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("scenario", help="replay a worked example from the paper")
    p.add_argument("name", nargs="?", help="scenario name (see --list)")
    p.add_argument("--list", action="store_true", help="list scenarios")
    p.add_argument("--algorithm", help="override the scenario's algorithm")
    p.add_argument("--source", default="memory", choices=["memory", "sqlite"])
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("audit", help="correctness-hierarchy audit")
    p.add_argument("--workloads", type=int, default=6)
    p.add_argument("--updates", type=int, default=9)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("report", help="regenerate the full experimental record")
    _add_param_arguments(p)
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    p.add_argument("--quick", action="store_true", help="skip measured runs")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("staleness", help="freshness vs message-cost frontier")
    p.add_argument("--updates", type=int, default=24)
    p.add_argument("--periods", type=int, nargs="+", default=[1, 6, 24])
    p.add_argument("--batches", type=int, nargs="+", default=[4, 12])
    p.add_argument("--seed", type=int, default=9)
    p.set_defaults(func=cmd_staleness)

    p = sub.add_parser(
        "runtime", help="concurrent asyncio runtime: N sources x M clients"
    )
    from repro.core.registry import ALGORITHMS

    p.add_argument("--sources", type=int, default=2, help="number of sources")
    p.add_argument("--clients", type=int, default=4, help="view-reading clients")
    p.add_argument("--updates", type=int, default=12, help="updates per source")
    p.add_argument("--reads", type=int, default=4, help="reads per client")
    p.add_argument(
        "--algorithm",
        default="eca",
        choices=sorted(ALGORITHMS),
        help="per-view algorithm (registry name)",
    )
    p.add_argument("--seed", type=int, default=0, help="master determinism seed")
    p.add_argument(
        "--batch-k",
        type=int,
        default=1,
        help="coalesce up to k consecutive pending update notifications "
        "into one atomic W_up event answered by a single compensating "
        "query (1 = legacy per-update protocol)",
    )
    from repro.messaging.wire import WIRE_CODECS

    p.add_argument(
        "--wire-codec",
        default="none",
        choices=WIRE_CODECS,
        help="charge sent_bytes with real framed message bytes: 'frame' "
        "(length-prefixed canonical JSON), 'zlib'/'zstd' (compressed); "
        "'none' keeps the abstract sizer estimate",
    )
    p.add_argument(
        "--faults", action="store_true", help="run over the fault-injecting transport"
    )
    p.add_argument("--latency", type=float, default=1.0, help="base latency (virtual)")
    p.add_argument("--jitter", type=float, default=3.0, help="uniform jitter bound")
    p.add_argument("--drop-rate", type=float, default=0.2, help="per-attempt drop rate")
    p.add_argument(
        "--wal-dir", help="persist warehouse events to a write-ahead log here"
    )
    p.add_argument(
        "--wal-fsync", action="store_true", help="fsync every WAL append"
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        help="compacting-snapshot cadence in WAL records",
    )
    p.add_argument(
        "--crash",
        action="store_true",
        help="kill and recover the warehouse mid-run (uses a temp WAL "
        "unless --wal-dir is given)",
    )
    p.add_argument(
        "--crash-mode",
        default="mid-uqs",
        choices=["mid-uqs", "after-answer", "event"],
        help="when the crash policy fires",
    )
    p.add_argument(
        "--crash-at", type=int, help="event index for --crash-mode=event"
    )
    p.add_argument(
        "--crash-skip",
        type=int,
        help="eligible boundaries to skip before crashing (default: from seed)",
    )
    p.add_argument(
        "--max-crashes", type=int, default=1, help="crashes injected per run"
    )
    p.add_argument(
        "--drop-sends",
        action="store_true",
        help="crash before the event's outgoing queries reach the transport",
    )
    p.add_argument(
        "--shards",
        type=int,
        help="partition the warehouse over N shards, each reached directly",
    )
    p.add_argument(
        "--partitioner",
        default="hash",
        choices=["hash", "range"],
        help="view-to-shard placement strategy for --shards",
    )
    p.add_argument(
        "--crash-shard",
        type=int,
        default=0,
        help="shard id the --crash policy attaches to in a sharded run",
    )
    p.add_argument(
        "--cache",
        action="store_true",
        help="front the warehouse with the bounded-staleness serving cache",
    )
    p.add_argument(
        "--staleness-bound",
        type=int,
        default=0,
        help="invalidations a cached entry may lag before a forced reload "
        "(0 = reload on first invalidation, i.e. always-fresh serving)",
    )
    p.add_argument(
        "--cache-capacity", type=int, default=64, help="serving-cache entry budget"
    )
    p.add_argument(
        "--cache-policy",
        default="lru",
        choices=["lru", "fifo"],
        help="serving-cache eviction policy",
    )
    p.add_argument(
        "--read-workload",
        metavar="SPEC",
        help="drive a read client against the serving tier; SPEC is "
        "zipf:THETA (theta 0 = uniform, larger = hotter head)",
    )
    p.add_argument(
        "--share-compensation",
        default="off",
        choices=["on", "off"],
        help="dedupe structurally-identical compensating queries across "
        "the catalog's member views: each atomic event ships one query "
        "per distinct term signature and fans the answer back to every "
        "subscribed view ('off' preserves the independent per-view "
        "fan-out byte for byte)",
    )
    p.add_argument(
        "--require-consistent",
        action="store_true",
        help="exit nonzero unless the run is consistent and convergent",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the causal span trace as JSON lines (view with 'repro trace')",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry (counters/gauges/histograms) as JSON",
    )
    p.add_argument(
        "--prom-out",
        metavar="PATH",
        help="write the metrics registry in Prometheus text format",
    )
    p.set_defaults(func=cmd_runtime)

    p = sub.add_parser(
        "freshness",
        help="per-view serving freshness report (JSON) from a cached read run",
    )
    p.add_argument("--sources", type=int, default=2, help="number of sources")
    p.add_argument("--updates", type=int, default=12, help="updates per source")
    p.add_argument("--reads", type=int, default=16, help="serving reads per source")
    p.add_argument("--seed", type=int, default=0, help="master determinism seed")
    p.add_argument(
        "--staleness-bound",
        type=int,
        default=1,
        help="invalidations a cached entry may lag before a forced reload",
    )
    p.add_argument(
        "--cache-capacity", type=int, default=64, help="serving-cache entry budget"
    )
    p.add_argument(
        "--theta", type=float, default=1.0, help="zipf skew of the read mix"
    )
    p.add_argument(
        "--share-compensation",
        default="off",
        choices=["on", "off"],
        help="dedupe structurally-identical compensating queries across views",
    )
    p.set_defaults(func=cmd_freshness)

    p = sub.add_parser(
        "trace", help="render a recorded trace file as a causal timeline"
    )
    p.add_argument("path", help="trace file written by runtime --trace-out")
    p.add_argument(
        "--limit", type=int, help="show only the first N spans (by start time)"
    )
    p.add_argument(
        "--kind",
        action="append",
        help="filter by span kind (repeatable: update, wh_event, query, ...)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "lint", help="AST-based invariant checker (see docs/ANALYSIS.md)"
    )
    # Shared with ``python -m repro.analysis`` so the two entry points
    # accept the same flags and cannot drift apart.
    from repro.analysis.__main__ import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("crossovers", help="headline crossover points")
    _add_param_arguments(p)
    p.set_defaults(func=cmd_crossovers)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
