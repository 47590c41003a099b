"""Quickstart: maintain a warehouse view with ECA over an autonomous source.

Walks the public API end to end:

1. declare base relation schemas and an SPJ view (a natural join);
2. load a source (in-memory here; swap in SQLiteSource for a real DB file);
3. attach the Eager Compensating Algorithm at the warehouse;
4. stream updates through the FIFO-channel simulation;
5. check the run against the paper's correctness hierarchy.

Run:  python examples/quickstart.py
"""

from repro import (
    BestCaseSchedule,
    MemorySource,
    RelationSchema,
    Simulation,
    View,
    WorstCaseSchedule,
    build_algorithm,
    check_trace,
    delete,
    insert,
)


def main() -> None:
    # 1. Schemas and a view: V = pi_W (r1 |x| r2), joined on X.
    r1 = RelationSchema("r1", ("W", "X"))
    r2 = RelationSchema("r2", ("X", "Y"))
    view = View.natural_join("V", [r1, r2], ["W"])
    print(f"view definition: {view}")

    # 2. The source — a legacy system that executes updates and answers
    #    queries, knowing nothing about our view.
    source = MemorySource([r1, r2], {"r1": [(1, 2)], "r2": [(2, 4)]})

    # 3. The warehouse algorithm, started from the source as it stands:
    #    the view primed with its current contents.
    warehouse = build_algorithm("eca", view, source)
    print(f"initial view rows: {warehouse.mv.rows()}")

    # 4. Stream updates.  The schedule controls the race between source
    #    updates and query answers; WorstCaseSchedule makes every update
    #    land before any query is answered — the regime where naive
    #    incremental maintenance breaks and ECA compensates.
    workload = [
        insert("r2", (2, 3)),
        insert("r1", (4, 2)),
        delete("r2", (2, 4)),
    ]
    simulation = Simulation(source, warehouse, workload)
    trace = simulation.run(WorstCaseSchedule())

    print("\nevent log:")
    print(trace.describe())
    print(f"\nfinal view rows: {sorted(warehouse.mv.rows())}")

    # 5. Verify: the trace satisfies strong consistency (Appendix B).
    report = check_trace(view, trace)
    print(f"correctness level: {report.level()}")
    assert report.strongly_consistent

    # The same stream under a quiet schedule needs no compensation at all
    # (Section 5.6, property 3) and lands on the same answer.
    source2 = MemorySource([r1, r2], {"r1": [(1, 2)], "r2": [(2, 4)]})
    warehouse2 = build_algorithm("eca", view, source2)
    Simulation(source2, warehouse2, workload).run(BestCaseSchedule())
    assert warehouse2.view_state() == warehouse.view_state()
    print("best-case run converges to the identical view — OK")


if __name__ == "__main__":
    main()
