"""Several warehouse views over one SQLite source, maintained side by side.

Section 7: "in a warehouse consisting of multiple views where each view is
over data from a single source, ECA is simply applied to each view
separately."  This example runs three differently-shaped views — a wide
join, a filtered join, and a key-complete view — each with the algorithm
best suited to it (ECA, LCA for a completeness-critical audit view, and
ECA-Key), over the same operational update stream.

The second half runs all three views in ONE simulation behind a
:class:`~repro.warehouse.WarehouseCatalog`, which also exposes the
*mutual-consistency* subtlety: each view is strongly consistent on its
own timeline, but the joint warehouse state may momentarily mix source
states (the problem the authors' Strobe follow-up formalized).

Run:  python examples/multiview_warehouse.py
"""

from repro import (
    ECA,
    ECAKey,
    LCA,
    RandomSchedule,
    RelationSchema,
    Simulation,
    SQLiteSource,
    View,
    WarehouseCatalog,
    check_trace,
    project_view,
)
from repro.relational.conditions import Attr, Comparison, Const
from repro.relational.engine import evaluate_view
from repro.workloads.random_gen import random_workload

ACCOUNTS = RelationSchema("accounts", ("acct", "owner"), key=("acct",))
MOVES = RelationSchema("moves", ("move_id", "acct", "amount"), key=("move_id",))

INITIAL = {
    "accounts": [(1, 10), (2, 20), (3, 10)],
    "moves": [(100, 1, 500), (101, 2, 40), (102, 3, 75)],
}


def build_views():
    ledger = View.natural_join(
        "ledger", [ACCOUNTS, MOVES], ["move_id", "accounts.acct", "owner", "amount"]
    )
    big_moves = View.natural_join(
        "big_moves",
        [ACCOUNTS, MOVES],
        ["owner", "amount"],
        Comparison(Attr("amount"), ">", Const(100)),
    )
    audit = View.natural_join("audit", [ACCOUNTS, MOVES], ["move_id", "owner"])
    return ledger, big_moves, audit


def main() -> None:
    ledger, big_moves, audit = build_views()
    # One shared operational stream (keys respected for the ECAK view).
    workload = random_workload(
        [ACCOUNTS, MOVES], 30, seed=11, initial=INITIAL, domain=12, respect_keys=True
    )
    plans = [
        (ledger, lambda v, iv: ECAKey(v, iv), "ECA-Key"),
        (big_moves, lambda v, iv: ECA(v, iv), "ECA"),
        (audit, lambda v, iv: LCA(v, iv), "LCA"),
    ]

    final_states = []
    for view, factory, label in plans:
        source = SQLiteSource([ACCOUNTS, MOVES], INITIAL)
        warehouse = factory(view, evaluate_view(view, source.snapshot()))
        trace = Simulation(source, warehouse, list(workload)).run(RandomSchedule(7))
        report = check_trace(view, trace)
        final_states.append(trace.final_source_state)
        print(
            f"{view.name:<10} via {label:<8} -> "
            f"{warehouse.mv.cardinality():>3} rows, {report.level()}"
        )
        assert report.strongly_consistent, (view.name, report.detail)
        if label == "LCA":
            assert report.complete  # the audit view tracks every state
        source.close()

    # All three replays saw the same source history.
    assert final_states[0] == final_states[1] == final_states[2]
    print("\nall views converged against the same source history")

    # ------------------------------------------------------------------ #
    # The same three views behind one catalog, in a single simulation.
    # ------------------------------------------------------------------ #
    print("\n--- one simulation, three views (WarehouseCatalog) ---")
    source = SQLiteSource([ACCOUNTS, MOVES], INITIAL)
    state = source.snapshot()
    catalog = WarehouseCatalog(
        {
            "ledger": ECAKey(ledger, evaluate_view(ledger, state)),
            "big_moves": ECA(big_moves, evaluate_view(big_moves, state)),
            "audit": LCA(audit, evaluate_view(audit, state)),
        }
    )
    trace = Simulation(source, catalog, list(workload)).run(RandomSchedule(11))
    for name, algorithm in catalog.algorithms.items():
        solo = project_view(trace, name)
        level = check_trace(algorithm.view, solo).level()
        print(f"  {name:<10} {algorithm.name:<8} -> {level}")
        assert check_trace(algorithm.view, solo).strongly_consistent
    joint = check_trace(catalog, trace)
    print(
        f"  joint warehouse state: {joint.level()}  "
        f"(per-view consistency does not compose — the mutual-consistency "
        f"problem of the Strobe follow-up)"
    )
    assert joint.convergent
    source.close()


if __name__ == "__main__":
    main()
