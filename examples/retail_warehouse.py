"""A retail data warehouse over a busy operational source (ECA-Key).

The Section 1 motivation made concrete: an operational retail system
(customers, orders) keeps changing while a decision-support warehouse
maintains a joined sales view.  The view projects a key of every base
relation, so the streamlined ECA-Key algorithm applies: deletions are
handled at the warehouse without touching the source, and insertions need
no compensating queries.

The source here is a *SQLite database* — the closest stand-in for the
paper's "legacy system that does not understand views".

Run:  python examples/retail_warehouse.py
"""

import random

from repro import (
    RandomSchedule,
    RelationSchema,
    Simulation,
    SQLiteSource,
    View,
    build_algorithm,
    check_trace,
    delete,
    insert,
)
from repro.costmodel.counters import CostRecorder

CUSTOMERS = RelationSchema("customers", ("cust_id", "region"), key=("cust_id",))
ORDERS = RelationSchema("orders", ("order_id", "cust_id", "amount"), key=("order_id",))

INITIAL_CUSTOMERS = [(1, "west"), (2, "east"), (3, "west")]
INITIAL_ORDERS = [(100, 1, 120), (101, 2, 80), (102, 1, 15)]


def build_view() -> View:
    """sales(order_id, cust_id, region, amount) — keys of both relations.

    Note the projection names ``customers.cust_id``: key analysis is
    positional, so the key column must come from the relation that owns
    the key (the natural join makes it equal to ``orders.cust_id`` anyway).
    """
    return View.natural_join(
        "sales",
        [CUSTOMERS, ORDERS],
        ["order_id", "customers.cust_id", "region", "amount"],
    )


def busy_day_workload(seed: int, length: int = 40):
    """Orders placed and cancelled, customers joining and churning."""
    rng = random.Random(seed)
    live_orders = {oid: (cid, amt) for oid, cid, amt in INITIAL_ORDERS}
    live_customers = {cid: region for cid, region in INITIAL_CUSTOMERS}
    next_order, next_customer = 200, 10
    updates = []
    while len(updates) < length:
        roll = rng.random()
        if roll < 0.45 and live_customers:  # new order
            cust = rng.choice(list(live_customers))
            amount = rng.randrange(10, 300)
            live_orders[next_order] = (cust, amount)
            updates.append(insert("orders", (next_order, cust, amount)))
            next_order += 1
        elif roll < 0.65 and live_orders:  # cancellation
            oid = rng.choice(list(live_orders))
            cust, amount = live_orders.pop(oid)
            updates.append(delete("orders", (oid, cust, amount)))
        elif roll < 0.85:  # new customer
            region = rng.choice(["west", "east", "north"])
            live_customers[next_customer] = region
            updates.append(insert("customers", (next_customer, region)))
            next_customer += 1
        elif live_customers:  # churn (keep their orders; they just leave)
            cid = rng.choice(list(live_customers))
            region = live_customers.pop(cid)
            updates.append(delete("customers", (cid, region)))
    return updates


def main() -> None:
    view = build_view()
    print(f"warehouse view: {view}")
    print(f"projects all keys: {view.contains_all_keys()}\n")

    for seed in (1, 2, 3):
        source = SQLiteSource(
            [CUSTOMERS, ORDERS],
            {"customers": INITIAL_CUSTOMERS, "orders": INITIAL_ORDERS},
        )
        warehouse = build_algorithm("eca-key", view, source)
        recorder = CostRecorder()
        workload = busy_day_workload(seed)
        trace = Simulation(source, warehouse, workload, recorder).run(
            RandomSchedule(seed)
        )
        report = check_trace(view, trace)
        deletes = sum(1 for u in workload if u.is_delete)
        print(
            f"day {seed}: {len(workload)} updates ({deletes} deletes), "
            f"{recorder.query_messages} queries sent "
            f"(deletes handled locally), "
            f"final view {warehouse.mv.cardinality()} rows, "
            f"{report.level()}"
        )
        assert report.strongly_consistent, report.detail
        # Every delete was handled without a source round-trip:
        assert recorder.query_messages == sum(1 for u in workload if u.is_insert)
        source.close()

    print("\nall days strongly consistent; deletions never touched the source")


if __name__ == "__main__":
    main()
