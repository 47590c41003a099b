"""Advanced view shapes: self-joins and union/difference views.

The paper's Section 4 and Section 7 sketch two extensions this library
implements in full:

1. **Self-joins** ("multiple occurrences of the same relation"): a
   'colleagues' view pairing employees of the same department, maintained
   by ECA while the employee relation churns.  The incremental query for
   one update expands by inclusion-exclusion over the occurrences — watch
   the term counts in the printed queries.
2. **Union and difference views**: net inventory movements as
   orders MINUS returns, and all movements as orders UNION ALL returns,
   maintained simultaneously from one update stream.

Run:  python examples/advanced_views.py
"""

import random

from repro import (
    MemorySource,
    RandomSchedule,
    RelationSchema,
    Simulation,
    UnionView,
    View,
    build_algorithm,
    check_trace,
    insert,
)
from repro.relational.conditions import Attr, Comparison


def self_join_demo() -> None:
    print("=" * 72)
    print("Self-join: colleagues = pairs of employees sharing a department")
    print("=" * 72)
    emp = RelationSchema("emp", ("name", "dept"))
    e1, e2 = emp.aliased("e1"), emp.aliased("e2")
    view = View(
        "colleagues",
        [e1, e2],
        ["e1.name", "e2.name"],
        Comparison(Attr("e1.dept"), "=", Attr("e2.dept"))
        & Comparison(Attr("e1.name"), "<", Attr("e2.name")),
    )
    initial = {"emp": [(1, 10), (2, 10), (3, 20)]}
    source = MemorySource([emp], initial)
    warehouse = build_algorithm("eca", view, source)

    update = insert("emp", (4, 10))
    query = view.substitute("emp", update.signed_tuple())
    print(f"\nV<{update!r}> expands to {query.term_count()} terms "
          f"(inclusion-exclusion over the two occurrences):")
    for term in query.terms:
        print(f"  {term!r}")

    workload = [insert("emp", (4, 10)), insert("emp", (5, 20)), insert("emp", (6, 10))]
    trace = Simulation(source, warehouse, workload).run(RandomSchedule(1))
    report = check_trace(view, trace)
    print(f"\nfinal colleagues: {sorted(warehouse.mv.rows())}")
    print(f"correctness: {report.level()}")
    assert report.strongly_consistent


def union_demo() -> None:
    print()
    print("=" * 72)
    print("Union/difference: movements = orders UNION ALL returns;")
    print("                  net       = orders MINUS returns")
    print("=" * 72)
    orders = RelationSchema("orders", ("item", "qty"))
    rets = RelationSchema("rets", ("item", "qty"))
    ordered = View.natural_join("ordered", [orders], ["item", "qty"])
    returned = View.natural_join("returned", [rets], ["item", "qty"])
    movements = UnionView("movements", [ordered, returned])
    net = UnionView("net", [(1, ordered), (-1, returned)])

    rng = random.Random(7)
    unmatched = []
    workload = []
    for _ in range(12):
        if unmatched and rng.random() < 0.4:
            row = unmatched.pop()
            workload.append(insert("rets", row))
        else:
            row = (rng.randrange(1, 5), rng.randrange(1, 4))
            unmatched.append(row)
            workload.append(insert("orders", row))

    for view, algorithm in ((movements, "eca"), (net, "lca")):
        source = MemorySource([orders, rets])
        warehouse = build_algorithm(algorithm, view, source)
        trace = Simulation(source, warehouse, list(workload)).run(RandomSchedule(3))
        report = check_trace(view, trace)
        print(
            f"\n{view!r}\n  final rows: {sorted(warehouse.mv.rows())}\n"
            f"  correctness: {report.level()}"
        )
        assert report.strongly_consistent


if __name__ == "__main__":
    self_join_demo()
    union_demo()
