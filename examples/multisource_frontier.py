"""The multi-source frontier: why Section 7 calls it future work.

Runs a three-relation view whose base data is split across two autonomous
sources (r1 at source A; r2 and r3 at source B) under random
interleavings, and measures:

1. the naive transplant of incremental maintenance (with query
   fragmentation) — fragments of one query read different global states,
   and the run frequently fails to converge;
2. stored copies — never queries the sources, and provably tracks a
   monotone path of *consistent cuts* (the multi-source analogue of the
   paper's consistency), even on interleavings where single-timeline
   consistency fails;
3. the Strobe-style algorithm — the query-based *solution* for
   key-complete views (action list + delete filters + quiescent apply,
   after the authors' own 1996 follow-up), correct on every run.

Run:  python examples/multisource_frontier.py
"""

from repro import MemorySource, RandomSchedule, RelationSchema, View, check_trace
from repro.kernel import SyncKernel
from repro.multisource import (
    FragmentingIncremental,
    MultiSourceStoredCopies,
    StrobeStyle,
    check_cut_consistency,
    check_cut_convergence,
)
from repro.relational.engine import evaluate_view
from repro.workloads import random_workload

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
R3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
OWNERS = {"r1": "A", "r2": "B", "r3": "B"}
INITIAL = {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (9, 8)]}
RUNS = 40


def build(kind):
    # The keyed projection makes the view usable by the Strobe-style
    # algorithm; the naive and SC runs use it identically.
    view = View.natural_join("V", [R1, R2, R3], ["W", "r2.Y", "Z"])
    a = MemorySource([R1], {"r1": INITIAL["r1"]})
    b = MemorySource([R2, R3], {"r2": INITIAL["r2"], "r3": INITIAL["r3"]})
    merged = {**a.snapshot(), **b.snapshot()}
    initial_view = evaluate_view(view, merged)
    if kind == "naive":
        algorithm = FragmentingIncremental(view, OWNERS, initial_view)
    elif kind == "strobe":
        algorithm = StrobeStyle(view, OWNERS, initial_view)
    else:
        algorithm = MultiSourceStoredCopies(view, OWNERS, initial_view, merged)
    return view, {"A": a, "B": b}, algorithm


def main() -> None:
    stats = {
        "naive": {"converged": 0, "cut_consistent": 0, "spanning": 0},
        "sc": {"converged": 0, "cut_consistent": 0, "global_consistent": 0},
        "strobe": {"converged": 0, "cut_consistent": 0},
    }
    for seed in range(RUNS):
        workload = random_workload(
            [R1, R2, R3], 8, seed=seed, initial=INITIAL, respect_keys=True
        )
        for kind in ("naive", "sc", "strobe"):
            view, sources, algorithm = build(kind)
            sim = SyncKernel(sources, algorithm, list(workload))
            trace = sim.run(RandomSchedule(seed * 3 + 1))
            entry = stats[kind]
            entry["converged"] += check_cut_convergence(
                view, sim.per_source_states, trace.final_view_state
            )
            entry["cut_consistent"] += check_cut_consistency(
                view, sim.per_source_states, trace.view_states
            )
            if kind == "naive":
                entry["spanning"] += algorithm.spanning_queries
            elif kind == "sc":
                entry["global_consistent"] += check_trace(view, trace).consistent

    naive, sc = stats["naive"], stats["sc"]
    print(f"{RUNS} random interleavings, view over sources A (r1) and B (r2, r3)\n")
    print("naive fragmenting incremental (Algorithm 5.1 transplanted):")
    print(f"  converged:        {naive['converged']}/{RUNS}")
    print(f"  cut-consistent:   {naive['cut_consistent']}/{RUNS}")
    print(f"  cross-source (spanning) queries issued: {naive['spanning']}")
    print()
    print("stored copies (SC):")
    print(f"  converged:        {sc['converged']}/{RUNS}")
    print(f"  cut-consistent:   {sc['cut_consistent']}/{RUNS}")
    print(
        f"  consistent vs the actual global order: "
        f"{sc['global_consistent']}/{RUNS}  "
        f"(< {RUNS}: across sources only *cut* consistency is attainable)"
    )
    strobe = stats["strobe"]
    print()
    print("strobe-style (action list + delete filters + quiescent apply):")
    print(f"  converged:        {strobe['converged']}/{RUNS}")
    print(f"  cut-consistent:   {strobe['cut_consistent']}/{RUNS}")

    assert sc["converged"] == RUNS and sc["cut_consistent"] == RUNS
    assert strobe["converged"] == RUNS and strobe["cut_consistent"] == RUNS
    assert naive["converged"] < RUNS
    print(
        "\nconclusion: fragmentation is easy, coordination is not — the "
        "'intricate algorithms' the paper defers to future work became "
        "Strobe/SWEEP; the strobe-style implementation above is that "
        "answer, query-based and correct on every run."
    )


if __name__ == "__main__":
    main()
