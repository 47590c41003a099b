"""Integration: union and difference views (Section 7 future work).

A UnionView is a signed combination of SPJ branches; the existing query
algebra maintains it with no algorithm changes.  These tests run
union-all and difference views through the full stack under adversarial
interleavings.
"""

import pytest

from repro.consistency import check_trace
from repro.core.registry import create_algorithm
from repro.core.stored_copies import StoredCopies
from repro.errors import ExpressionError, SchemaError
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison, Const
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.unions import UnionView
from repro.relational.views import View
from repro.simulation.driver import Simulation
from repro.simulation.schedules import RandomSchedule, WorstCaseSchedule
from repro.source.memory import MemorySource
from repro.source.updates import insert
from repro.workloads.random_gen import random_workload

ORDERS = RelationSchema("orders", ("item", "qty"))
RETURNS = RelationSchema("rets", ("item", "qty"))
CATALOG = RelationSchema("cat", ("item", "price"))

INITIAL = {
    "orders": [(1, 5), (2, 3)],
    "rets": [(1, 5)],
    "cat": [(1, 100), (2, 50), (3, 10)],
}


def union_view() -> UnionView:
    """All movements: orders UNION ALL returns, priced via the catalog."""
    ordered = View.natural_join("ordered", [ORDERS, CATALOG], ["orders.item", "qty"])
    returned = View.natural_join("returned", [RETURNS, CATALOG], ["rets.item", "qty"])
    return UnionView("movements", [ordered, returned])


def difference_view() -> UnionView:
    """Net orders: orders MINUS returns (signed difference)."""
    ordered = View.natural_join("ordered", [ORDERS, CATALOG], ["orders.item", "qty"])
    returned = View.natural_join("returned", [RETURNS, CATALOG], ["rets.item", "qty"])
    return UnionView("net", [(1, ordered), (-1, returned)])


class TestConstruction:
    def test_branch_arity_must_match(self):
        a = View.natural_join("a", [ORDERS, CATALOG], ["orders.item"])
        b = View.natural_join("b", [RETURNS, CATALOG], ["rets.item", "qty"])
        with pytest.raises(SchemaError):
            UnionView("bad", [a, b])

    def test_empty_branches_rejected(self):
        with pytest.raises(ExpressionError):
            UnionView("empty", [])

    def test_invalid_sign_rejected(self):
        a = View.natural_join("a", [ORDERS, CATALOG], ["orders.item"])
        with pytest.raises(ExpressionError):
            UnionView("bad", [(2, a)])

    def test_relation_names_deduplicated(self):
        assert union_view().relation_names == ("orders", "cat", "rets")

    def test_involves_any_branch_relation(self):
        view = union_view()
        assert view.involves("rets")
        assert view.involves("cat")
        assert not view.involves("zzz")

    def test_no_keys_for_eca_key(self):
        view = union_view()
        assert not view.contains_all_keys()
        with pytest.raises(SchemaError):
            view.key_output_positions("orders")
        from repro.core.eca_key import ECAKey

        with pytest.raises(SchemaError):
            ECAKey(view)

    def test_repr(self):
        assert "ordered + returned" in repr(union_view())
        assert "ordered - returned" in repr(difference_view())


class TestSemantics:
    def test_union_all_adds_multiplicities(self):
        view = union_view()
        state = {name: SignedBag.from_rows(rows) for name, rows in INITIAL.items()}
        result = view.evaluate(state)
        # (1,5) appears in both orders and returns -> multiplicity 2.
        assert result.multiplicity((1, 5)) == 2
        assert result.multiplicity((2, 3)) == 1

    def test_difference_subtracts(self):
        view = difference_view()
        state = {name: SignedBag.from_rows(rows) for name, rows in INITIAL.items()}
        result = view.evaluate(state)
        assert result.multiplicity((1, 5)) == 0
        assert result.multiplicity((2, 3)) == 1

    def test_substitute_touches_only_relevant_branches(self):
        view = union_view()
        query = view.substitute("rets", insert("rets", (2, 1)).signed_tuple())
        # Only the 'returned' branch involves rets: one term.
        assert query.term_count() == 1

    def test_substitute_shared_relation_touches_both_branches(self):
        view = union_view()
        query = view.substitute("cat", insert("cat", (4, 1)).signed_tuple())
        assert query.term_count() == 2

    def test_substitute_uninvolved_raises(self):
        with pytest.raises(ExpressionError):
            union_view().substitute("zzz", insert("zzz", (1,)).signed_tuple())


def paired_workload(k, seed):
    """Inserts that preserve 'every return matches an earlier order'.

    A signed difference view is only meaningful under such a data-model
    invariant — otherwise its value is legitimately negative and no
    maintenance algorithm can (or should) materialize it.
    """
    import random as _random

    rng = _random.Random(seed)
    unmatched = [(2, 3)]  # initial orders (1,5) is already returned
    updates = []
    while len(updates) < k:
        if unmatched and rng.random() < 0.4:
            row = unmatched.pop(rng.randrange(len(unmatched)))
            updates.append(insert("rets", row))
        elif rng.random() < 0.8:
            row = (rng.randrange(2, 6), rng.randrange(1, 5))
            unmatched.append(row)
            updates.append(insert("orders", row))
        else:
            updates.append(insert("cat", (rng.randrange(2, 6), rng.randrange(5, 50))))
    return updates


class TestMaintenance:
    @pytest.mark.parametrize("algorithm", ["eca", "lca"])
    def test_union_strongly_consistent(self, algorithm):
        view = union_view()
        schemas = [ORDERS, RETURNS, CATALOG]
        for seed in range(6):
            workload = random_workload(
                schemas, 9, seed=seed, initial=INITIAL, delete_ratio=0.0, domain=4
            )
            source = MemorySource(schemas, INITIAL)
            warehouse = create_algorithm(
                algorithm, view, evaluate_view(view, source.snapshot())
            )
            trace = Simulation(source, warehouse, workload).run(RandomSchedule(seed))
            report = check_trace(view, trace)
            assert report.strongly_consistent, (algorithm, seed, report.detail)

    @pytest.mark.parametrize("algorithm", ["eca", "lca"])
    def test_difference_strongly_consistent(self, algorithm):
        view = difference_view()
        schemas = [ORDERS, RETURNS, CATALOG]
        for seed in range(6):
            workload = paired_workload(9, seed)
            source = MemorySource(schemas, INITIAL)
            warehouse = create_algorithm(
                algorithm, view, evaluate_view(view, source.snapshot())
            )
            trace = Simulation(source, warehouse, workload).run(RandomSchedule(seed))
            report = check_trace(view, trace)
            assert report.strongly_consistent, (algorithm, seed, report.detail)

    def test_union_with_deletes_under_eca(self):
        view = union_view()
        schemas = [ORDERS, RETURNS, CATALOG]
        for seed in range(6):
            workload = random_workload(
                schemas, 9, seed=seed, initial=INITIAL, delete_ratio=0.4, domain=4
            )
            source = MemorySource(schemas, INITIAL)
            warehouse = create_algorithm(
                "eca", view, evaluate_view(view, source.snapshot())
            )
            trace = Simulation(source, warehouse, workload).run(RandomSchedule(seed))
            assert check_trace(view, trace).strongly_consistent

    def test_recompute_on_union(self):
        view = union_view()
        schemas = [ORDERS, RETURNS, CATALOG]
        workload = random_workload(schemas, 6, seed=1, initial=INITIAL, domain=4)
        source = MemorySource(schemas, INITIAL)
        warehouse = create_algorithm(
            "recompute", view, evaluate_view(view, source.snapshot()), period=1
        )
        from repro.simulation.schedules import BestCaseSchedule

        trace = Simulation(source, warehouse, workload).run(BestCaseSchedule())
        assert check_trace(view, trace).strongly_consistent

    def test_stored_copies_on_union(self):
        view = union_view()
        schemas = [ORDERS, RETURNS, CATALOG]
        workload = random_workload(schemas, 8, seed=4, initial=INITIAL, domain=4)
        source = MemorySource(schemas, INITIAL)
        warehouse = StoredCopies(
            view, evaluate_view(view, source.snapshot()), source.snapshot()
        )
        trace = Simulation(source, warehouse, workload).run(WorstCaseSchedule())
        assert check_trace(view, trace).complete

    def test_basic_breaks_on_union_somewhere(self):
        view = union_view()
        schemas = [ORDERS, RETURNS, CATALOG]
        broken = 0
        for seed in range(15):
            workload = random_workload(schemas, 8, seed=seed, initial=INITIAL, domain=4)
            source = MemorySource(schemas, INITIAL)
            warehouse = create_algorithm(
                "basic", view, evaluate_view(view, source.snapshot())
            )
            trace = Simulation(source, warehouse, workload).run(
                RandomSchedule(seed + 17)
            )
            if not check_trace(view, trace).convergent:
                broken += 1
        assert broken > 0


class TestCatalogDeliversByInvolves:
    """A catalog hands an update to a member exactly when the member's
    view involves the relation — union branches and aliased self-join
    occurrences included."""

    EMP = RelationSchema("emp", ("id", "boss"))

    def members(self):
        from repro.core.eca import ECA

        reports = View(
            "reports",
            [self.EMP.aliased("worker"), self.EMP.aliased("manager")],
            ["worker.id", "manager.id"],
            Comparison(Attr("worker.boss"), "=", Attr("manager.id")),
        )
        ordered = View.natural_join("ordered", [ORDERS, CATALOG], ["orders.item", "qty"])
        pairs = UnionView("pairs", [ordered, reports])
        return {
            "movements": ECA(union_view()),
            "pairs": ECA(pairs),
            "reports": ECA(reports),
            "ordered": ECA(ordered),
        }

    def test_only_involved_members_see_an_update(self):
        from repro.messaging.messages import UpdateBatch, UpdateNotification
        from repro.warehouse.catalog import WarehouseCatalog

        algorithms = self.members()
        seen = {name: [] for name in algorithms}
        for name, algorithm in algorithms.items():
            original = algorithm.on_update

            def recording(source, notification, name=name, original=original):
                seen[name].append(notification.update.relation)
                return original(source, notification)

            algorithm.on_update = recording
        catalog = WarehouseCatalog(algorithms)
        rows = {"orders": (7, 1), "rets": (7, 1), "cat": (7, 9), "emp": (1, 2),
                "manager": (1, 2), "nobody": (0,)}
        for serial, (relation, row) in enumerate(rows.items(), start=1):
            for log in seen.values():
                del log[:]
            catalog.on_update("source", UpdateNotification(insert(relation, row), serial))
            for name, algorithm in algorithms.items():
                assert (seen[name] == [relation]) == algorithm.view.involves(
                    relation
                ), (name, relation)
        # The self-join view hears about its base relation though every
        # occurrence is aliased, and so does the union over it.
        assert algorithms["reports"].view.involves("emp")
        assert algorithms["pairs"].view.involves("emp")
        assert not algorithms["movements"].view.involves("emp")

        # A batch goes, once, to every member some update in it involves.
        batch = UpdateBatch(
            [
                UpdateNotification(insert("rets", (8, 1)), 10),
                UpdateNotification(insert("emp", (3, 1)), 11),
            ]
        )
        delivered = []
        for name, algorithm in algorithms.items():
            original = algorithm.on_update_batch

            def recording_batch(source, batch, name=name, original=original):
                delivered.append(name)
                return original(source, batch)

            algorithm.on_update_batch = recording_batch
        catalog.on_update_batch("source", batch)
        assert delivered == ["movements", "pairs", "reports"]

