"""Unit tests for RV (recompute), SC (stored copies), and the registry."""

import pytest

from repro.core.recompute import RecomputeView
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.core.stored_copies import StoredCopies
from repro.errors import UpdateError
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.workloads.random_gen import random_workload


def notify(update, serial=1):
    return UpdateNotification(update, serial)


class TestRecomputeView:
    def test_period_one_recomputes_every_update(self, view_w):
        algo = RecomputeView(view_w, period=1)
        assert len(algo.handle_update(notify(insert("r1", (1, 2))))) == 1
        assert len(algo.handle_update(notify(insert("r1", (2, 2))))) == 1

    def test_period_counts_relevant_updates_only(self, view_w):
        algo = RecomputeView(view_w, period=2)
        assert algo.handle_update(notify(insert("zzz", (1,)))) == []
        assert algo.handle_update(notify(insert("r1", (1, 2)))) == []
        assert len(algo.handle_update(notify(insert("r1", (2, 2))))) == 1

    def test_query_is_full_view(self, view_w):
        algo = RecomputeView(view_w, period=1)
        request = algo.handle_update(notify(insert("r1", (1, 2))))[0]
        assert request.query == view_w.as_query()
        term = request.query.terms[0]
        assert term.free_relations() == ("r1", "r2")

    def test_answer_replaces_view(self, view_w):
        algo = RecomputeView(view_w, SignedBag.from_rows([(9,)]), period=1)
        request = algo.handle_update(notify(insert("r1", (1, 2))))[0]
        algo.handle_answer(QueryAnswer(request.query_id, SignedBag.from_rows([(1,)])))
        assert algo.view_state() == SignedBag.from_rows([(1,)])

    def test_invalid_period_rejected(self, view_w):
        with pytest.raises(ValueError):
            RecomputeView(view_w, period=0)

    def test_counter_resets_after_recompute(self, view_w):
        algo = RecomputeView(view_w, period=2)
        algo.handle_update(notify(insert("r1", (1, 2))))
        algo.handle_update(notify(insert("r1", (2, 2))))
        assert algo.handle_update(notify(insert("r1", (3, 2)))) == []
        assert len(algo.handle_update(notify(insert("r1", (4, 2))))) == 1


class TestStoredCopies:
    def test_no_queries_ever(self, view_w):
        algo = StoredCopies(view_w)
        assert algo.handle_update(notify(insert("r1", (1, 2)))) == []
        assert algo.is_quiescent()

    def test_insert_updates_view_locally(self, view_w):
        algo = StoredCopies(view_w)
        algo.handle_update(notify(insert("r1", (1, 2)), 1))
        algo.handle_update(notify(insert("r2", (2, 3)), 2))
        assert algo.view_state() == SignedBag.from_rows([(1,)])

    def test_delete_updates_view_locally(self, view_w):
        copies = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 3)]),
        }
        algo = StoredCopies(view_w, SignedBag.from_rows([(1,)]), copies)
        algo.handle_update(notify(delete("r2", (2, 3))))
        assert algo.view_state().is_empty()
        assert algo.copies["r2"].is_empty()

    @pytest.mark.parametrize("seed", range(4))
    def test_delta_equals_the_reference_evaluator(self, view_wy, seed):
        """``V<U>`` over the copies runs through the columnar engine; the
        cross-product ``Query.evaluate`` is its oracle."""
        initial = {"r1": [(1, 2), (1, 2), (4, 2)], "r2": [(2, 5), (2, 5), (3, 6)]}
        source = MemorySource(list(view_wy.relations), initial)
        algo = StoredCopies(
            view_wy, evaluate_view(view_wy, source.snapshot()), source.snapshot()
        )
        workload = random_workload(
            list(view_wy.relations), 20, seed=seed, initial=initial,
            delete_ratio=0.4, domain=4,
        )
        for serial, update in enumerate(workload, start=1):
            before = algo.mv.as_bag()
            algo.handle_update(notify(update, serial))
            delta = view_wy.substitute(update.relation, update.signed_tuple())
            assert algo.view_state() == before + delta.evaluate(algo.copies)
            source.apply_update(update)
        assert algo.view_state() == evaluate_view(view_wy, source.snapshot())

    def test_delete_of_missing_copy_tuple_raises(self, view_w):
        algo = StoredCopies(view_w)
        with pytest.raises(UpdateError):
            algo.handle_update(notify(delete("r1", (9, 9))))

    def test_storage_cost(self, view_w):
        copies = {
            "r1": SignedBag.from_rows([(1, 2), (3, 4)]),
            "r2": SignedBag.from_rows([(2, 3)]),
        }
        algo = StoredCopies(view_w, initial_copies=copies)
        assert algo.storage_cost() == 3

    def test_irrelevant_update_ignored(self, view_w):
        algo = StoredCopies(view_w)
        assert algo.handle_update(notify(insert("zzz", (1,)))) == []

    def test_irrelevant_initial_copies_dropped(self, view_w):
        algo = StoredCopies(
            view_w, initial_copies={"zzz": SignedBag.from_rows([(1,)])}
        )
        assert "zzz" not in algo.copies


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert sorted(ALGORITHMS) == [
            "basic",
            "batch-eca",
            "deferred-eca",
            "eca",
            "eca-key",
            "eca-local",
            "fragmenting-incremental",
            "lca",
            "multi-stored-copies",
            "recompute",
            "stored-copies",
            "strobe",
            "sweep",
        ]

    def test_create_by_name(self, view_w):
        algo = create_algorithm("eca", view_w)
        assert algo.name == "eca"

    def test_options_forwarded(self, view_w):
        algo = create_algorithm("recompute", view_w, period=5)
        assert algo.period == 5

    def test_unknown_name_raises(self, view_w):
        with pytest.raises(KeyError):
            create_algorithm("magic", view_w)
