"""Unit tests for the shared compensation algebra."""

import pytest

from repro.core.compensation import (
    ProbeIndex,
    backdate,
    batch_delta_query,
    split,
    staged_compensation,
)
from repro.core import eca as eca_module
from repro.core.eca import ECA, _compensate_update
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.conditions import And, Attr, Comparison, Const
from repro.relational.engine import evaluate_query, evaluate_view
from repro.relational.expressions import Query
from repro.relational.views import View
from repro.simulation.driver import Simulation
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.catalog import WarehouseCatalog


@pytest.fixture
def state():
    return {
        "r1": SignedBag.from_rows([(1, 2), (4, 2)]),
        "r2": SignedBag.from_rows([(2, 3)]),
    }


class TestBackdate:
    def test_empty_updates_is_identity(self, view_w):
        q = view_w.as_query()
        assert backdate(q, []) == q

    def test_single_update_is_lemma_b2_form(self, view_w, state):
        u = insert("r2", (2, 9))
        q = view_w.as_query()
        result = backdate(q, [u])
        # D(Q, [U]) = Q - Q<U>
        expected = q - q.substitute(u.relation, u.signed_tuple())
        assert result.evaluate(state) == expected.evaluate(state)

    def test_backdate_recovers_pre_update_value(self, view_w, state):
        u = insert("r1", (7, 2))
        q = view_w.as_query()
        before = q.evaluate(state)
        after = dict(state)
        after["r1"] = state["r1"] + SignedBag.singleton((7, 2))
        assert backdate(q, [u]).evaluate(after) == before

    def test_backdate_two_updates(self, view_w, state):
        u1, u2 = insert("r1", (7, 2)), delete("r2", (2, 3))
        q = view_w.as_query()
        before = q.evaluate(state)
        s1 = dict(state)
        s1["r1"] = state["r1"] + SignedBag.singleton((7, 2))
        s2 = dict(s1)
        s2["r2"] = s1["r2"] - SignedBag.singleton((2, 3))
        assert backdate(q, [u1, u2]).evaluate(s2) == before

    def test_empty_query_stays_empty(self):
        assert backdate(Query(), [insert("r1", (1, 2))]).is_empty()


class TestBatchDeltaQuery:
    def test_telescopes_to_full_delta(self, view_w, state):
        batch = [insert("r1", (7, 2)), insert("r2", (2, 8)), delete("r1", (1, 2))]
        post = {
            "r1": state["r1"]
            + SignedBag.singleton((7, 2))
            - SignedBag.singleton((1, 2)),
            "r2": state["r2"] + SignedBag.singleton((2, 8)),
        }
        delta = batch_delta_query(view_w, batch).evaluate(post)
        assert view_w.evaluate(state) + delta == view_w.evaluate(post)

    def test_irrelevant_updates_skipped(self, view_w, state):
        batch = [insert("zzz", (0,)), insert("r1", (7, 2))]
        post = {
            "r1": state["r1"] + SignedBag.singleton((7, 2)),
            "r2": state["r2"],
        }
        delta = batch_delta_query(view_w, batch).evaluate(post)
        assert view_w.evaluate(state) + delta == view_w.evaluate(post)

    def test_empty_batch_is_empty_query(self, view_w):
        assert batch_delta_query(view_w, []).is_empty()

    def test_same_relation_twice_in_batch(self, view_w, state):
        batch = [insert("r1", (7, 2)), insert("r1", (8, 2))]
        post = {
            "r1": state["r1"]
            + SignedBag.from_rows([(7, 2), (8, 2)]),
            "r2": state["r2"],
        }
        delta = batch_delta_query(view_w, batch).evaluate(post)
        assert view_w.evaluate(state) + delta == view_w.evaluate(post)


class TestPendingCompensation:
    def test_corrects_contaminated_answer(self, view_w, state):
        """A pending query evaluated post-batch, plus its compensation
        evaluated post-batch, equals the intended pre-batch answer."""
        pending = view_w.substitute("r2", insert("r2", (2, 3)).signed_tuple())
        batch = [insert("r1", (7, 2)), delete("r1", (4, 2))]
        post = {
            "r1": state["r1"]
            + SignedBag.singleton((7, 2))
            - SignedBag.singleton((4, 2)),
            "r2": state["r2"],
        }
        correction = staged_compensation(pending, batch, len(batch))
        assert (
            pending.evaluate(post) + correction.evaluate(post)
            == pending.evaluate(state)
        )

    def test_untouched_query_needs_no_compensation(self, view_w):
        pending = view_w.as_query()
        assert staged_compensation(pending, [insert("zzz", (1,))], 1).is_empty()


class TestStagedCompensation:
    def test_full_stage_equals_pending_compensation(self, view_w, state):
        pending = view_w.substitute("r2", insert("r2", (2, 3)).signed_tuple())
        batch = [insert("r1", (7, 2)), delete("r1", (4, 2))]
        staged = staged_compensation(pending, batch, len(batch))
        full = backdate(pending, batch) - pending
        assert staged.evaluate(state) == full.evaluate(state)

    def test_partial_stage_corrects_prefix_only(self, view_w, state):
        """Query saw only batch[0]; its correction, evaluated post-batch,
        must bring the prefix-state answer back to the pre-batch one."""
        pending = view_w.substitute("r2", insert("r2", (2, 3)).signed_tuple())
        u1, u2 = insert("r1", (7, 2)), insert("r1", (9, 2))
        mid = {
            "r1": state["r1"] + SignedBag.singleton((7, 2)),
            "r2": state["r2"],
        }
        post = {
            "r1": mid["r1"] + SignedBag.singleton((9, 2)),
            "r2": state["r2"],
        }
        correction = staged_compensation(pending, [u1, u2], 1)
        assert (
            pending.evaluate(mid) + correction.evaluate(post)
            == pending.evaluate(state)
        )

    def test_zero_seen_is_empty(self, view_w):
        pending = view_w.as_query()
        assert staged_compensation(pending, [insert("r1", (1, 2))], 0).is_empty()


def built_and_split(build, view, update, pending):
    """``build(view, update, pending)`` and what ECA's dispatch makes of
    it: ``(query, value of its local part or None, remote part)``."""
    query = build(view, update, pending)
    local, remote = split(query)
    return query, None if local.is_empty() else evaluate_query(local, {}), remote


class TestSplit:
    """What ECA makes of a built query: the terms the split keeps,
    evaluated here or shipped."""

    @staticmethod
    def build(view, update, pending):
        signed = update.signed_tuple()
        terms = list(view.substitute(update.relation, signed).terms)
        for query in pending:
            terms.extend(query.substitute(update.relation, signed, -1).terms)
        return Query(terms)

    def test_a_build_is_split_for_dispatch(self, view_w):
        pending = [view_w.substitute("r2", insert("r2", (2, 3)).signed_tuple())]
        update = insert("r1", (1, 2))
        query, delta, remote = built_and_split(self.build, view_w, update, pending)
        assert query == self.build(view_w, update, pending)
        local, source = query.partition()
        assert remote == source and not remote.is_empty()
        assert delta == local.evaluate({}) == SignedBag.from_pairs([((1,), -1)])
        # Nothing fully bound: no local delta at all.
        assert built_and_split(self.build, view_w, update, [])[1] is None

    def test_falsified_terms_are_built_but_neither_shipped_nor_evaluated(
        self, view_w, view_w3
    ):
        """The first element is the built query whole; the split drops a
        term whose bound tuples fail ``r1.X = r2.X`` on both
        sides of Appendix D's line."""
        first, second = insert("r1", (1, 2)), insert("r2", (5, 3))  # X: 2 vs 5
        pending = [view_w.substitute("r1", first.signed_tuple())]
        query, delta, remote = built_and_split(self.build, view_w, second, pending)
        assert query == self.build(view_w, second, pending)
        # Its one fully bound term is dropped, so nothing is evaluated
        # (an evaluated empty part would be an empty bag, not None).
        assert query.partition()[0].term_count() == 1
        assert delta is None
        assert remote == view_w.substitute("r2", second.signed_tuple())
        # Remote: with r3 still free, the r1 x r2 term would be shipped.
        pending = [view_w3.substitute("r1", first.signed_tuple())]
        built, _, remote = built_and_split(self.build, view_w3, second, pending)
        assert built.partition()[1].term_count() == 2
        assert remote == Query(built.terms[:1])

    def test_eca_builds_no_term_whose_first_check_fails(self, view_w3):
        """ECA's builder probes the pending queries: a term whose first
        check — an equality with the update's tuple — fails is never
        built, and one that passes it and fails a later check is built
        and dropped by the split.  The built query is the scan's less
        exactly the first kind, in order."""
        eca = ECA(view_w3)
        eca.handle_update(UpdateNotification(insert("r1", (1, 2)), 1))
        eca.handle_update(UpdateNotification(insert("r3", (3, 4)), 2))
        pending = dict(eca.uqs)
        update = insert("r2", (2, 9))  # X meets r1's 2, Y = 9 not r3's 3
        [request] = eca.handle_update(UpdateNotification(update, 3))
        query, delta, remote = built_and_split(
            _compensate_update, view_w3, update, ProbeIndex(pending)
        )
        scanned = self.build(view_w3, update, list(pending.values()))
        # V<U>; -r1=(1,2) x r2=(2,9) x r3; -r1 x r2=(2,9) x r3=(3,4), whose
        # first check r2.Y = r3.Y fails; +r1=(1,2) x r2=(2,9) x r3=(3,4),
        # which passes r1.X = r2.X and fails r2.Y = r3.Y.
        assert scanned.term_count() == 4
        assert query.terms == scanned.terms[:2] + scanned.terms[3:]
        assert query.partition()[0].terms == scanned.terms[3:]
        assert delta is None
        assert remote == request.query == Query(scanned.terms[:2])

    def test_a_check_that_raises_keeps_the_term(self, three_rel_schemas):
        """``None > 1`` decides nothing: the term is split as
        ``partition()`` splits it, and its evaluation raises as before —
        unless an earlier conjunct in the engine's order already failed,
        in which case neither the check nor the engine reaches ``>``."""
        view = View.natural_join(
            "V", three_rel_schemas, ["W"], Comparison(Attr("W"), ">", Attr("Z"))
        )
        none_w = insert("r1", (None, 2))
        pending = [view.substitute("r1", none_w.signed_tuple())]
        update = insert("r3", (3, 1))
        query, delta, remote = built_and_split(
            self.build, view, update, pending
        )
        assert delta is None
        assert remote == query.partition()[1] and remote.term_count() == 2
        state = {
            "r1": SignedBag(),
            "r2": SignedBag.from_rows([(2, 3)]),
            "r3": SignedBag(),
        }
        for shipped in (remote, query.partition()[1]):
            with pytest.raises(TypeError):
                evaluate_query(shipped, state)
        # Fully bound: the warehouse's own evaluation raises, as before.
        pending = [remote]
        with pytest.raises(TypeError):
            evaluate_query(
                self.build(view, insert("r2", (2, 3)), pending).partition()[0], {}
            )
        with pytest.raises(TypeError):
            built_and_split(
                self.build, view, insert("r2", (2, 3)), pending
            )
        # r1.X = r2.X fails first: dropped, and the engine never compared.
        built = self.build(view, insert("r2", (7, 3)), pending)
        assert evaluate_query(built.partition()[0], {}).is_empty()
        query, delta, remote = built_and_split(
            self.build, view, insert("r2", (7, 3)), pending
        )
        assert delta is None and remote == built.partition()[1]

    def test_a_falsified_term_never_reads_a_free_operand(
        self, two_rel_schemas
    ):
        """The engine joins bound r2 first and decides ``r2.X = 7`` there,
        before ``r1.W > r2.Y`` or any row of r1: a term whose bound r2
        fails it evaluates to the empty bag without raising, even over a
        ``None`` in r1 — and the split drops it, whatever the conjunct
        order, so nothing is shipped."""
        r1_first = Comparison(Attr("r1.W"), ">", Attr("r2.Y"))
        r2_only = Comparison(Attr("r2.X"), "=", Const(7))
        state = {"r1": SignedBag.from_rows([(None, 0)])}
        for condition in (And(r1_first, r2_only), And(r2_only, r1_first)):
            view = View("V", two_rel_schemas, ["W"], condition)
            built = self.build(view, insert("r2", (5, 3)), [])
            assert evaluate_query(built, state).is_empty()
            source = MemorySource(two_rel_schemas, {"r1": [(None, 0)]})
            assert source.evaluate(built).is_empty()
            query, delta, remote = built_and_split(
                self.build, view, insert("r2", (5, 3)), []
            )
            assert query == built and delta is None and remote.is_empty()
        # A bound r2 that passes leaves r1 to the source, which raises.
        with pytest.raises(TypeError):
            evaluate_query(self.build(view, insert("r2", (7, 3)), []), state)

    def test_an_irrelevant_update_ships_nothing_and_the_view_installs(
        self, two_rel_schemas
    ):
        view = View.natural_join(
            "V", two_rel_schemas, ["W"], Comparison(Attr("r1.W"), ">", Const(5))
        )
        source = MemorySource(two_rel_schemas, {"r1": [(7, 2)], "r2": []})
        eca = ECA(view, evaluate_view(view, source.snapshot()))
        relevant, irrelevant = insert("r2", (2, 3)), insert("r1", (3, 2))
        source.apply_update(relevant)
        [request] = eca.handle_update(UpdateNotification(relevant, 1))
        source.apply_update(irrelevant)
        assert eca.handle_update(UpdateNotification(irrelevant, 2)) == []
        assert list(eca.uqs) == [request.query_id]
        # Split as partition() splits, V<U> would have been shipped.
        built = self.build(view, irrelevant, [request.query])
        assert built.partition()[1].term_count() == 1
        eca.handle_answer(
            QueryAnswer(request.query_id, source.evaluate(request.query))
        )
        assert eca.is_quiescent()
        assert eca.view_state() == evaluate_view(view, source.snapshot())
        assert eca.view_state() == SignedBag.from_rows([(7,)])


class TestOneBuildPerClass:
    def test_a_class_builds_once_per_event_not_once_per_member(
        self, monkeypatch, keyed_schemas
    ):
        """Sixteen structurally equal views are one class, one ECA: over
        a seeded run ECA's builder is called as often as for one view —
        once per event — not sixteen times as often.  (Round trips alone would
        not show it: the planner collapses sixteen built queries to one
        just the same.)"""
        calls = []
        build = eca_module._compensate_update

        def counting(view, update, pending):
            calls.append(update)
            return build(view, update, pending)

        monkeypatch.setattr(eca_module, "_compensate_update", counting)
        initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
        workload = [
            insert("r1", (10, 2)),
            insert("r2", (2, 20)),
            insert("r1", (11, 3)),
            insert("r1", (12, 2)),
            insert("r2", (3, 21)),
            insert("r1", (13, 9)),
            insert("r2", (9, 22)),
            insert("r1", (14, 2)),
        ]
        counts = {}
        for n_views in (1, 16):
            del calls[:]
            source = MemorySource(keyed_schemas, initial)
            algorithms = {}
            for index in range(n_views):
                view = View.natural_join(f"V{index}", keyed_schemas, ["W", "Y"])
                algorithms[view.name] = ECA(view, evaluate_view(view, source.snapshot()))
            catalog = WarehouseCatalog(algorithms, share_compensation=True)
            Simulation(source, catalog, list(workload)).run(RandomSchedule(11))
            counts[n_views] = len(calls)
            assert catalog.shared_query_stats() == (
                len(workload),
                (n_views - 1) * len(workload),
            )
            final = source.snapshot()
            for name, algorithm in catalog.algorithms.items():
                assert catalog.state_of(name) == evaluate_view(algorithm.view, final), name
        assert counts[16] == counts[1] == len(workload)
