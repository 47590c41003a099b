"""Unit contract of :class:`repro.warehouse.planner.CompensationPlanner`."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.messaging.messages import QueryRequest
from repro.relational.expressions import Query, RelationOperand, Term
from repro.relational.schema import RelationSchema
from repro.warehouse.planner import CompensationPlanner

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"), key=("Y",))


def join_query(aliases=None):
    s1 = R1.aliased(aliases[0]) if aliases else R1
    s2 = R2.aliased(aliases[1]) if aliases else R2
    return Query([Term([RelationOperand(s1), RelationOperand(s2)], ("W", "Y"))])


def member(view, local_id, query, destination="src"):
    return (view, destination, QueryRequest(local_id, query))


class TestIndependentMode:
    def test_every_member_gets_its_own_global_id_in_order(self):
        planner = CompensationPlanner(share=False)
        out = planner.plan(
            [member("V0", 1, join_query()), member("V1", 1, join_query())]
        )
        assert [(dest, req.query_id) for dest, req in out] == [
            ("src", 1),
            ("src", 2),
        ]
        assert planner.subscribers(1) == (("V0", 1),)
        assert planner.subscribers(2) == (("V1", 1),)
        assert (planner.issued, planner.saved) == (2, 0)

    def test_identical_queries_are_not_grouped(self):
        planner = CompensationPlanner(share=False)
        out = planner.plan([member("V0", 1, join_query())] * 3)
        assert len(out) == 3


class TestSharedMode:
    def test_signature_equal_requests_collapse_to_one_wire_query(self):
        planner = CompensationPlanner(share=True)
        out = planner.plan(
            [
                member("V0", 4, join_query()),
                member("V1", 7, join_query(aliases=("a", "b"))),
            ]
        )
        assert len(out) == 1
        assert out[0][1].query_id == 1
        assert planner.subscribers(1) == (("V0", 4), ("V1", 7))
        assert (planner.issued, planner.saved) == (1, 1)

    def test_different_destinations_never_share(self):
        planner = CompensationPlanner(share=True)
        out = planner.plan(
            [
                member("V0", 1, join_query(), destination="alpha"),
                member("V1", 1, join_query(), destination="beta"),
            ]
        )
        assert len(out) == 2

    def test_grouping_never_crosses_plan_calls(self):
        planner = CompensationPlanner(share=True)
        first = planner.plan([member("V0", 1, join_query())])
        second = planner.plan([member("V1", 1, join_query())])
        assert [req.query_id for _, req in first + second] == [1, 2]
        assert planner.saved == 0

    def test_one_signature_per_distinct_object_per_plan_call(self, monkeypatch):
        """The views of a class ship one ``Query`` object: its signature
        is computed once per ``plan`` call, never kept for the next, and
        the grouping and the ids are what a signature per member gave."""
        from repro.warehouse import planner as planner_module

        signed = []

        def counting(query):
            signed.append(query)
            return query_signature(query)

        query_signature = planner_module.query_signature
        monkeypatch.setattr(planner_module, "query_signature", counting)
        shared, equal, other = (
            join_query(),
            join_query(aliases=("a", "b")),
            Query([Term([RelationOperand(R1)], ("W",))]),
        )
        members = [
            member("V0", 1, shared),
            member("V1", 1, shared),
            member("V2", 1, equal),
            member("V3", 1, other),
            member("V4", 1, shared, destination="beta"),
            member("V5", 1, other),
        ]
        planner = CompensationPlanner(share=True)
        out = planner.plan(members)
        assert [id(q) for q in signed] == [id(shared), id(equal), id(other)]
        assert [(dest, req.query_id, req.query) for dest, req in out] == [
            ("src", 1, shared),
            ("src", 2, other),
            ("beta", 3, shared),
        ]
        assert out[0][1].query is shared
        assert planner.subscribers(1) == (("V0", 1), ("V1", 1), ("V2", 1))
        assert planner.subscribers(2) == (("V3", 1), ("V5", 1))
        assert planner.subscribers(3) == (("V4", 1),)
        assert (planner.issued, planner.saved) == (3, 3)
        # The next call signs the same object again: nothing is kept.
        del signed[:]
        planner.plan([member("V0", 2, shared), member("V1", 2, shared)])
        assert [id(q) for q in signed] == [id(shared)]
        # Independent mode never signs.
        del signed[:]
        CompensationPlanner(share=False).plan(members)
        assert signed == []

    def test_retire_pops_the_route(self):
        planner = CompensationPlanner(share=True)
        planner.plan(
            [member("V0", 1, join_query()), member("V1", 2, join_query())]
        )
        assert planner.retire(1) == (("V0", 1), ("V1", 2))
        assert planner.is_quiescent()
        with pytest.raises(ProtocolError):
            planner.retire(1)


class TestDurability:
    def test_state_round_trips_through_a_fresh_planner(self):
        planner = CompensationPlanner(share=True)
        planner.plan(
            [member("V0", 1, join_query()), member("V1", 2, join_query())]
        )
        planner.plan([member("V0", 3, join_query(), destination="other")])
        twin = CompensationPlanner(share=True)
        twin.restore(planner.state())
        assert twin.pending_ids() == planner.pending_ids()
        for global_id in planner.pending_ids():
            assert twin.subscribers(global_id) == planner.subscribers(global_id)
        # The restored counter continues where the original would.
        follow = twin.plan([member("V1", 9, join_query())])
        assert follow[0][1].query_id == 3
