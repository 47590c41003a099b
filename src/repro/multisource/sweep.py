"""A SWEEP-style correct multi-source algorithm — no keys required.

The second published answer to the paper's multi-source problem (after
Strobe) was SWEEP (Agrawal, El Abbadi, Singh, Yurek: "Efficient View
Maintenance at Data Warehouses", 1997): evaluate each update's
incremental query by *sweeping* one base relation at a time, and cancel
concurrent-update interference with corrections the warehouse can compute
**locally**, because by the time a hop's answer arrives the warehouse has
already received (per-source FIFO!) the notification of every update that
hop could have seen — and the interference of such an update on the hop
is just ``current-bindings |x| tuple(U')``, a fully bound expression.

Shape of the algorithm here:

- updates are processed **serially** (like LCA): while ``U``'s sweep runs,
  later notifications queue;
- ``V<U>`` binds ``U``'s relation; the sweep then visits each remaining
  free relation in term order.  Each *hop* ships one query to the owning
  source: the current partial bindings (as bound constants) joined with
  that one relation, projecting all covered columns;
- when a hop's answer arrives, the warehouse subtracts, for every
  *received-but-unprocessed* update ``U'`` on the hop's relation, the
  locally evaluated ``bindings |x| tuple(U')`` — per-source FIFO makes
  this correction set exact (``U'`` interfered iff its notification beat
  the answer);
- after the last hop, the final bindings (filtered by the full view
  condition, projected) are the delta: ``MV += delta``, and the next
  queued update starts.

Compared with :class:`~repro.multisource.strobe.StrobeStyle`:

===========  =======================  ==============================
             Strobe-style             SWEEP-style
===========  =======================  ==============================
requires     keys of every relation   nothing (duplicates fine)
queries      parallel fragments       sequential hops (semi-join)
concurrency  pipelined                one update at a time
correction   key-delete filters       algebraic, fully bound
===========  =======================  ==============================

Self-joins are not supported (each base relation may appear once) — the
sweep's per-relation corrections assume a single occurrence.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.protocol import Routed, WarehouseAlgorithm
from repro.errors import ProtocolError, SchemaError
from repro.messaging.messages import QueryAnswer, QueryRequest, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.conditions import conjunction, flatten_conjuncts
from repro.relational.engine import evaluate_query
from repro.relational.expressions import BoundOperand, Query, RelationOperand, Term
from repro.relational.schema import ProductSchema
from repro.relational.tuples import SignedTuple
from repro.relational.views import View
from repro.source.updates import Update

Row = Tuple[object, ...]


class _Sweep:
    """State of one update's sweep."""

    def __init__(self, term: Term, free_indices: List[int]) -> None:
        #: The substituted view term V<U> (updated relation bound).
        self.term = term
        #: Operand indices not yet visited, in term order.
        self.remaining = list(free_indices)
        #: Operand indices whose values the bindings currently carry.
        self.covered = [
            i for i, op in enumerate(term.operands) if op.is_bound
        ]
        #: Partial rows over the covered operands (signed multiplicities).
        sign = term.coefficient
        values: List[object] = []
        for index in self.covered:
            operand = term.operands[index]
            sign *= operand.tuple.sign
            values.extend(operand.tuple.values)
        self.bindings = SignedBag({tuple(values): sign})
        #: The hop currently in flight: (query id, operand index).
        self.in_flight: Optional[Tuple[int, int]] = None


class SweepStyle(WarehouseAlgorithm):
    """Correct multi-source maintenance with no key requirement."""

    name = "sweep"
    multi_source = True

    def __init__(
        self,
        view: View,
        owners: Optional[Dict[str, str]] = None,
        initial: Optional[SignedBag] = None,
    ) -> None:
        names = [schema.base for schema in view.relations]
        if len(set(names)) != len(names):
            raise SchemaError(
                f"the SWEEP-style algorithm does not support self-joins "
                f"(view {view.name!r} mentions a relation twice)"
            )
        super().__init__(view, initial)
        if owners:
            self.owners = dict(owners)
        self._queue: Deque[Update] = deque()
        self._current: Optional[_Sweep] = None

    # ------------------------------------------------------------------ #
    # Routed events (called by the execution kernels)
    # ------------------------------------------------------------------ #

    def on_update(self, source: Optional[str], notification: UpdateNotification) -> Routed:
        update = notification.update
        if not self.view.involves(update.relation):
            return []
        self._queue.append(update)
        if self._current is None:
            return self._start_next()
        return []

    def on_answer(self, source: Optional[str], answer: QueryAnswer) -> Routed:
        sweep = self._current
        if sweep is None or sweep.in_flight is None:
            raise ProtocolError(f"unexpected answer {answer.query_id}")
        query_id, operand_index = sweep.in_flight
        if answer.query_id != query_id:
            raise ProtocolError(
                f"answer {answer.query_id} does not match hop {query_id}"
            )
        sweep.in_flight = None
        corrected = answer.answer + self._hop_corrections(sweep, operand_index)
        sweep.bindings = corrected
        sweep.covered = sorted(sweep.covered + [operand_index])
        return self._advance()

    # ------------------------------------------------------------------ #
    # Sweep machinery
    # ------------------------------------------------------------------ #

    def _start_next(self) -> Routed:
        routed: Routed = []
        while self._queue and self._current is None:
            update = self._queue.popleft()
            query = self.view.substitute(update.relation, update.signed_tuple())
            # Single-occurrence SPJ views produce exactly one term.
            term = query.terms[0]
            free = [
                i for i, operand in enumerate(term.operands) if not operand.is_bound
            ]
            self._current = _Sweep(term, free)
            routed.extend(self._advance())
        return routed

    def _advance(self) -> Routed:
        sweep = self._current
        assert sweep is not None
        if not sweep.remaining:
            self._finish(sweep)
            self._current = None
            return self._start_next()
        operand_index = sweep.remaining.pop(0)
        hop_query, destination = self._build_hop(sweep, operand_index)
        if hop_query.is_empty():
            # No bindings survive: the delta is empty from here on out.
            sweep.bindings = SignedBag()
            sweep.covered = sorted(sweep.covered + [operand_index])
            return self._advance()
        query_id = self._next_query_id
        self._next_query_id += 1
        sweep.in_flight = (query_id, operand_index)
        return [(destination, QueryRequest(query_id, hop_query))]

    def _hop_layout(self, sweep: _Sweep, operand_index: int) -> Tuple[List[int], Term]:
        """Shared layout for hop queries and their local corrections: the
        operand indices a hop covers, and the hop's term over the bare
        relations — every binding row's term is that one re-operanded."""
        term = sweep.term
        included = sorted(sweep.covered + [operand_index])
        schemas = [term.operands[i].schema for i in included]
        sub_product = ProductSchema(schemas)
        decidable = []
        for conjunct in flatten_conjuncts(term.condition):
            try:
                for name in conjunct.attributes():
                    sub_product.resolve(name)
            except SchemaError:
                continue
            decidable.append(conjunct)
        projection = [
            f"{schema.name}.{attribute}"
            for schema in schemas
            for attribute in schema.attributes
        ]
        template = Term(
            [RelationOperand(schema) for schema in schemas],
            projection,
            conjunction(decidable),
        )
        return included, template

    def _row_operands(
        self, sweep: _Sweep, included: List[int], operand_index: int, row, hop_operand
    ) -> List[object]:
        """``hop_operand`` at the hop's slot, ``row``'s bindings elsewhere."""
        operands = []
        offset = 0
        for index in included:
            if index == operand_index:
                operands.append(hop_operand)
            else:
                schema = sweep.term.operands[index].schema
                values = row[offset : offset + schema.arity]
                operands.append(BoundOperand(schema, SignedTuple(values)))
                offset += schema.arity
        return operands

    def _build_hop(self, sweep: _Sweep, operand_index: int) -> Tuple[Query, str]:
        relation = sweep.term.operands[operand_index].schema
        destination = self.owners[relation.base]
        included, template = self._hop_layout(sweep, operand_index)
        hop_operand = RelationOperand(relation)
        terms: List[Term] = []
        for row, count in sweep.bindings.items():
            sign = 1 if count > 0 else -1
            hop_term = template.with_operands(
                self._row_operands(sweep, included, operand_index, row, hop_operand),
                sign,
            )
            terms.extend([hop_term] * abs(count))
        return Query(terms), destination

    def _hop_corrections(self, sweep: _Sweep, operand_index: int) -> SignedBag:
        """Subtract interference from received-but-unprocessed updates.

        Per-source FIFO: any update on the hop's relation whose
        notification has been received (it is sitting in our queue) was
        executed before the hop's answer was evaluated, so the hop saw it
        and its contribution — ``bindings |x| tuple(U')`` — must come out.
        Updates not yet received cannot have been seen.  The correction is
        fully bound and evaluated at the warehouse.
        """
        relation = sweep.term.operands[operand_index].schema
        interfering = [u for u in self._queue if u.relation == relation.base]
        if not interfering:
            return SignedBag()
        included, template = self._hop_layout(sweep, operand_index)
        terms: List[Term] = []
        for update in interfering:
            # Bound with the update's own sign, which scales the interference.
            hop_operand = BoundOperand(relation, update.signed_tuple())
            for row, count in sweep.bindings.items():
                sign = -1 if count > 0 else 1  # negated binding sign
                bound_term = template.with_operands(
                    self._row_operands(sweep, included, operand_index, row, hop_operand),
                    sign,
                )
                terms.extend([bound_term] * abs(count))
        return evaluate_query(Query(terms), {})

    def _finish(self, sweep: _Sweep) -> None:
        """Apply the final projection/condition and install the delta."""
        term = sweep.term
        positions: List[int] = []
        offset = 0
        layout: Dict[int, int] = {}
        for index in sorted(sweep.covered):
            layout[index] = offset
            offset += term.operands[index].schema.arity
        # Map term projection (product positions) into binding-row slots.
        for name in term.projection:
            product_position = term.product.resolve(name)
            running = 0
            for index, operand in enumerate(term.operands):
                arity = operand.schema.arity
                if product_position < running + arity:
                    positions.append(layout[index] + (product_position - running))
                    break
                running += arity
        predicate_product = ProductSchema(
            [term.operands[i].schema for i in sorted(sweep.covered)]
        )
        predicate = term.condition.bind(predicate_product)
        delta = SignedBag()
        for row, count in sweep.bindings.items():
            if not predicate(row):
                continue
            delta.add(tuple(row[i] for i in positions), count)
        self.mv.apply_delta(delta)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    def is_quiescent(self) -> bool:
        return self._current is None and not self._queue

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def durable_config(self) -> Dict[str, Any]:
        return {"owners": dict(self.owners)}

    def pending_state(self) -> Dict[str, Any]:
        current = None
        if self._current is not None:
            sweep = self._current
            current = {
                "term": sweep.term,
                "remaining": list(sweep.remaining),
                "covered": list(sweep.covered),
                "bindings": sweep.bindings.to_pairs(),
                "in_flight": sweep.in_flight,
            }
        return {
            "next_query_id": self._next_query_id,
            "queue": list(self._queue),
            "current": current,
        }

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        self._next_query_id = state["next_query_id"]
        self._queue = deque(state["queue"])
        entry = state["current"]
        if entry is None:
            self._current = None
            return
        sweep = _Sweep.__new__(_Sweep)
        sweep.term = entry["term"]
        sweep.remaining = list(entry["remaining"])
        sweep.covered = list(entry["covered"])
        sweep.bindings = SignedBag.from_pairs(entry["bindings"])
        in_flight = entry["in_flight"]
        sweep.in_flight = tuple(in_flight) if in_flight is not None else None
        self._current = sweep

    def pending_requests(self) -> Routed:
        sweep = self._current
        if sweep is None or sweep.in_flight is None:
            return []
        query_id, operand_index = sweep.in_flight
        # _build_hop does not mutate the sweep, so rebuilding the exact
        # in-flight request is safe.
        hop_query, destination = self._build_hop(sweep, operand_index)
        return [(destination, QueryRequest(query_id, hop_query))]

    def pending_query_ids(self) -> List[int]:
        sweep = self._current
        if sweep is None or sweep.in_flight is None:
            return []
        return [sweep.in_flight[0]]

    def gauges(self) -> Dict[str, int]:
        """Sweep's in-flight state: the open hop plus queued updates."""
        return {
            "uqs": len(self.pending_query_ids()),
            "queued_updates": len(self._queue) + (1 if self._current else 0),
        }
