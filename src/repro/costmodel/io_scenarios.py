"""Per-term I/O estimators for the two access scenarios of Section 6.3.

The paper charges I/O at the source per *term*, with no caching and no
cross-term optimization ("if a query consists of several terms, each one
is evaluated independently").  Fully-bound terms are never shipped, so
they cost nothing.

**Scenario 1** (clustering indexes + ample memory): a term is evaluated by
seeding from a bound tuple and expanding along join edges with index
probes; the optimizer may instead scan a relation outright when that is
cheaper (the paper's ``min(J, I)`` terms).  The greedy expansion below
reproduces every per-term count derived in Appendix D.3.1 — e.g.
``IO(Q1) = 1 + min(J, I)``, ``IO(Q2) = 2``, ``IO(Q3) = 2 min(J, I)``, and
cost 1 for the two-bound compensating terms.  The in-memory source runs
the same expansion: its engine joins a term's bound operands first and
probes each free relation through a kept hash index on the join key, in
the order :meth:`Scenario1Estimator.expansion` charges for Example 6
(``tests/unit/test_io_scenarios.py``).

**Scenario 2** (no indexes, three buffer blocks, nested loops): costs
depend only on how many relations remain free — ``I`` for one,
``I' * I`` for two, ``I^3`` for three (Appendix D.3.2).  As in the paper,
the cost of reading the outer relation's own blocks is folded into the
loop counts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.costmodel.parameters import PaperParameters
from repro.relational.conditions import Attr, Comparison, flatten_conjuncts
from repro.relational.expressions import Query, Term
from repro.source.base import Source

CLUSTERED = "clustered"
UNCLUSTERED = "unclustered"


class IndexCatalog:
    """Which indexes exist at the source (Scenario 1's access paths).

    The paper's Example 6 catalog: clustering indexes on ``r1.X``,
    ``r2.X`` and ``r3.Y``, and a non-clustering index on ``r2.Y``
    (:func:`example6_catalog`).
    """

    def __init__(self, entries: Optional[Dict[Tuple[str, str], str]] = None) -> None:
        self._entries: Dict[Tuple[str, str], str] = {}
        if entries:
            for key, kind in entries.items():
                self.add(key[0], key[1], kind)

    def add(self, relation: str, attribute: str, kind: str) -> None:
        if kind not in (CLUSTERED, UNCLUSTERED):
            raise ValueError(f"index kind must be clustered/unclustered, got {kind!r}")
        self._entries[(relation, attribute)] = kind

    def kind(self, relation: str, attribute: str) -> Optional[str]:
        return self._entries.get((relation, attribute))


def example6_catalog() -> IndexCatalog:
    """The index catalog assumed by Appendix D.3.1 for Example 6."""
    return IndexCatalog(
        {
            ("r1", "X"): CLUSTERED,
            ("r2", "X"): CLUSTERED,
            ("r2", "Y"): UNCLUSTERED,
            ("r3", "Y"): CLUSTERED,
        }
    )


def _join_edges(term: Term) -> List[Tuple[int, str, int, str]]:
    """Equality edges between different operands: (op_i, attr_i, op_j, attr_j)."""
    offsets: List[int] = []
    offset = 0
    for operand in term.operands:
        offsets.append(offset)
        offset += operand.schema.arity

    def locate(position: int) -> Tuple[int, str]:
        for index in range(len(term.operands) - 1, -1, -1):
            if position >= offsets[index]:
                schema = term.operands[index].schema
                return index, schema.attributes[position - offsets[index]]
        raise AssertionError("unreachable")

    edges: List[Tuple[int, str, int, str]] = []
    for conjunct in flatten_conjuncts(term.condition):
        if not (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        ):
            continue
        left = locate(term.product.resolve(conjunct.left.name))
        right = locate(term.product.resolve(conjunct.right.name))
        if left[0] != right[0]:
            edges.append((left[0], left[1], right[0], right[1]))
    return edges


class Scenario1Estimator:
    """Index-probe expansion with a full-scan escape hatch."""

    name = "scenario1"

    def __init__(self, params: PaperParameters, catalog: Optional[IndexCatalog] = None) -> None:
        self.params = params
        self.catalog = catalog if catalog is not None else example6_catalog()

    def _blocks(self, source: Source, relation: str) -> int:
        return max(1, math.ceil(source.cardinality(relation) / self.params.K))

    def estimate_term(self, term: Term, source: Source) -> int:
        return sum(cost for _, cost, _ in self.expansion(term, source))

    def expansion(self, term: Term, source: Source) -> List[Tuple[int, int, int]]:
        """The free operands in the order the term is expanded from its
        bound ones, each as ``(operand index, I/O charged, tuples it
        yields)`` — the last is ``result_count``, ``m * J`` for a probe
        from ``m`` resolved tuples.  A term with no bound operand reads
        every relation once, in operand order."""
        free = [i for i, op in enumerate(term.operands) if not op.is_bound]
        bound = [i for i, op in enumerate(term.operands) if op.is_bound]
        if not bound:
            # Full recomputation: read every relation once.
            return [
                (
                    i,
                    self._blocks(source, term.operands[i].source_relation),
                    source.cardinality(term.operands[i].source_relation),
                )
                for i in free
            ]

        edges = _join_edges(term)
        J, K = self.params.J, self.params.K
        probe_unit = max(1, math.ceil(J / K))

        resolved: Dict[int, int] = {i: 1 for i in bound}  # operand -> tuple count
        remaining: Set[int] = set(free)
        steps: List[Tuple[int, int, int]] = []
        while remaining:
            best: Optional[Tuple[int, int, int]] = None  # (cost, operand, count)
            for target in sorted(remaining):
                relation = term.operands[target].source_relation
                scan_cost = self._blocks(source, relation)
                probe_cost: Optional[int] = None
                result_count: Optional[int] = None
                for a, attr_a, b, attr_b in edges:
                    if a == target and b in resolved:
                        side_attr, m = attr_a, resolved[b]
                    elif b == target and a in resolved:
                        side_attr, m = attr_b, resolved[a]
                    else:
                        continue
                    kind = self.catalog.kind(relation, side_attr)
                    if kind == CLUSTERED:
                        cost = m * probe_unit
                    elif kind == UNCLUSTERED:
                        cost = m * J
                    else:
                        # No index on the join attribute: scanning is the
                        # only plan for this edge, but the join result size
                        # is the same.
                        cost = scan_cost
                    if probe_cost is None or cost < probe_cost:
                        probe_cost = cost
                    if result_count is None or m * J < result_count:
                        result_count = m * J
                if probe_cost is None:
                    # Not yet adjacent to a resolved operand; defer.
                    continue
                # The optimizer may scan instead of probing (min(J, I)); a
                # scan reads the same matching tuples, so the expansion
                # count is unchanged.
                cost = min(probe_cost, scan_cost)
                candidate = (cost, target, result_count or 0)
                if best is None or candidate[0] < best[0]:
                    best = candidate
            if best is None:
                # Disconnected free relations: scan each.
                for target in sorted(remaining):
                    relation = term.operands[target].source_relation
                    resolved[target] = source.cardinality(relation)
                    steps.append((target, self._blocks(source, relation), resolved[target]))
                break
            cost, target, count = best
            steps.append((target, cost, count))
            resolved[target] = max(1, count)
            remaining.discard(target)
        return steps

    def estimate_query(self, query: Query, source: Source) -> int:
        return sum(self.estimate_term(t, source) for t in query.source_terms().terms)


class Scenario2Estimator:
    """No indexes, three memory blocks, nested-loop joins."""

    name = "scenario2"

    def __init__(self, params: PaperParameters) -> None:
        self.params = params

    def _blocks(self, source: Source, relation: str) -> int:
        return max(1, math.ceil(source.cardinality(relation) / self.params.K))

    def _double_blocks(self, source: Source, relation: str) -> int:
        return max(1, math.ceil(source.cardinality(relation) / (2 * self.params.K)))

    def estimate_term(self, term: Term, source: Source) -> int:
        free = [op.source_relation for op in term.operands if not op.is_bound]
        if not free:
            return 0
        if len(free) == 1:
            return self._blocks(source, free[0])
        if len(free) == 2:
            a, b = free
            return min(
                self._double_blocks(source, a) * self._blocks(source, b),
                self._double_blocks(source, b) * self._blocks(source, a),
            )
        total = 1
        for relation in free:
            total *= self._blocks(source, relation)
        return total

    def estimate_query(self, query: Query, source: Source) -> int:
        return sum(self.estimate_term(t, source) for t in query.source_terms().terms)
