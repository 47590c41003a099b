"""Every maintainer the suites run, built from its sources in one place.

:func:`build` returns ``(sources, warehouse, workload)`` for one name of
:data:`FAMILIES` — a registry algorithm or a catalog composition of
:data:`CATALOGS` — over one of :data:`TOPOLOGIES`.  Every algorithm is
started by :func:`repro.core.registry.build_algorithm`, so no suite works
out an initial view, an owners map or stored copies.

A single-source family sees one source, ``"source"``, holding every
relation; a multi-source family sees each relation at the source its
topology places it.  ``"fanout"`` instead gives every source its own copy
of ``"pair"``'s relations (prefixed ``s<i>``) and views over them, behind
one catalog: ``repro runtime``'s topology for a single-source family.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.registry import ALGORITHMS, build_algorithm
from repro.kernel.sync import REFRESH
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
R3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
SCHEMAS = [R1, R2]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}


def _prefixed(prefix: str, schemas: Sequence[RelationSchema]) -> List[RelationSchema]:
    """``schemas`` renamed ``<prefix><name>``, keys kept."""
    if not prefix:
        return list(schemas)
    return [RelationSchema(prefix + s.name, s.attributes, key=s.key) for s in schemas]


class Topology(NamedTuple):
    """Relations with their first rows, the source each sits at in a
    multi-source run, the view's projection and the workload's domain."""

    schemas: Sequence[RelationSchema]
    initial: Dict[str, List[Tuple[int, ...]]]
    placement: Tuple[str, ...]
    projection: Tuple[str, ...]
    domain: int = 6


TOPOLOGIES = {
    # Example 5's keyed join: both keys projected, so Strobe runs it too.
    "pair": Topology(SCHEMAS, INITIAL, ("s0", "s1"), ("W", "Y")),
    # Two sources, each with its own copy of "pair"'s relations.
    "fanout": Topology(
        [s for prefix in ("s0", "s1") for s in _prefixed(prefix, SCHEMAS)],
        {prefix + name: rows for prefix in ("s0", "s1") for name, rows in INITIAL.items()},
        ("s0", "s0", "s1", "s1"),
        ("W", "Y"),
    ),
    # Section 7's split view: r1 at A, r2 and r3 at B.
    "split": Topology(
        [R1, R2, R3],
        {"r1": [(1, 2), (4, 3)], "r2": [(2, 5)], "r3": [(5, 3), (6, 9)]},
        ("A", "B", "B"),
        ("W", "r2.Y", "Z"),
    ),
    # No keys (SWEEP needs none), one relation a source.
    "keyless": Topology(
        [RelationSchema(s.name, s.attributes) for s in (R1, R2, R3)],
        {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (5, 9)]},
        ("A", "B", "C"),
        ("W", "Z"),
    ),
    # repro runtime's multi-source chain: s<i>r(C<i>, C<i+1>) at s<i>.
    "chain": Topology(
        [
            RelationSchema("s0r", ("C0", "C1"), key=("C0",)),
            RelationSchema("s1r", ("C1", "C2"), key=("C2",)),
        ],
        {"s0r": [(1, 1), (2, 2)], "s1r": [(1, 1), (2, 2)]},
        ("s0", "s1"),
        ("s0r.C0", "s1r.C2"),
        domain=3,
    ),
}

WY = ("W", "Y")

#: Catalog compositions over ``"pair"``'s relations: name -> (whether the
#: planner shares, members in catalog order as ``(view name, family,
#: projection, relations)``).
CATALOGS = {
    # V0 and V1 are one class; V2 keeps X, so it is a class of its own;
    # V3 and V4 are other families over V0's definition.
    "catalog": (False, [
        ("V0", "eca", WY, SCHEMAS),
        ("V1", "eca", WY, SCHEMAS),
        ("V2", "eca", ("W", "r1.X", "Y"), SCHEMAS),
        ("V3", "eca-key", WY, SCHEMAS),
        ("V4", "lca", WY, SCHEMAS),
    ]),
    # Three classes over one definition, whose equal queries merge.
    "catalog-mixed": (True, [
        ("V0", "eca", WY, SCHEMAS),
        ("V1", "eca-key", WY, SCHEMAS),
        ("V2", "eca-local", WY, SCHEMAS),
        ("V3", "eca", WY, SCHEMAS),
    ]),
    # Three families over three definitions, one of them over r1 alone.
    "catalog-views": (False, [
        ("keyed", "eca-key", WY, SCHEMAS),
        ("other", "eca", ("Y", "W"), SCHEMAS),
        ("solo", "lca", ("W",), [R1]),
    ]),
}
CATALOGS["catalog-shared"] = (True, CATALOGS["catalog"][1])

SINGLE_SOURCE = sorted(name for name, cls in ALGORITHMS.items() if not cls.multi_source)
MULTI_SOURCE = sorted(name for name, cls in ALGORITHMS.items() if cls.multi_source)
FAMILIES = sorted(ALGORITHMS) + sorted(CATALOGS)


def view(topology: str = "pair") -> View:
    """The view ``V`` a registry family maintains over ``topology``."""
    shape = TOPOLOGIES[topology]
    return View.natural_join("V", shape.schemas, shape.projection)


def sources(family: str, topology: str = "pair", initial=None) -> Dict[str, MemorySource]:
    """Fresh sources of ``topology`` as ``family`` sees them: over
    ``"fanout"``, or for a multi-source family, each relation where the
    topology places it; else one source holding them all."""
    shape = TOPOLOGIES[topology]
    initial = shape.initial if initial is None else initial
    placement = ["source"] * len(shape.schemas)
    if topology == "fanout" or family in MULTI_SOURCE:
        placement = shape.placement
    placed: Dict[str, List[RelationSchema]] = {}
    for schema, name in zip(shape.schemas, placement):
        placed.setdefault(name, []).append(schema)
    return {
        name: MemorySource(schemas, {s.name: initial[s.name] for s in schemas})
        for name, schemas in placed.items()
    }


def maintainer(family, made, topology="pair", share=False, **params):
    """``family`` started from the sources ``made``: an algorithm over the
    topology's view, or a catalog (``share`` is the planner's mode for a
    registry family over ``"fanout"``; a composition fixes its own)."""
    shape = TOPOLOGIES[topology]
    if family in ALGORITHMS and topology != "fanout":
        return build_algorithm(family, view(topology), made, **params)
    if family in CATALOGS:
        share, members = CATALOGS[family]
    else:
        members = [("V", family, shape.projection, SCHEMAS)]
    if topology == "fanout":
        groups = [(prefix, {prefix: source}) for prefix, source in made.items()]
    else:
        groups = [("", made)]
    algorithms = {}
    for prefix, group in groups:
        for name, member, projection, schemas in members:
            member_view = View.natural_join(
                prefix + name,
                _prefixed(prefix, schemas),
                [prefix + p if "." in p else p for p in projection],
            )
            algorithms[member_view.name] = build_algorithm(
                member, member_view, group, **params
            )
    return WarehouseCatalog(algorithms, share_compensation=share)


def build(
    family: str,
    seed: int = 0,
    *,
    topology: str = "pair",
    updates: int = 6,
    refresh=None,
    initial=None,
    domain: Optional[int] = None,
    share: bool = False,
    **params,
):
    """``(sources, warehouse, workload)``: ``updates`` random updates drawn
    with ``seed`` (keys kept unique), and ``refresh`` — ``"end"`` for one
    REFRESH after them, a count for that many at seeded positions."""
    shape = TOPOLOGIES[topology]
    made = sources(family, topology, initial)
    workload = random_workload(
        shape.schemas,
        updates,
        seed=seed,
        initial=shape.initial if initial is None else initial,
        respect_keys=True,
        domain=shape.domain if domain is None else domain,
    )
    if refresh == "end":
        workload.append(REFRESH)
    elif refresh:
        rng = random.Random(seed)
        for _ in range(refresh):
            workload.insert(rng.randrange(len(workload) + 1), REFRESH)
    return made, maintainer(family, made, topology, share, **params), workload
