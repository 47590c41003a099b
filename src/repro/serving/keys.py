"""Cache-key vocabulary shared by the serving tier.

A serving-cache entry is addressed by ``(view_name, key)``: the view the
client reads and the projected serving key of the rows it wants.  The
serving key of a view is chosen by
:meth:`repro.relational.views.View.serving_key_positions` — the first
base-relation key the view projects (the ECA-Key analysis reused) — and
falls back to the whole row when no relation qualifies, which degrades
precision (a whole-row key caches single rows) but never correctness.

Which addresses a maintenance event invalidates comes from the member
views' own change journals (:meth:`MaterializedView.take_changes
<repro.warehouse.state.MaterializedView.take_changes>`), read here under
the serving cache's name: :func:`written_keys`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence, Set, Tuple

#: The projected serving key of one or more view rows.
Key = Tuple[object, ...]

#: A fully-qualified cache address: ``(view name, serving key)``.
ViewKey = Tuple[str, Key]


def row_key(row: Sequence[object], positions: Optional[Tuple[int, ...]]) -> Key:
    """Project ``row`` down to its serving key.

    ``positions is None`` means the view has no usable serving key and the
    whole row doubles as one.
    """
    if positions is None:
        return tuple(row)
    return tuple(row[i] for i in positions)


def members(warehouse: object) -> Mapping[str, object]:
    """``registration name -> member algorithm`` of a warehouse frontend.

    An algorithm is its own one member, under its view's name; a catalog
    or the sharded facade lists its members (``algorithms``) under the
    names clients address reads with; a unit stands for its current
    incarnation's algorithm.
    """
    warehouse = getattr(warehouse, "algorithm", warehouse)
    found = getattr(warehouse, "algorithms", None)
    if found is None:
        return {warehouse.view.name: warehouse}  # type: ignore[attr-defined]
    return found


def written_keys(warehouse: object, reader: Hashable) -> Set[ViewKey]:
    """The addresses whose rows ``warehouse``'s members wrote since
    ``reader``'s last call, each row projected to its view's serving key.

    Members that are one algorithm (a catalog class) share its journal:
    it is taken once and its rows reported under every member's name.
    The first call on a journal opens ``reader``'s there and contributes
    nothing: a view's rows before that are what a cache starts empty of.
    Over-reporting is allowed (a row written and written back counts);
    missing a changed row is not.
    """
    out: Set[ViewKey] = set()
    taken: Dict[int, Sequence[Tuple[Key, int]]] = {}
    for name, member in members(warehouse).items():
        changes = taken.get(id(member))
        if changes is None:
            changes = member.mv.take_changes(reader) or []  # type: ignore[attr-defined]
            taken[id(member)] = changes
        if changes:
            positions = member.view.serving_key_positions()  # type: ignore[attr-defined]
            out.update((name, row_key(row, positions)) for row, _ in changes)
    return out
