"""The serving tier's read path into the warehouse.

:class:`WarehouseReader` is the *loader* side of the cache-aside design:
on a miss, it looks the addressed serving key up in the one member
view's own index (:meth:`MaterializedView.rows_for_key
<repro.warehouse.state.MaterializedView.rows_for_key>`), whatever
warehouse frontend the run uses — the sync kernel's algorithm or
catalog, the asyncio :class:`~repro.runtime.actors.WarehouseUnit`, or
the sharded merged facade.  It counts every backend read, which is the
number the serving benchmark proves the cache reduces.

Strictly read-only: the index lookup builds a fresh bag, and the one
``view_state()`` snapshot read here — :meth:`WarehouseReader.scan`, the
reference the verify oracle compares served values with — is only
filtered into a fresh bag (RPR008 enforces this for the whole package).
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Tuple

from repro.relational.bag import SignedBag
from repro.serving.keys import Key, ViewKey, row_key


class WarehouseReader:
    """Reads one warehouse frontend, addressed by ``(view, serving key)``.

    ``frontend`` is an algorithm, a
    :class:`~repro.warehouse.catalog.WarehouseCatalog`, a
    :class:`~repro.runtime.actors.WarehouseUnit` or the sharded facade.
    The member view behind an address is resolved through it on *every*
    read — a unit's ``algorithm`` is its current incarnation's, the
    facade's ``algorithms`` come from its units' — so after a crash the
    recovered warehouse is read, never the dead one.
    """

    def __init__(self, frontend: object) -> None:
        self._frontend = frontend
        #: Backend view reads performed (the cost the cache amortizes).
        self.reads = 0

    def _members(self) -> Tuple[Mapping[str, object], bool]:
        """``(view name -> member algorithm, rows are tagged)``, right now."""
        warehouse = getattr(self._frontend, "algorithm", self._frontend)
        members = getattr(warehouse, "algorithms", None)
        if members is None:
            return {warehouse.view.name: warehouse}, False
        return members, True

    @property
    def view_names(self) -> List[str]:
        return sorted(self._members()[0])

    def read(self, view_name: str, key: Key) -> SignedBag:
        """All current rows of ``view_name`` whose serving key is ``key``."""
        member = self._members()[0].get(view_name)
        if member is None:
            raise KeyError(f"reader serves no view named {view_name!r}")
        self.reads += 1
        return member.mv.rows_for_key(key)

    def scan(self, view_name: str, key: Key) -> SignedBag:
        """What :meth:`read` must return, computed the slow way.

        Filters the frontend's whole ``view_state()`` on the serving key
        and never touches a member's index, so it can vouch for
        :meth:`read`: the verify oracle of
        :class:`~repro.serving.client.ReadClientActor`.  Not a backend
        read (``reads`` is untouched).
        """
        members, tagged = self._members()
        positions = members[view_name].view.serving_key_positions()
        out = SignedBag()
        for row, count in self._frontend.view_state().items():
            if tagged:
                if row[0] != view_name:
                    continue
                row = row[1:]
            if row_key(row, positions) == key:
                out.add(row, count)
        return out

    def loader(self, view_name: str, key: Key) -> Callable[[], SignedBag]:
        """A zero-argument loader for :meth:`ServingCache.read`."""
        return lambda: self.read(view_name, key)

    def current_keys(self) -> List[ViewKey]:
        """Every ``(view, key)`` address present right now, sorted.

        The deterministic key universe read-workload generators sample
        from (sorted on the repr so heterogeneous key values compare).
        """
        found = [
            (view_name, key)
            for view_name, member in self._members()[0].items()
            for key in member.mv.serving_keys()
        ]
        return sorted(found, key=repr)


def reader_for(frontend: object) -> WarehouseReader:
    """A reader over an algorithm, a catalog, a unit or the sharded facade."""
    return WarehouseReader(frontend)
