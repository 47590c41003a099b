"""The serving tier's read path into the warehouse.

:class:`WarehouseReader` is the *loader* side of the cache-aside design:
on a miss, it pulls the addressed slice of the materialized view out of
whatever warehouse frontend the run uses — the sync kernel's algorithm,
the asyncio :class:`~repro.runtime.actors.WarehouseUnit`, or the
sharded merged facade — by filtering a ``view_state()`` snapshot down to
the rows whose serving key matches.  It counts every backend read, which
is the number the serving benchmark proves the cache reduces.

Strictly read-only: ``view_state()`` hands back a copy, and the reader
only ever filters it into a fresh bag (RPR008 enforces this for the
whole package).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.relational.bag import SignedBag
from repro.serving.keys import Key, ViewKey, row_key


class WarehouseReader:
    """Reads one warehouse frontend, addressed by ``(view, serving key)``.

    Parameters
    ----------
    state_fn:
        Zero-argument callable returning the frontend's current view
        contents as a :class:`SignedBag` (``algorithm.view_state`` /
        ``unit.view_state``).
    key_positions:
        ``view name -> serving-key output positions`` (``None`` value =
        whole-row keys).
    tagged:
        Whether ``state_fn`` returns catalog-style tagged rows
        (``(view_name, *row)``) — multi-view and sharded frontends do.
    """

    def __init__(
        self,
        state_fn: Callable[[], SignedBag],
        key_positions: Dict[str, Optional[Tuple[int, ...]]],
        tagged: bool = False,
    ) -> None:
        self._state_fn = state_fn
        self._key_positions = dict(key_positions)
        self._tagged = tagged
        #: Backend view reads performed (the cost the cache amortizes).
        self.reads = 0

    @property
    def view_names(self) -> List[str]:
        return sorted(self._key_positions)

    def read(self, view_name: str, key: Key) -> SignedBag:
        """All current rows of ``view_name`` whose serving key is ``key``."""
        if view_name not in self._key_positions:
            raise KeyError(f"reader serves no view named {view_name!r}")
        self.reads += 1
        positions = self._key_positions[view_name]
        out = SignedBag()
        for row, count in self._state_fn().items():
            if self._tagged:
                if row[0] != view_name:
                    continue
                bare = row[1:]
            else:
                bare = row
            if row_key(bare, positions) == key:
                out.add(bare, count)
        return out

    def loader(self, view_name: str, key: Key) -> Callable[[], SignedBag]:
        """A zero-argument loader for :meth:`ServingCache.read`."""
        return lambda: self.read(view_name, key)

    def current_keys(self) -> List[ViewKey]:
        """Every ``(view, key)`` address present right now, sorted.

        The deterministic key universe read-workload generators sample
        from (sorted on the repr so heterogeneous key values compare).
        """
        found = set()
        for row, _ in self._state_fn().items():
            if self._tagged:
                view_name = row[0]
                bare = row[1:]
                if view_name not in self._key_positions:
                    continue
            else:
                view_name = next(iter(self._key_positions))
                bare = row
            found.add((view_name, row_key(bare, self._key_positions[view_name])))
        return sorted(found, key=repr)


def reader_for(
    algorithm: object, state_fn: Optional[Callable[[], SignedBag]] = None
) -> WarehouseReader:
    """Build a reader over an algorithm or catalog (or a stand-in facade).

    ``state_fn`` overrides where snapshots come from — the asyncio harness
    passes the :class:`~repro.runtime.actors.WarehouseUnit` (crash-proof)
    or the sharded merged facade while still deriving key layouts from
    the real algorithm/catalog.
    """
    algorithms = getattr(algorithm, "algorithms", None)
    if algorithms is not None:  # a WarehouseCatalog: tagged, multi-view
        key_positions: Dict[str, Optional[Tuple[int, ...]]] = {
            name: member.view.serving_key_positions()
            for name, member in algorithms.items()
        }
        tagged = True
    else:
        view = algorithm.view
        key_positions = {view.name: view.serving_key_positions()}
        tagged = False
    if state_fn is None:
        state_fn = algorithm.view_state
    return WarehouseReader(state_fn, key_positions, tagged=tagged)
