"""The bounded-staleness serving cache (cache-aside, precisely invalidated).

:class:`ServingCache` fronts the warehouse for read traffic.  It is a
classic cache-aside design with two twists from the literature:

- **Maintenance-driven invalidation.**  Instead of TTLs, the maintenance
  stream itself invalidates: the cache reads each member view's change
  journal under its own name (:meth:`ServingCache.watch`), and after
  every atomic warehouse event the serving keys of the rows it wrote —
  no more — are streamed into :meth:`invalidate`
  (:meth:`ServingCache.invalidate_writes`).
- **Bounded staleness** (Stale View Cleaning, arXiv:1509.07454).  An
  invalidated entry is not discarded; it remembers *how many* maintenance
  events have touched its key since it was loaded (``updates_behind``).
  Reads within the configured bound are served stale — annotated with
  that lag — and only beyond the bound does the cache go back to the
  warehouse.  Bound 0 restores strict read-your-maintenance semantics:
  any invalidation forces a reload, so a cached read always equals the
  uncached read at the same point in the event sequence.

The cache never writes warehouse state and never touches a channel.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.serving.keys import Key, ViewKey, written_keys


class LRUPolicy:
    """Least-recently-used eviction: hits refresh recency."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[ViewKey, None]" = OrderedDict()

    def admit(self, key: ViewKey) -> None:
        self._order[key] = None

    def touch(self, key: ViewKey) -> None:
        self._order.move_to_end(key)

    def discard(self, key: ViewKey) -> None:
        self._order.pop(key, None)

    def victim(self) -> ViewKey:
        return next(iter(self._order))


class FIFOPolicy(LRUPolicy):
    """Insertion-order eviction: hits do not refresh recency."""

    name = "fifo"

    def touch(self, key: ViewKey) -> None:
        pass


#: Pluggable eviction policies, by CLI/config name.
POLICIES: Dict[str, Callable[[], LRUPolicy]] = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
}


class CacheEntry:
    """One cached answer and its staleness debt."""

    __slots__ = ("value", "updates_behind")

    def __init__(self, value: object) -> None:
        self.value = value
        #: Maintenance events that wrote this key since the value was
        #: loaded — the entry's distance behind the warehouse, in events.
        self.updates_behind = 0


class ReadResult:
    """What one read through the serving tier returned.

    ``status`` is ``"hit"`` (fresh cache entry), ``"stale"`` (served
    within the staleness bound; ``lag`` > 0), ``"miss"`` (loaded from the
    warehouse), or ``"direct"`` (cache disabled).  ``lag`` counts the
    maintenance events the served value is behind by (0 unless stale);
    ``backend_lag`` samples the warehouse's own update lag — the
    ``repro_staleness_lag_updates`` basis — at serve time, when a lag
    probe is attached.
    """

    __slots__ = ("view_name", "key", "value", "status", "lag", "backend_lag")

    def __init__(
        self,
        view_name: str,
        key: Key,
        value: object,
        status: str,
        lag: int = 0,
        backend_lag: Optional[int] = None,
    ) -> None:
        self.view_name = view_name
        self.key = key
        self.value = value
        self.status = status
        self.lag = lag
        self.backend_lag = backend_lag

    def __repr__(self) -> str:
        return (
            f"ReadResult({self.view_name}, {self.key!r}, {self.status}, "
            f"lag={self.lag})"
        )


class ServingCache:
    """Bounded-staleness cache-aside tier keyed by ``(view, serving key)``.

    Parameters
    ----------
    capacity:
        Maximum resident entries; the eviction policy picks victims.
    staleness_bound:
        Maximum ``updates_behind`` an entry may carry and still be
        served.  0 means any invalidation forces a reload.
    policy:
        Eviction policy name (``"lru"`` or ``"fifo"``).
    """

    def __init__(
        self,
        capacity: int = 64,
        staleness_bound: int = 0,
        policy: str = "lru",
    ) -> None:
        if capacity < 1:
            raise SimulationError("serving cache capacity must be >= 1")
        if staleness_bound < 0:
            raise SimulationError("staleness bound must be >= 0")
        try:
            self.policy = POLICIES[policy]()
        except KeyError:
            raise SimulationError(
                f"unknown eviction policy {policy!r}; "
                f"choose from {sorted(POLICIES)}"
            ) from None
        self.capacity = capacity
        self.staleness_bound = staleness_bound
        self._entries: Dict[ViewKey, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.stale_served = 0
        self.invalidations = 0
        self.evictions = 0
        #: Largest lag any stale-served answer carried.
        self.max_served_lag = 0
        self._lag_probe: Optional[Callable[[], int]] = None
        self._hits_counter = None
        self._misses_counter = None
        self._stale_counter = None
        self._invalidations_counter = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def bind_obs(self, obs: object) -> None:
        """Register the cache counter series on an Observability registry.

        Binding is lazy and optional so cache-off (and obs-off) runs
        export byte-identical metrics to a build without a serving tier.
        """
        if obs is None:
            return
        registry = obs.registry
        self._hits_counter = registry.counter(
            "repro_cache_hits", "serving-cache fresh hits", ("view",)
        )
        self._misses_counter = registry.counter(
            "repro_cache_misses", "serving-cache misses (backend loads)", ("view",)
        )
        self._stale_counter = registry.counter(
            "repro_cache_stale_served",
            "reads served stale within the staleness bound",
            ("view",),
        )
        self._invalidations_counter = registry.counter(
            "repro_cache_invalidations",
            "precise invalidations streamed from maintenance events",
            ("view",),
        )

    def attach_lag(self, probe: Callable[[], int]) -> None:
        """Attach a warehouse-lag probe (e.g. ``obs.staleness_lag``).

        Sampled at serve time to annotate stale answers with the
        warehouse's own update lag alongside the entry's event lag.
        """
        self._lag_probe = probe

    # ------------------------------------------------------------------ #
    # The maintenance-facing side
    # ------------------------------------------------------------------ #

    def watch(self, warehouse: object) -> None:
        """Open this cache's journal on every member view of ``warehouse``.

        Called when an incarnation starts, before its first event: what a
        view held before is what the cache starts empty of, and what a
        recovery replays was invalidated by the incarnation that first
        applied it.  A view no cache watches journals nothing for one.
        """
        written_keys(warehouse, self)

    def invalidate_writes(self, warehouse: object) -> None:
        """One maintenance event of ``warehouse`` ended: invalidate the
        keys its views wrote since the last call (:func:`written_keys`)."""
        keys = written_keys(warehouse, self)
        if keys:
            self.invalidate(keys)

    def invalidate(self, keys: Iterable[ViewKey]) -> None:
        """One maintenance event wrote ``keys``; age matching entries.

        Every key counts as an invalidation whether or not it is resident
        (the stream's volume is a property of the write path, not of what
        happens to be cached).  Resident entries age by one event.
        """
        for view_name, key in keys:
            self.invalidations += 1
            if self._invalidations_counter is not None:
                self._invalidations_counter.inc(view=view_name)
            entry = self._entries.get((view_name, key))
            if entry is not None:
                entry.updates_behind += 1

    # ------------------------------------------------------------------ #
    # The client-facing side
    # ------------------------------------------------------------------ #

    def read(
        self, view_name: str, key: Key, loader: Callable[[], object]
    ) -> ReadResult:
        """Cache-aside read: serve fresh, serve stale in bound, else load."""
        address = (view_name, key)
        entry = self._entries.get(address)
        backend_lag = self._lag_probe() if self._lag_probe is not None else None
        if entry is not None:
            if entry.updates_behind == 0:
                self.hits += 1
                if self._hits_counter is not None:
                    self._hits_counter.inc(view=view_name)
                self.policy.touch(address)
                return ReadResult(
                    view_name, key, entry.value, "hit", 0, backend_lag
                )
            if entry.updates_behind <= self.staleness_bound:
                self.stale_served += 1
                lag = entry.updates_behind
                if lag > self.max_served_lag:
                    self.max_served_lag = lag
                if self._stale_counter is not None:
                    self._stale_counter.inc(view=view_name)
                self.policy.touch(address)
                return ReadResult(
                    view_name, key, entry.value, "stale", lag, backend_lag
                )
        self.misses += 1
        if self._misses_counter is not None:
            self._misses_counter.inc(view=view_name)
        value = loader()
        if entry is not None:
            entry.value = value
            entry.updates_behind = 0
            self.policy.touch(address)
        else:
            self._admit(address, value)
        return ReadResult(view_name, key, value, "miss", 0, backend_lag)

    def _admit(self, address: ViewKey, value: object) -> None:
        if len(self._entries) >= self.capacity:
            victim = self.policy.victim()
            self.policy.discard(victim)
            del self._entries[victim]
            self.evictions += 1
        self._entries[address] = CacheEntry(value)
        self.policy.admit(address)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    def freshness(self) -> Dict[str, Dict[str, int]]:
        """Per-view staleness: resident entries, stale entries, max lag.

        The ``monitor_data_freshness``-style surface: how far behind the
        maintenance stream each view's cached answers currently are.
        """
        out: Dict[str, Dict[str, int]] = {}
        for (view_name, _), entry in self._entries.items():
            stats = out.setdefault(
                view_name, {"entries": 0, "stale_entries": 0, "max_updates_behind": 0}
            )
            stats["entries"] += 1
            if entry.updates_behind > 0:
                stats["stale_entries"] += 1
                if entry.updates_behind > stats["max_updates_behind"]:
                    stats["max_updates_behind"] = entry.updates_behind
        return out

    def report(self) -> Dict[str, object]:
        """Run-level serving summary (the CLI's serving report)."""
        reads = self.hits + self.stale_served + self.misses
        served_cached = self.hits + self.stale_served
        return {
            "reads": reads,
            "hits": self.hits,
            "stale_served": self.stale_served,
            "misses": self.misses,
            "hit_rate": (served_cached / reads) if reads else 0.0,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "max_served_lag": self.max_served_lag,
            "staleness_bound": self.staleness_bound,
            "policy": self.policy.name,
            "capacity": self.capacity,
            "resident": len(self._entries),
        }

    def __repr__(self) -> str:
        return (
            f"ServingCache(capacity={self.capacity}, "
            f"bound={self.staleness_bound}, policy={self.policy.name}, "
            f"resident={len(self._entries)})"
        )
