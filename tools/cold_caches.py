#!/usr/bin/env python
"""Run the library with every cache cold: each memo misses, each kept
structure is dropped after the write that maintains it.

Usage::

    python -m pytest -p cold_caches ...              # tools/ on sys.path
    python -m cold_caches -m repro runtime ...       # any ``python`` command
    python -m cold_caches -c "import repro; ..."

or ``import cold_caches; cold_caches.install()`` first thing in a fresh
interpreter.  Nothing in ``src/repro`` knows about this module: it swaps
what :data:`CACHES` names from the outside, before the run builds any
instance, and never swaps them back.

A cache must never change an answer.  A run with every cache cold that
differs from the same run warm therefore shows a cache that does:
``tools/same_histories.py . . --cold`` compares the two over the history
suites, the ``repro runtime`` matrix and ``recover`` of every WAL
directory.  The serving tier's :class:`~repro.serving.ServingCache` is
left alone: its stale hits are visible by design (the staleness bound).

Each :data:`CACHES` entry names the cache, what it is keyed by, and the
only code that writes it; ``docs/RELATIONAL.md`` ("Caches") adds the hit
rates and the mutant that proves the cold run sees each one.  A name that
no longer exists, or is no longer the kind the entry expects, makes
:func:`install` refuse (:func:`drift` lists them), so a renamed slot
fails instead of silently running warm.
"""

from __future__ import annotations

import importlib
import runpy
import sys
import types
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple


class Cache(NamedTuple):
    """One cache and how the cold run defeats it.

    ``kind`` is one of:

    - ``"slot"`` — a ``__slots__`` member memo; its member descriptor is
      swapped for one that always reads :attr:`empty` and drops writes;
    - ``"attribute"`` — an instance-attribute memo of a plain class; the
      same descriptor, on the class (a data descriptor outranks the
      instance dictionary);
    - ``"table"`` — a module-level memo mapping, replaced by one that
      keeps nothing;
    - ``"kept"`` — structures a writer maintains in place; the
      attributes in :attr:`fields` are reset to :attr:`empty` after every
      call of the writer :attr:`name`.
    """

    kind: str
    module: str
    #: ``Class.attribute``, ``Class.method`` or a module-level name.
    name: str
    #: What a reader sees instead (``dict`` builds a fresh empty one).
    empty: Optional[type]
    #: The ``kept`` kind's attributes.
    fields: Tuple[str, ...]
    key: str
    writer: str


CACHES: Tuple[Cache, ...] = (
    Cache("slot", "repro.relational.expressions", "TermShape.plans", dict, (),
          "bound-operand mask", "engine.join_plan"),
    Cache("slot", "repro.relational.expressions", "TermShape.bound_checks", dict, (),
          "bound-operand mask", "compensation.split"),
    Cache("slot", "repro.relational.expressions", "TermShape.probe_keys", dict, (),
          "(bound-operand mask, operand the update binds)", "compensation.probe_key"),
    Cache("slot", "repro.relational.expressions", "TermShape.condition_signature", None,
          (), "the shape", "signature.term_signature"),
    Cache("slot", "repro.relational.expressions", "TermShape.encoded", None, (),
          "the shape", "codec._shape_text"),
    Cache("slot", "repro.relational.expressions", "Query.encoded", None, (),
          "the query", "codec._query_text"),
    Cache("slot", "repro.relational.expressions", "BoundOperand.encoded", None, (),
          "the operand", "codec._binding_text"),
    Cache("slot", "repro.messaging.messages", "Message.encoded", None, (),
          "the message", "codec._message_text"),
    Cache("attribute", "repro.warehouse.state", "MaterializedView.encoded_contents",
          None, (), "the contents (dropped by every write)", "codec._contents_text"),
    Cache("table", "repro.relational.engine", "_SHARED", None, (),
          "(schemas, projection, condition, bound-operand mask)", "engine.join_plan"),
    Cache("kept", "repro.source.memory", "MemorySource.apply_update", dict,
          ("_batches", "_indexes", "_positions", "_dead"), "relation (and key positions)",
          "MemorySource.apply_update; engine.evaluate_query adds a missing one"),
    Cache("kept", "repro.warehouse.state", "MaterializedView._write", None,
          ("_by_key",), "serving key", "MaterializedView._write; _index builds it"),
    Cache("kept", "repro.core.compensation", "ProbeIndex.hits", dict, ("tables",),
          "updated relation, then update column and bound value",
          "ProbeIndex.hits files; ProbeIndex.retire removes"),
    # The tables' watermark goes with them: tables emptied under a
    # watermark that says "filed" would hit nothing.
    Cache("kept", "repro.core.compensation", "ProbeIndex.hits", int, ("filed",),
          "newest query id filed", "ProbeIndex.hits"),
)


class KeepNothing:
    """A data descriptor that reads as empty and forgets every write."""

    def __init__(self, empty: Optional[type]) -> None:
        self.empty = empty

    def __get__(self, instance: object, owner: type) -> object:
        if instance is None:
            return self
        return None if self.empty is None else self.empty()

    def __set__(self, instance: object, value: object) -> None:
        pass


class NothingKept(dict):
    """A mapping whose stores vanish: every lookup misses."""

    def __setitem__(self, key: object, value: object) -> None:
        pass


#: What :func:`install` swapped; it swaps once per interpreter.
_INSTALLED: List[Cache] = []


def _owner(cache: Cache) -> Tuple[object, str]:
    """The class (or module) holding ``cache.name``, and the bare name."""
    target: object = importlib.import_module(cache.module)
    *path, name = cache.name.split(".")
    for part in path:
        target = getattr(target, part)
    return target, name


def _assigned_in(function: Callable[..., object], name: str) -> bool:
    return name in getattr(function, "__code__").co_names


def drift() -> List[str]:
    """Every entry of :data:`CACHES` whose name is gone or is no longer
    the kind the entry expects (empty when the table matches the tree)."""
    problems: List[str] = []
    for cache in CACHES:
        where = f"{cache.module}.{cache.name}"
        try:
            owner, name = _owner(cache)
        except (ImportError, AttributeError) as error:
            problems.append(f"{where}: {error}")
            continue
        found = vars(owner).get(name)
        if cache.kind == "slot":
            if not isinstance(found, types.MemberDescriptorType):
                problems.append(f"{where}: not a __slots__ member ({found!r})")
        elif cache.kind == "attribute":
            if found is not None or not _assigned_in(owner.__init__, name):
                problems.append(f"{where}: not an attribute __init__ assigns")
        elif cache.kind == "table":
            if not hasattr(found, "get"):
                problems.append(f"{where}: not a module-level mapping ({found!r})")
        elif cache.kind == "kept":
            if not callable(found):
                problems.append(f"{where}: not a method ({found!r})")
                continue
            holders = vars(owner).get("__slots__")
            for field in cache.fields:
                if holders is not None:
                    present = field in holders
                else:
                    present = _assigned_in(owner.__init__, field)
                if not present:
                    problems.append(f"{where}: {owner.__name__} has no {field}")
        else:
            problems.append(f"{where}: unknown kind {cache.kind!r}")
    return problems


def _drop_after(
    method: Callable[..., object], fields: Sequence[str], empty: Optional[type]
) -> Callable[..., object]:
    def cold(self: object, *args: object, **kwargs: object) -> object:
        try:
            return method(self, *args, **kwargs)
        finally:
            for field in fields:
                setattr(self, field, None if empty is None else empty())

    return cold


def install() -> None:
    """Make every cache of :data:`CACHES` cold, for the rest of the
    interpreter's life.  Idempotent; refuses a drifted table."""
    if _INSTALLED:
        return
    problems = drift()
    if problems:
        raise RuntimeError("cold_caches: the cache table drifted:\n  " + "\n  ".join(problems))
    for cache in CACHES:
        owner, name = _owner(cache)
        if cache.kind in ("slot", "attribute"):
            setattr(owner, name, KeepNothing(cache.empty))
        elif cache.kind == "table":
            setattr(owner, name, NothingKept())
        else:
            setattr(owner, name, _drop_after(getattr(owner, name), cache.fields, cache.empty))
        _INSTALLED.append(cache)


# --------------------------------------------------------------------- #
# As a pytest plugin (``-p cold_caches``) and as ``python -m cold_caches``
# --------------------------------------------------------------------- #


def pytest_configure(config: object) -> None:
    install()


def main(argv: Sequence[str]) -> None:
    """``-m MODULE ARGS...`` or ``-c CODE ARGS...``, as ``python`` runs
    them, after :func:`install`."""
    if len(argv) < 2 or argv[0] not in ("-m", "-c"):
        raise SystemExit("usage: python -m cold_caches (-m MODULE | -c CODE) [ARGS...]")
    install()
    flag, target, rest = argv[0], argv[1], list(argv[2:])
    if flag == "-m":
        sys.argv = [target, *rest]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.argv = ["-c", *rest]
        exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})


if __name__ == "__main__":
    main(sys.argv[1:])
