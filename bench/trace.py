"""In-memory span recorder and the wrapper installer for the traced pass.

The program under test has no tracing of its own yet (ROADMAP item 5), so
the benchmark records spans from the outside: it wraps each layer's public
functions where they are *bound* — at their definition and at the
``from ... import`` sites that copied the name — and restores every
binding afterwards.  Untraced runs never import this module.

A span is ``(name, start, end, parent, workload)``; they live in parallel
lists (an append per field is the cheapest record Python offers) and are
only aggregated or written out after the run.  Only synchronous functions
are wrapped: a coroutine's span would include the time it was suspended.
Synchronous calls nest properly even under asyncio — no ``await`` can
happen inside one — so one stack is enough.

The interpreter's cyclic garbage collector gets a span of its own
(:data:`GC_SPAN`, through ``gc.callbacks``): a collection runs inside
whatever call happened to allocate, and as a child span it comes off that
layer's self time instead of being billed to it.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

#: ``(span name, "package.module", "Attr" or "Class.attr", probe or None)``.
#: A probe is ``probe(args, result) -> value`` and runs after the timed
#: region; its value is stored with the span (counts measured where the
#: work happens).
Site = Tuple[str, str, str, Optional[Callable[[tuple, object], object]]]

#: Span name of one garbage collection (any generation).
GC_SPAN = "python.gc"


class Tracer:
    """Records spans while :attr:`on`; wraps and unwraps functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.workloads: List[str] = []
        self.values: List[object] = []
        #: Spans are recorded only inside :meth:`root` — set-up and output
        #: checks call the same functions and must not be attributed.
        self.on = False
        self.workload = ""
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._collecting = -1

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.workloads.append(self.workload)
        self.values.append(None)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._collecting = self._open(GC_SPAN) if self.on else -1
        elif self._collecting >= 0:
            self._close(self._collecting)
            self._collecting = -1

    @contextlib.contextmanager
    def root(self, name: str, workload: str) -> Iterator[None]:
        """The span every other span of one run hangs off."""
        self.workload = workload
        self.on = True
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.on = False

    def wrap(self, name: str, fn: Callable, probe=None) -> Callable:
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if probe is not None:
                self.values[index] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------ #
    # Installing
    # ------------------------------------------------------------------ #

    def install(self, sites: Sequence[Site]) -> None:
        """Patch every site; one wrapper per (span name, original function).

        A function imported into several modules is the same object at
        each site, so all of them receive the same wrapper and a call is
        recorded once however it is reached.  A site whose current value
        is already a wrapper, or is missing, raises: the site table has
        drifted from the source tree and its numbers would be wrong.
        """
        wrappers: Dict[Tuple[str, int], Callable] = {}
        # Import every module before patching any: a module first imported
        # afterwards would copy an already-wrapped name.
        for _, module_name, _, _ in sites:
            importlib.import_module(module_name)
        try:
            for name, module_name, path, probe in sites:
                owner: object = sys.modules[module_name]
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                if hasattr(original, "__wrapped__"):
                    raise RuntimeError(f"{module_name}:{path} is already wrapped")
                key = (name, id(original))
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, original, probe)
                setattr(owner, attr, wrappers[key])
                self._patched.append((owner, attr, original))
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reading back
    # ------------------------------------------------------------------ #

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its child spans cover."""
        durations = self.durations()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def spans(self) -> Iterator[Dict[str, object]]:
        for index, name in enumerate(self.names):
            yield {
                "id": index,
                "name": name,
                "start": self.starts[index],
                "end": self.ends[index],
                "parent": self.parents[index],
                "workload": self.workloads[index],
            }

    def dump(self, handle: TextIO) -> None:
        """Write every span as one JSON line (call after the run)."""
        for span in self.spans():
            handle.write(json.dumps(span) + "\n")

