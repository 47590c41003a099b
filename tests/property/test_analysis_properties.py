"""Property tests for the whole-program analysis engine.

Two invariants the interprocedural rules stand on:

1. **Call-graph soundness** — every ``ast.Call`` whose callee names a
   locally defined function produces a resolved edge, so the effect
   pass never silently drops a reachable dependency.
2. **Effect inference is a least fixed point** — one more ``relax``
   step after :func:`infer_effects` changes nothing (idempotence at the
   fixpoint), ``relax`` is monotone in its input, and a function's
   inferred clock effect matches ground-truth reachability over the
   generated call graph.
"""

from __future__ import annotations

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.callgraph import CallGraph
from repro.analysis.effects import CLOCK, infer_effects, relax
from repro.analysis.engine import FileContext
from repro.analysis.project import Project

_NAMES = [f"fn{i}" for i in range(6)]


@st.composite
def generated_modules(draw):
    """A random intra-module call graph with optional clock leaves."""
    funcs = draw(
        st.lists(st.sampled_from(_NAMES), min_size=1, max_size=6, unique=True)
    )
    calls = {
        f: draw(st.lists(st.sampled_from(funcs), max_size=3, unique=True))
        for f in funcs
    }
    clocked = {f: draw(st.booleans()) for f in funcs}
    return funcs, calls, clocked


def _render(funcs, calls, clocked) -> str:
    lines = ["import time", ""]
    for f in funcs:
        lines.append(f"def {f}():")
        for callee in calls[f]:
            lines.append(f"    {callee}()")
        if clocked[f]:
            lines.append("    time.time()")
        lines.append("    return None")
        lines.append("")
    return "\n".join(lines)


def _build(funcs, calls, clocked):
    source = _render(funcs, calls, clocked)
    context = FileContext(
        "src/repro/warehouse/generated.py", source, ast.parse(source)
    )
    project = Project.build([context])
    graph = CallGraph.build(project)
    return project, graph


def _qualnames(project):
    return {fn.name: qualname for qualname, fn in project.functions.items()}


@given(generated_modules())
@settings(max_examples=50, deadline=None)
def test_every_local_call_yields_a_resolved_edge(module):
    funcs, calls, clocked = module
    project, graph = _build(funcs, calls, clocked)
    by_name = _qualnames(project)
    for f in funcs:
        sites = graph.sites(by_name[f])
        resolved = [s.target for s in sites if s.raw in funcs]
        assert sorted(resolved) == sorted(by_name[c] for c in calls[f])


@given(generated_modules())
@settings(max_examples=50, deadline=None)
def test_inference_is_idempotent_at_the_fixpoint(module):
    funcs, calls, clocked = module
    project, graph = _build(funcs, calls, clocked)
    effects = infer_effects(project, graph)
    again = relax(graph, effects)
    assert {k: set(v) for k, v in again.items()} == {
        k: set(v) for k, v in effects.items()
    }


@given(generated_modules())
@settings(max_examples=50, deadline=None)
def test_relax_is_monotone(module):
    funcs, calls, clocked = module
    project, graph = _build(funcs, calls, clocked)
    fixpoint = infer_effects(project, graph)
    empty = {k: frozenset() for k in fixpoint}
    lower = relax(graph, empty)
    upper = relax(graph, fixpoint)
    for qualname in fixpoint:
        assert set(lower.get(qualname, ())) <= set(upper.get(qualname, ()))


@given(generated_modules())
@settings(max_examples=50, deadline=None)
def test_clock_effect_equals_reachability_ground_truth(module):
    funcs, calls, clocked = module
    project, graph = _build(funcs, calls, clocked)
    effects = infer_effects(project, graph)
    by_name = _qualnames(project)

    def reaches_clock(start):
        seen, frontier = set(), [start]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            if clocked[current]:
                return True
            frontier.extend(calls[current])
        return False

    for f in funcs:
        assert (CLOCK in effects[by_name[f]]) == reaches_clock(f)
