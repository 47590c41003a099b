"""Whole-program effect inference over the call graph.

Each project function gets a set of *effects* — the lattice is the
powerset of {reads-clock, randomness, state-mutation, self-mutation}
ordered by inclusion, with ``pure`` as the empty set and join = union.
Leaf facts come from two places:

- **seed tables**: the banned-name tables (``time.time`` reads the
  clock, ``random.*`` is randomness, ``dispatch_event``/``on_update``
  mutate algorithm state).  They are defined here and nowhere else —
  the rules consult them through :func:`seed_effects`.
  Seeds apply at *call sites by name*, so they fire whether or not the
  callee resolves;
- **intrinsics**: syntax inside the function body itself (assignments
  and container mutators rooted at ``self``).

Propagation is a textbook monotone fixed point: one :func:`relax` step
joins every function's effects with its resolved callees' effects, and
:func:`infer_effects` iterates to the (unique, finite) fixpoint.  The
property tests pin monotonicity and idempotence of ``relax`` there.

Two deliberate refinements:

- unresolved (⊤) call sites contribute *no* inferred effects — the seed
  tables are the compensating pessimism (see ``callgraph.py``);
- :data:`MUTATES_SELF` only flows across ``self.``-rooted call sites:
  "mutates its receiver" is receiver-relative, so a handler calling
  ``self._retire()`` inherits the taint while calling ``other.retire()``
  does not (that mutates *other*, not the handler's algorithm).
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.callgraph import CallGraph, CallSite
from repro.analysis.engine import FileContext
from repro.analysis.project import (
    FunctionInfo,
    FunctionNode,
    Project,
    dotted_name,
    receiver_root,
)

# --------------------------------------------------------------------- #
# The effect lattice
# --------------------------------------------------------------------- #

CLOCK = "reads-clock"
RANDOMNESS = "randomness"
STATE = "state-mutation"
#: Auxiliary, receiver-relative refinement of state mutation: the
#: function assigns/mutates attributes of its own ``self``.
MUTATES_SELF = "self-mutation"

PURE: FrozenSet[str] = frozenset()

# --------------------------------------------------------------------- #
# Seed facts (the one copy of every banned-name table)
# --------------------------------------------------------------------- #

_QUALIFIED_SEEDS: Dict[str, str] = {
    "time.time": CLOCK,
    "time.time_ns": CLOCK,
    "time.monotonic": CLOCK,
    "time.monotonic_ns": CLOCK,
    "os.urandom": RANDOMNESS,
    "random.SystemRandom": RANDOMNESS,
}

_DATETIME_ATTRS = ("now", "utcnow", "today")

#: The routed-protocol mutators: calling one of these advances the
#: algorithm/view state machine (cf. repro.kernel.dispatch).
PROTOCOL_MUTATORS = frozenset(
    {
        "dispatch_event",
        "on_update",
        "on_update_batch",
        "on_answer",
        "on_refresh",
        "apply_update",
        "apply_delta",
        "key_delete",
        "restore_pending_state",
    }
)

#: Container mutators that taint a ``self.``-rooted receiver.
_SELF_MUTATOR_LEAVES = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def seed_effects(raw: Optional[str]) -> FrozenSet[str]:
    """Effects a call site carries purely by its dotted callee name."""
    if raw is None:
        return PURE
    found: Set[str] = set()
    parts = raw.split(".")
    leaf = parts[-1]
    qualified = _QUALIFIED_SEEDS.get(raw)
    if qualified is not None:
        found.add(qualified)
    if (
        len(parts) >= 2
        and leaf in _DATETIME_ATTRS
        and parts[-2] in ("datetime", "date")
    ):
        found.add(CLOCK)
    if parts[0] == "random" and len(parts) == 2 and leaf != "Random":
        found.add(RANDOMNESS)
    if leaf in PROTOCOL_MUTATORS:
        found.add(STATE)
    return frozenset(found)


def self_mutations(nodes: Iterable[ast.AST]) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, what it does)`` for every node among ``nodes`` that
    mutates state rooted at ``self``: an assignment or ``del`` through a
    ``self`` chain, or a container mutator called on one."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if (
                callee is not None
                and "." in callee
                and callee.split(".")[-1] in _SELF_MUTATOR_LEAVES
                and receiver_root(node.func) == "self"
                and callee != "self.append"
            ):
                yield node, f"mutates via {callee}()"
            continue
        else:
            continue
        if any(
            isinstance(target, (ast.Attribute, ast.Subscript))
            and receiver_root(target) == "self"
            for target in targets
        ):
            verb = "deletes" if isinstance(node, ast.Delete) else "assigns"
            yield node, f"{verb} self state"


def intrinsic_effects(node: FunctionNode) -> FrozenSet[str]:
    """Effects the function's own syntax proves: mutating ``self``."""
    if next(self_mutations(ast.walk(node)), None) is None:
        return PURE
    return frozenset({MUTATES_SELF})


# --------------------------------------------------------------------- #
# Fixed-point propagation
# --------------------------------------------------------------------- #


EffectMap = Dict[str, FrozenSet[str]]


def base_effects(project: Project, graph: CallGraph) -> EffectMap:
    """Leaf facts only: intrinsics plus per-call-site seeds."""
    effects: EffectMap = {}
    for qualname, function in project.functions.items():
        found = set(intrinsic_effects(function.node))
        for site in graph.sites(qualname):
            found |= seed_effects(site.raw)
        effects[qualname] = frozenset(found)
    return effects


def flow_through(site: CallSite, callee_effects: FrozenSet[str]) -> FrozenSet[str]:
    """Effects that cross one call edge (receiver-relative filtering)."""
    if MUTATES_SELF in callee_effects and not site.self_receiver:
        return callee_effects - {MUTATES_SELF}
    return callee_effects


def relax(graph: CallGraph, effects: EffectMap) -> EffectMap:
    """One monotone step: join every function with its callees."""
    out: EffectMap = {}
    for qualname, current in effects.items():
        joined = set(current)
        for site in graph.sites(qualname):
            if site.target is None:
                continue
            joined |= flow_through(site, effects.get(site.target, PURE))
        out[qualname] = frozenset(joined)
    return out


def infer_effects(project: Project, graph: CallGraph) -> EffectMap:
    """Iterate :func:`relax` to the least fixed point."""
    effects = base_effects(project, graph)
    while True:
        relaxed = relax(graph, effects)
        if relaxed == effects:
            return effects
        effects = relaxed


# --------------------------------------------------------------------- #
# The bundle rules consume
# --------------------------------------------------------------------- #


class ProjectAnalysis:
    """Symbol table + call graph + inferred effects for one invocation."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: List[FileContext] = list(contexts)
        self.project = Project.build(self.contexts)
        self.graph = CallGraph.build(self.project)
        self.effects = infer_effects(self.project, self.graph)

    def call_effects(self, site: CallSite) -> FrozenSet[str]:
        """Seeded-by-name plus inferred-from-target effects of one call."""
        inferred = PURE
        if site.target is not None:
            inferred = self.effects.get(site.target, PURE)
        return seed_effects(site.raw) | flow_through(site, inferred)

    def functions_in(self, context: FileContext) -> Iterator[FunctionInfo]:
        for function in self.project.functions.values():
            if function.path == context.path:
                yield function

    def sites_of(self, function: FunctionInfo) -> List[CallSite]:
        return self.graph.sites(function.qualname)
