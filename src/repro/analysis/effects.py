"""Whole-program effect inference over the call graph.

Each project function gets a set of *effects* — the lattice is the
powerset of :data:`EFFECTS` ordered by inclusion, with ``pure`` as the
empty set and join = union.  Leaf facts come from two places:

- **seed tables**: the banned-name tables (``time.time`` reads the
  clock, ``random.*`` is randomness, ``.send()`` is channel I/O,
  ``dispatch_event``/``on_update`` mutate algorithm state).  They are
  defined here and nowhere else — the rules consult them through
  :func:`seed_effects`.
  Seeds apply at *call sites by name*, so they fire whether or not the
  callee resolves;
- **intrinsics**: syntax inside the function body itself (``raise``
  statements, assignments and container mutators rooted at ``self``).

Propagation is a textbook monotone fixed point: one :func:`relax` step
joins every function's effects with its resolved callees' effects, and
:func:`infer_effects` iterates to the (unique, finite) fixpoint.  The
property tests pin monotonicity and idempotence of ``relax`` there.

Two deliberate refinements:

- unresolved (⊤) call sites contribute *no* inferred effects — the seed
  tables are the compensating pessimism (see ``callgraph.py``);
- :data:`MUTATES_SELF` only flows across ``self.``-rooted call sites:
  "mutates its receiver" is receiver-relative, so ``shard_of`` calling
  ``self._bump()`` inherits the taint while calling ``other.bump()``
  does not (that mutates *other*, not the partitioner).

Every inferred effect carries a :class:`Witness` so rule messages can
show the chain (``plan → _delay → _jitter → time.time()``) instead of a
bare verdict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
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
IO = "io"
CHANNEL = "channel-send"
STATE = "state-mutation"
#: Auxiliary, receiver-relative refinement of state mutation: the
#: function assigns/mutates attributes of its own ``self``.
MUTATES_SELF = "self-mutation"
RAISES = "raises"

EFFECTS: Tuple[str, ...] = (
    CLOCK,
    RANDOMNESS,
    IO,
    CHANNEL,
    STATE,
    MUTATES_SELF,
    RAISES,
)

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
    # builtin hash() is process-salted: a purity hazard of the same
    # shape as randomness (RPR007/RPR010's rationale).
    "hash": RANDOMNESS,
    "open": IO,
    "io.open": IO,
    "os.system": IO,
    "time.sleep": IO,
    "input": IO,
    "print": IO,
}

_DATETIME_ATTRS = ("now", "utcnow", "today")

#: Leaf names whose *call* performs channel I/O (cf. RPR004).
_CHANNEL_LEAVES = frozenset({"send", "receive", "recv", "receive_nowait"})

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
    if parts[0] == "subprocess":
        found.add(IO)
    if leaf == "FifoChannel":
        found.add(CHANNEL)
    if len(parts) >= 2 and leaf in _CHANNEL_LEAVES:
        found.add(CHANNEL)
    if leaf in PROTOCOL_MUTATORS:
        found.add(STATE)
    return frozenset(found)


def purity_delta(raw: Optional[str]) -> FrozenSet[str]:
    """What the purity rules (RPR007/RPR010) ban on top of the seeds:
    *any* ``time.*`` call is a clock (``perf_counter`` included) and
    *any* ``random.*`` call is randomness — a seeded RNG's output still
    depends on call order."""
    head = (raw or "").split(".")[0]
    return frozenset(
        {"time": {CLOCK}, "random": {RANDOMNESS}}.get(head, ())
    )


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


def intrinsic_effects(node: FunctionNode) -> Dict[str, int]:
    """Effect → first line, from the function's own syntax."""
    found: Dict[str, int] = {}
    nodes = list(ast.walk(node))
    for child in nodes:
        if isinstance(child, ast.Raise):
            found.setdefault(RAISES, child.lineno)
    for child, _what in self_mutations(nodes):
        found.setdefault(MUTATES_SELF, child.lineno)
    return found


# --------------------------------------------------------------------- #
# Fixed-point propagation
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Witness:
    """Why a function carries an effect: one step of the explanation."""

    kind: str  # "seed" | "intrinsic" | "call"
    detail: str  # seeded name / syntax note / callee qualname
    line: int


EffectMap = Dict[str, FrozenSet[str]]
WitnessMap = Dict[Tuple[str, str], Witness]


def base_effects(
    project: Project, graph: CallGraph
) -> Tuple[EffectMap, WitnessMap]:
    """Leaf facts only: intrinsics plus per-call-site seeds."""
    effects: EffectMap = {}
    witnesses: WitnessMap = {}
    for qualname, function in project.functions.items():
        found: Set[str] = set()
        for effect, line in intrinsic_effects(function.node).items():
            found.add(effect)
            witnesses.setdefault(
                (qualname, effect), Witness("intrinsic", "own body", line)
            )
        for site in graph.sites(qualname):
            for effect in seed_effects(site.raw):
                witnesses.setdefault(
                    (qualname, effect),
                    Witness("seed", site.raw or "<call>", site.line),
                )
                found.add(effect)
        effects[qualname] = frozenset(found)
    return effects, witnesses


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


def infer_effects(
    project: Project, graph: CallGraph
) -> Tuple[EffectMap, WitnessMap]:
    """Iterate :func:`relax` to the least fixed point, with witnesses."""
    base, witnesses = base_effects(project, graph)
    effects_mut = {qualname: set(found) for qualname, found in base.items()}
    changed = True
    while changed:
        changed = False
        for qualname in effects_mut:
            current = effects_mut[qualname]
            for site in graph.sites(qualname):
                if site.target is None:
                    continue
                incoming = flow_through(
                    site,
                    frozenset(effects_mut.get(site.target, PURE)),
                )
                for effect in incoming - current:
                    witnesses.setdefault(
                        (qualname, effect),
                        Witness("call", site.target, site.line),
                    )
                    current.add(effect)
                    changed = True
    return (
        {qualname: frozenset(found) for qualname, found in effects_mut.items()},
        witnesses,
    )


# --------------------------------------------------------------------- #
# The bundle rules consume
# --------------------------------------------------------------------- #


class ProjectAnalysis:
    """Symbol table + call graph + inferred effects for one invocation."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: List[FileContext] = list(contexts)
        self.project = Project.build(self.contexts)
        self.graph = CallGraph.build(self.project)
        self.effects, self.witnesses = infer_effects(self.project, self.graph)

    def effects_of(self, qualname: Optional[str]) -> FrozenSet[str]:
        if qualname is None:
            return PURE
        return self.effects.get(qualname, PURE)

    def call_effects(self, site: CallSite) -> FrozenSet[str]:
        """Seeded-by-name plus inferred-from-target effects of one call."""
        return seed_effects(site.raw) | flow_through(
            site, self.effects_of(site.target)
        )

    def explain(self, site: CallSite, effect: str) -> str:
        """Why ``site`` carries ``effect``: the seeded name itself for a
        direct violation (``time.time (line 14)``), else the witness
        chain through its target (``_delay -> _jitter -> time.time
        (line 11)``)."""
        if site.target is not None and effect in self.effects_of(site.target):
            return f"{site.raw} -> {self.describe(site.target, effect)}"
        return f"{site.raw} (line {site.line})"

    def functions_in(self, context: FileContext) -> Iterator[FunctionInfo]:
        for function in self.project.functions.values():
            if function.path == context.path:
                yield function

    def sites_of(self, function: FunctionInfo) -> List[CallSite]:
        return self.graph.sites(function.qualname)

    def describe(self, qualname: str, effect: str) -> str:
        """The witness chain, e.g. ``_delay → _jitter → time.time (line 6)``."""
        steps: List[str] = []
        current = qualname
        for _ in range(len(self.effects) + 1):
            witness = self.witnesses.get((current, effect))
            if witness is None:
                break
            if witness.kind == "call":
                short = _short(witness.detail)
                steps.append(short)
                current = witness.detail
                continue
            steps.append(f"{witness.detail} (line {witness.line})")
            break
        return " -> ".join(steps) if steps else effect


def _short(qualname: str) -> str:
    """Trailing ``Class.method`` / ``function`` segment for messages."""
    parts = qualname.split(".")
    if len(parts) >= 2 and parts[-2][:1].isupper():
        return ".".join(parts[-2:])
    return parts[-1]
