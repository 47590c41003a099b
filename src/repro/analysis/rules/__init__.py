"""Built-in rules; importing this package registers all of them.

===========  ==========================================================
RPR001       routed-protocol: ``on_*`` overrides return routed pairs
RPR002       determinism: no wall-clock / unseeded randomness in repro
RPR003       async-safety: no blocking calls inside actor coroutines
RPR004       dispatch-bypass: algorithms never touch channels directly
RPR005       obs-guard: observability hooks dominated by None checks
RPR006       registry-completeness: every algorithm honors codec v3
RPR007       partitioner-purity: ``shard_of`` is pure in the key
RPR008       serving-readonly: the serving tier never writes state
RPR009       hot-path: no per-tuple wrappers in relational operator loops
RPR010       planner-purity: shared-compensation planning is deterministic
RPR012       exception-safety: handlers validate before mutating state
===========  ==========================================================

Every rule has the same shape: one ``check(analysis)`` over the
whole-program model (:class:`~repro.analysis.effects.ProjectAnalysis`).
The syntactic rules (RPR001/002/003/005/008/009) walk the ASTs in
``analysis.contexts``; RPR004, RPR007, RPR010 and RPR012 walk
the call sites and their inferred effects; RPR006 inspects the live
registry.  The banned-name tables live once, in
:mod:`repro.analysis.effects`.  Rationale and per-rule examples live in
``docs/ANALYSIS.md``.
"""

from repro.analysis.rules import (  # noqa: F401  (import = register)
    async_safety,
    determinism,
    dispatch_bypass,
    exception_safety,
    hot_path,
    obs_guard,
    planner_purity,
    purity,
    registry_complete,
    routed,
    serving_readonly,
)
