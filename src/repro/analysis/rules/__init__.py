"""Built-in rules; importing this package registers all of them.

===========  ==========================================================
RPR002       determinism: no wall-clock / unseeded randomness in repro
RPR003       async-safety: no blocking calls inside actor coroutines
RPR009       hot-path: no per-tuple wrappers in relational operator loops
RPR012       exception-safety: handlers validate before mutating state
===========  ==========================================================

Every rule has the same shape: one ``check(analysis)`` over the
whole-program model (:class:`~repro.analysis.effects.ProjectAnalysis`).
RPR002, RPR003 and RPR009 walk the ASTs in ``analysis.contexts``;
RPR012 walks the call sites and their inferred effects.  The
banned-name tables live once, in :mod:`repro.analysis.effects`.  Each
rule guards an invariant no test that runs the code would catch;
rationale, examples and the retired rules live in ``docs/ANALYSIS.md``.
"""

from repro.analysis.rules import (  # noqa: F401  (import = register)
    async_safety,
    determinism,
    exception_safety,
    hot_path,
)
