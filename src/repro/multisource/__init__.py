"""Views over multiple autonomous sources — Section 7's open problem.

The paper closes by deferring multi-source views: "warehouse queries
(both regular queries and compensating queries) must be fragmented for
execution at multiple sources ... coordinating the query results and the
necessary compensations for anomaly-causing updates may require some
intricate algorithms."  (The authors' own follow-up work — Strobe,
SWEEP — confirmed this.)

This subpackage makes the difficulty *observable* — and then solves it
the way the authors eventually did
(:class:`~repro.multisource.strobe.StrobeStyle`, after the Strobe
algorithms of their 1996 follow-up):

- :mod:`repro.multisource.fragment` — fragments a term query by relation
  ownership and reassembles fragment answers at the warehouse;
- the driver is the shared :class:`repro.kernel.sync.SyncKernel`: one
  FIFO channel pair per source (per-source ordering only — there is no
  global order across sources, which is exactly what breaks ECA's
  deduction);
- :mod:`repro.multisource.algorithms` —
  :class:`FragmentingIncremental`, the single-source incremental
  algorithm transplanted with fragmentation (demonstrably anomalous even
  on interleavings where single-source ECA is safe), and
  :class:`MultiSourceStoredCopies`, the SC strategy, which remains
  complete because it never queries the sources at all;
- :mod:`repro.multisource.strobe` — :class:`StrobeStyle`, a *correct*
  query-based algorithm for key-complete views (action list, delete
  filters, quiescent apply);
- :mod:`repro.multisource.sweep` — :class:`SweepStyle`, a correct
  query-based algorithm with **no key requirement** (sequential
  per-relation sweeps, locally computed interference corrections).

There is no global order of source states across sources, so a run is
judged over *cuts* — one prefix of each source's history — by the one
checker, :func:`repro.consistency.check_cuts`, at every level of
Section 3.1.  Asserted on the property workloads: SWEEP and stored
copies are complete, Strobe strongly consistent (complete on most runs,
not all), and the fragmenting transplant falls below consistent on some.

The integration tests quantify the failure: fragments of one query are
evaluated against *different* global states, an effect no per-source
compensation can see.
"""

from repro.multisource.algorithms import FragmentingIncremental, MultiSourceStoredCopies
from repro.multisource.fragment import FragmentPlan, fragment_query
from repro.multisource.strobe import StrobeStyle
from repro.multisource.sweep import SweepStyle

__all__ = [
    "FragmentPlan",
    "FragmentingIncremental",
    "MultiSourceStoredCopies",
    "StrobeStyle",
    "SweepStyle",
    "fragment_query",
]
