"""Algorithm registry: construct maintenance algorithms by name.

One registry covers both families: the single-source algorithms from the
paper's Sections 4-6 and the multi-source algorithms (Strobe, SWEEP,
FragmentingIncremental, multi-source SC) from the Section 7 follow-ups.
All of them speak the routed :class:`~repro.core.protocol.WarehouseAlgorithm`
protocol, so every kernel — and WAL recovery — rebuilds any of them by
name via :func:`create_algorithm`.  A run starts one from its sources via
:func:`build_algorithm`, the one place a family meets them.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Union, cast

from repro.core.basic import BasicAlgorithm
from repro.core.batch import BatchECA, DeferredECA
from repro.core.eca import ECA
from repro.core.eca_key import ECAKey
from repro.core.eca_local import ECALocal
from repro.core.lazy import LCA
from repro.core.protocol import WarehouseAlgorithm
from repro.core.recompute import RecomputeView
from repro.core.stored_copies import StoredCopies
from repro.kernel.dispatch import relation_owners
from repro.multisource.algorithms import (
    FragmentingIncremental,
    MultiSourceStoredCopies,
)
from repro.multisource.strobe import StrobeStyle
from repro.multisource.sweep import SweepStyle
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.views import View
from repro.source.base import Source

#: Name -> algorithm class, for every algorithm the paper discusses.
ALGORITHMS: Dict[str, type] = {
    BasicAlgorithm.name: BasicAlgorithm,
    BatchECA.name: BatchECA,
    DeferredECA.name: DeferredECA,
    ECA.name: ECA,
    ECAKey.name: ECAKey,
    ECALocal.name: ECALocal,
    LCA.name: LCA,
    RecomputeView.name: RecomputeView,
    StoredCopies.name: StoredCopies,
    FragmentingIncremental.name: FragmentingIncremental,
    MultiSourceStoredCopies.name: MultiSourceStoredCopies,
    StrobeStyle.name: StrobeStyle,
    SweepStyle.name: SweepStyle,
}


def create_algorithm(
    name: str,
    view: View,
    initial: Optional[SignedBag] = None,
    **options: Any,
) -> WarehouseAlgorithm:
    """Instantiate the named algorithm.

    ``options`` are forwarded to the constructor by keyword (e.g.
    ``period=5`` for ``"recompute"``, ``owners={...}`` for ``"strobe"``).
    """
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None
    return cast(WarehouseAlgorithm, cls(view, initial=initial, **options))


def build_algorithm(
    name: str,
    view: View,
    sources: Union[Source, Mapping[str, Source]],
    **options: Any,
) -> WarehouseAlgorithm:
    """Start the named algorithm from ``sources`` as they stand.

    The view starts as ``V`` over the union of the sources' snapshots,
    taken in the sources' order (``MV = V[ss_0]``); a stored-copies
    family starts its copies from that union; and the algorithm is bound
    to :func:`~repro.kernel.dispatch.relation_owners` of the sources, as
    every kernel binds it.  A lone source is named ``"source"``, as the
    kernels name it.  ``options`` go to the constructor as in
    :func:`create_algorithm`.
    """
    named = {"source": sources} if isinstance(sources, Source) else dict(sources)
    state: Dict[str, SignedBag] = {}
    for source in named.values():
        state.update(source.snapshot())
    if issubclass(ALGORITHMS.get(name, object), StoredCopies):
        options["initial_copies"] = state
    algorithm = create_algorithm(name, view, evaluate_view(view, state), **options)
    algorithm.bind_owners(relation_owners(named))
    return algorithm
