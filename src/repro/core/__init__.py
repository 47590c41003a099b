"""Warehouse view-maintenance algorithms — the paper's contribution.

All algorithms speak the same protocol (:class:`WarehouseAlgorithm`): the
simulation driver feeds them update notifications and query answers, and
they emit query requests and maintain the materialized view.

===========================  =============================================
Algorithm                    Paper reference / properties
===========================  =============================================
:class:`BasicAlgorithm`      Algorithm 5.1 ([BLT86] adapted); *anomalous* —
                             neither convergent nor weakly consistent.
:class:`ECA`                 Algorithm 5.2, Eager Compensating Algorithm;
                             strongly consistent (Appendix B).
:class:`ECAKey`              Section 5.4; requires keys in the view;
                             local deletes, no compensating queries.
:class:`ECALocal`            Section 5.5 (sketch); local handling when
                             safe, compensation otherwise.
:class:`LCA`                 Section 5.3 (sketch), Lazy Compensating
                             Algorithm; complete.
:class:`RecomputeView`       Algorithm D.1 (RV); periodic recomputation.
:class:`StoredCopies`        Section 1.2 (SC); full base-relation copies
                             at the warehouse; complete, no queries.
===========================  =============================================
"""

from repro.core.basic import BasicAlgorithm
from repro.core.batch import BatchECA, DeferredECA
from repro.core.compensation import (
    backdate,
    batch_delta_query,
    staged_compensation,
)
from repro.core.eca import ECA
from repro.core.eca_key import ECAKey
from repro.core.eca_local import ECALocal
from repro.core.lazy import LCA
from repro.core.protocol import WarehouseAlgorithm
from repro.core.recompute import RecomputeView
from repro.core.registry import ALGORITHMS, build_algorithm, create_algorithm
from repro.core.stored_copies import StoredCopies

__all__ = [
    "ALGORITHMS",
    "BasicAlgorithm",
    "BatchECA",
    "DeferredECA",
    "ECA",
    "ECAKey",
    "ECALocal",
    "LCA",
    "RecomputeView",
    "StoredCopies",
    "WarehouseAlgorithm",
    "backdate",
    "batch_delta_query",
    "build_algorithm",
    "create_algorithm",
    "staged_compensation",
]
