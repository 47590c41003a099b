"""Workload construction: schemas, data, update streams, paper scenarios."""

from repro.workloads.example6 import (
    Example6Setup,
    build_example6,
    example6_schemas,
    example6_view,
    selectivity_shift,
)
from repro.workloads.paper_examples import PAPER_EXAMPLES, Scenario
from repro.workloads.random_gen import (
    ZipfSampler,
    random_workload,
    zipf_read_workload,
)

__all__ = [
    "Example6Setup",
    "PAPER_EXAMPLES",
    "Scenario",
    "ZipfSampler",
    "build_example6",
    "example6_schemas",
    "example6_view",
    "random_workload",
    "selectivity_shift",
    "zipf_read_workload",
]
