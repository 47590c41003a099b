"""Correctness hierarchy of Section 3.1, checked over the cuts of a run's
source histories, plus the staleness (freshness-lag) profile."""

from repro.consistency.checker import ConsistencyReport, Witness, check_cuts, check_trace
from repro.consistency.staleness import StalenessReport, staleness_profile

__all__ = [
    "ConsistencyReport",
    "StalenessReport",
    "Witness",
    "check_cuts",
    "check_trace",
    "staleness_profile",
]
