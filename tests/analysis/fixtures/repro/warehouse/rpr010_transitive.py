"""Fixture: RPR010 transitive planner impurity (deliberately broken).

The planner itself calls only a local helper; the wall clock sits two
hops down the call chain, where no single-file check can see it.
"""

import time


def _jitter():
    return time.time() % 1.0  # RPR002: the only *direct* violation here


def _delay(base):
    return base + _jitter()


class BackoffPlanner:
    def plan(self, members):
        # RPR010 (through the call graph): plan -> _delay -> _jitter -> clock
        return sorted(members)[: int(_delay(1.0))]


class LegalPlanner:
    def plan(self, members):
        return sorted(members)
