"""The repo benchmark: five warehouse workloads, end to end and per layer.

A package so that its modules import as ``bench.<name>``: ``bench/trace.py``
must never shadow the standard library's ``trace``.  ``README.md`` says how
to run it; ``../BENCHMARK.json`` is generated from :mod:`bench.metrics`.
"""

import os
import sys

#: The program under test is measured from source, not from an install.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(1, SRC)
