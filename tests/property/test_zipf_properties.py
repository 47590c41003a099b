"""Property tests for the Zipf hot-key generator (``repro.workloads``).

The serving read mixes and the hot-key experiment (E12) both lean
on :class:`ZipfSampler` being (a) a real probability distribution over
``[0, n)``, (b) monotone — lower ranks never less likely than higher
ones — and (c) a pure function of ``(n, theta, seed)`` so seeded
replays reproduce byte-identical workloads.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.random_gen import ZipfSampler, zipf_read_workload

ns = st.integers(1, 12)
thetas = st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**16)


@given(ns, thetas, seeds)
def test_samples_always_in_range(n, theta, seed):
    sampler = ZipfSampler(n, theta, seed=seed)
    assert all(0 <= sampler.sample() < n for _ in range(30))


@given(ns, thetas, seeds)
def test_same_triple_same_sequence(n, theta, seed):
    a = ZipfSampler(n, theta, seed=seed)
    b = ZipfSampler(n, theta, seed=seed)
    assert [a.sample() for _ in range(30)] == [b.sample() for _ in range(30)]


@given(ns, seeds)
def test_theta_zero_is_the_legacy_uniform_stream(n, seed):
    sampler = ZipfSampler(n, 0.0, seed=seed)
    rng = random.Random(seed)
    assert [sampler.sample() for _ in range(30)] == [
        rng.randrange(n) for _ in range(30)
    ]


@settings(max_examples=30)
@given(st.integers(2, 10), st.floats(0.5, 6.0), seeds)
def test_empirical_frequencies_are_monotone_in_rank(n, theta, seed):
    # With enough draws, observed counts must not *grossly* invert the
    # rank order: rank 0 is at least as common as the last rank.
    sampler = ZipfSampler(n, theta, seed=seed)
    counts = [0] * n
    for _ in range(600):
        counts[sampler.sample()] += 1
    assert counts[0] >= counts[-1]


@given(st.integers(1, 10), st.integers(0, 40), thetas, seeds)
def test_read_workload_is_deterministic_and_closed(n, count, theta, seed):
    keys = [("V", (i,)) for i in range(n)]
    a = zipf_read_workload(keys, count, theta=theta, seed=seed)
    b = zipf_read_workload(keys, count, theta=theta, seed=seed)
    assert a == b
    assert len(a) == count
    assert set(a) <= set(keys)
