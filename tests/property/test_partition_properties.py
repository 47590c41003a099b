"""Property tests: partitioners are total, stable, pure functions of the key.

These are the properties routing and recovery lean on (see
``repro.sharding.partition``): every key lands on exactly one shard in
range, the same key lands on the same shard in every process and every
instance, and range layouts respect key order.  Hypothesis drives the
key universe; nothing here depends on interleavings or the runtime.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import (
    ExplicitPartitioner,
    HashPartitioner,
    RangePartitioner,
    make_partitioner,
)

# View keys as the harness builds them: 1-tuples of short names.  Text
# covers the realistic alphabet; integers check non-string key parts.
key_parts = st.one_of(
    st.text(min_size=0, max_size=12),
    st.integers(-(10**6), 10**6),
)
view_keys = st.tuples(key_parts)
# Range layouts need a totally ordered key universe (mixed int/str keys
# do not compare), so their strategies stay within text keys — matching
# real catalogs, where keys are ``(view_name,)``.
text_keys = st.tuples(st.text(max_size=8))
shard_counts = st.integers(1, 16)


@settings(max_examples=100, deadline=None)
@given(view_keys, shard_counts)
def test_hash_total_and_in_range(key, shards):
    assert 0 <= HashPartitioner(shards).shard_of(key) < shards


@settings(max_examples=100, deadline=None)
@given(view_keys, shard_counts)
def test_hash_stable_across_instances_and_calls(key, shards):
    first = HashPartitioner(shards)
    second = HashPartitioner(shards)
    assert first.shard_of(key) == second.shard_of(key) == first.shard_of(key)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=8)), min_size=1, max_size=12))
def test_hash_ignores_placement_history(keys):
    """shard_of is a pure function: past calls never change the answer."""
    p = HashPartitioner(4)
    before = [p.shard_of(k) for k in keys]
    after = [p.shard_of(k) for k in reversed(keys)]
    assert before == list(reversed(after))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.text(max_size=8)), unique=True, min_size=0, max_size=6),
    text_keys,
)
def test_range_total_in_range_and_monotone(boundaries, key):
    ordered = sorted(boundaries)
    p = RangePartitioner(ordered)
    shard = p.shard_of(key)
    assert 0 <= shard < len(ordered) + 1
    # Order-preserving: the shard is exactly the count of boundaries <= key.
    assert shard == sum(1 for b in ordered if b <= tuple(key))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.text(max_size=8)), unique=True, min_size=2, max_size=10),
    text_keys,
    text_keys,
)
def test_range_respects_key_order(boundaries, a, b):
    p = RangePartitioner(sorted(boundaries))
    low, high = sorted([tuple(a), tuple(b)])
    assert p.shard_of(low) <= p.shard_of(high)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.text(max_size=8)), st.integers(0, 7), min_size=1, max_size=12
    )
)
def test_explicit_reproduces_its_table(assignment):
    p = ExplicitPartitioner(assignment)
    for key, shard in assignment.items():
        assert p.shard_of(key) == shard


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.text(max_size=8)), unique=True, min_size=1, max_size=16),
    shard_counts,
)
def test_make_partitioner_specs_are_total_over_their_universe(keys, shards):
    """Both CLI specs place every catalog key in range, deterministically."""
    hash_p = make_partitioner("hash", shards, keys)
    assert all(0 <= hash_p.shard_of(k) < shards for k in keys)
    if len(keys) >= shards:
        range_p = make_partitioner("range", shards, keys)
        placed = [range_p.shard_of(k) for k in sorted(keys)]
        assert all(0 <= shard < shards for shard in placed)
        assert placed == sorted(placed)  # contiguous runs in key order
        twin = make_partitioner("range", shards, list(reversed(keys)))
        assert [twin.shard_of(k) for k in keys] == [
            range_p.shard_of(k) for k in keys
        ]  # boundary derivation is insensitive to key presentation order
