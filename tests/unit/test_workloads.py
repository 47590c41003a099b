"""Unit tests for workload generators and the canned paper scenarios."""

import pytest

from repro.costmodel.parameters import PaperParameters
from repro.relational.schema import RelationSchema
from repro.source.memory import MemorySource
from repro.workloads.example6 import (
    VALUE_DOMAIN,
    build_example6,
    example6_schemas,
    example6_view,
    selectivity_shift,
)
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import (
    ZipfSampler,
    random_workload,
    zipf_read_workload,
)


class TestExample6Schemas:
    def test_chain_schema(self):
        schemas = example6_schemas()
        assert [s.name for s in schemas] == ["r1", "r2", "r3"]
        assert schemas[0].attributes == ("W", "X")
        assert schemas[2].attributes == ("Y", "Z")

    def test_view_projects_w_z(self):
        view = example6_view()
        assert view.output_columns() == ("W", "Z")


class TestSelectivityShift:
    def test_half_is_zero_shift(self):
        assert selectivity_shift(0.5) == 0

    def test_extremes(self):
        assert selectivity_shift(0.0) == -VALUE_DOMAIN
        assert selectivity_shift(1.0) == VALUE_DOMAIN

    def test_monotone(self):
        shifts = [selectivity_shift(s / 10) for s in range(11)]
        assert shifts == sorted(shifts)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            selectivity_shift(1.5)

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.8])
    def test_empirical_selectivity(self, sigma):
        import random

        rng = random.Random(42)
        shift = selectivity_shift(sigma)
        n, hits = 20000, 0
        for _ in range(n):
            w = rng.randrange(VALUE_DOMAIN) + shift
            z = rng.randrange(VALUE_DOMAIN)
            if w > z:
                hits += 1
        assert abs(hits / n - sigma) < 0.03


class TestBuildExample6:
    def test_cardinalities_match_c(self):
        params = PaperParameters(cardinality=60)
        setup = build_example6(params, k=0)
        for name in ("r1", "r2", "r3"):
            assert len(setup.initial[name]) == 60

    def test_join_factor_honored(self):
        params = PaperParameters(cardinality=100, join_factor=4)
        setup = build_example6(params, k=0)
        from collections import Counter

        x_counts = Counter(row[0] for row in setup.initial["r2"])
        assert set(x_counts.values()) == {4}
        assert len(x_counts) == 25

    def test_workload_cycles_relations(self):
        setup = build_example6(PaperParameters(), k=6)
        relations = [u.relation for u in setup.workload]
        assert relations == ["r1", "r2", "r3", "r1", "r2", "r3"]
        assert all(u.is_insert for u in setup.workload)

    def test_workload_loads_into_source(self):
        setup = build_example6(PaperParameters(cardinality=20), k=3, seed=5)
        source = MemorySource(setup.schemas, setup.initial)
        for update in setup.workload:
            source.apply_update(update)
        assert source.cardinality("r1") == 21

    def test_reproducible_by_seed(self):
        a = build_example6(PaperParameters(), k=5, seed=9)
        b = build_example6(PaperParameters(), k=5, seed=9)
        assert a.initial == b.initial
        assert a.workload == b.workload

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            build_example6(PaperParameters(), k=-1)

    def test_empirical_selectivity_of_view(self):
        # sigma = 0.5 should yield roughly half of the joined tuples.
        from repro.relational.engine import evaluate_view

        params = PaperParameters(cardinality=100, selectivity=0.5)
        setup = build_example6(params, k=0, seed=3)
        source = MemorySource(setup.schemas, setup.initial)
        joined_all = evaluate_view(
            example6_view().__class__.natural_join(
                "Vall", example6_schemas(), ["W", "Z"]
            ),
            source.snapshot(),
        ).total_count()
        selected = evaluate_view(setup.view, source.snapshot()).total_count()
        assert joined_all > 0
        assert 0.3 < selected / joined_all < 0.7


class TestRandomWorkload:
    @pytest.fixture
    def schemas(self):
        return [
            RelationSchema("a", ("P", "Q"), key=("P",)),
            RelationSchema("b", ("Q", "R")),
        ]

    def test_length_and_validity(self, schemas):
        initial = {"a": [(0, 0)], "b": [(1, 1)]}
        workload = random_workload(schemas, 25, seed=3, initial=initial)
        source = MemorySource(schemas, initial)
        for update in workload:
            source.apply_update(update)  # must never raise
        assert len(workload) == 25

    def test_respect_keys_generates_unique_keys(self, schemas):
        workload = random_workload(
            schemas, 30, seed=1, delete_ratio=0.0, respect_keys=True, domain=40
        )
        keys = [u.values[0] for u in workload if u.relation == "a"]
        assert len(keys) == len(set(keys))

    def test_respect_keys_with_deletes_allows_reuse(self, schemas):
        initial = {"a": [(0, 0)], "b": []}
        workload = random_workload(
            schemas, 40, seed=2, initial=initial, respect_keys=True, domain=4
        )
        source = MemorySource(schemas, initial)
        live_keys = {(0,)}
        for update in workload:
            source.apply_update(update)
            if update.relation != "a":
                continue
            key = (update.values[0],)
            if update.is_insert:
                assert key not in live_keys
                live_keys.add(key)
            else:
                live_keys.discard(key)

    def test_delete_ratio_zero_means_inserts_only(self, schemas):
        workload = random_workload(schemas, 20, seed=4, delete_ratio=0.0)
        assert all(u.is_insert for u in workload)

    def test_invalid_delete_ratio(self, schemas):
        with pytest.raises(ValueError):
            random_workload(schemas, 5, delete_ratio=1.5)

    def test_negative_count_is_refused(self, schemas):
        with pytest.raises(ValueError, match="update count must be >= 0, got -1"):
            random_workload(schemas, -1)
        assert random_workload(schemas, 0) == []

    def test_reproducible(self, schemas):
        assert random_workload(schemas, 10, seed=6) == random_workload(
            schemas, 10, seed=6
        )


class TestZipfSampler:
    def test_reproducible_by_seed(self):
        a = ZipfSampler(10, 1.0, seed=7)
        b = ZipfSampler(10, 1.0, seed=7)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_ranks_stay_in_range(self):
        sampler = ZipfSampler(5, 2.0, seed=1)
        ranks = [sampler.sample() for _ in range(200)]
        assert all(0 <= r < 5 for r in ranks)

    def test_theta_zero_matches_randrange_stream(self):
        # The uniform special case must consume the RNG exactly like the
        # legacy randrange-based code paths it replaces (seeded replays).
        import random

        sampler = ZipfSampler(8, 0.0, seed=3)
        rng = random.Random(3)
        assert [sampler.sample() for _ in range(40)] == [
            rng.randrange(8) for _ in range(40)
        ]

    def test_skew_concentrates_on_rank_zero(self):
        from collections import Counter

        sampler = ZipfSampler(6, 3.0, seed=0)
        counts = Counter(sampler.sample() for _ in range(2000))
        assert counts[0] > counts[1] > counts[5]
        assert counts[0] / 2000 > 0.5

    def test_large_theta_is_the_hot_key_regime(self):
        sampler = ZipfSampler(4, 50.0, seed=2)
        assert {sampler.sample() for _ in range(300)} == {0}

    def test_shared_rng_is_used(self):
        import random

        rng = random.Random(11)
        sampler = ZipfSampler(5, 1.0, rng=rng)
        before = rng.getstate()
        sampler.sample()
        assert rng.getstate() != before

    def test_choose_maps_rank_zero_to_first_item(self):
        sampler = ZipfSampler(3, 50.0, seed=0)
        assert sampler.choose(["hot", "warm", "cold"]) == "hot"

    def test_choose_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ZipfSampler(3, 1.0).choose(["a", "b"])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(4, -0.5)

    def test_nan_theta_rejected(self):
        # ``nan < 0`` is false: a NaN skew once filled the CDF with NaNs.
        with pytest.raises(ValueError, match="zipf theta must be >= 0"):
            ZipfSampler(3, float("nan"))


class TestZipfReadWorkload:
    KEYS = [("V0", (w,)) for w in range(6)]

    def test_deterministic(self):
        a = zipf_read_workload(self.KEYS, 30, theta=1.2, seed=4)
        b = zipf_read_workload(self.KEYS, 30, theta=1.2, seed=4)
        assert a == b

    def test_draws_only_given_keys(self):
        reads = zipf_read_workload(self.KEYS, 50, theta=0.8, seed=1)
        assert len(reads) == 50
        assert set(reads) <= set(self.KEYS)

    def test_hot_key_varies_with_seed(self):
        # Rank order is shuffled per seed, so the hottest key is not
        # pinned to the lexicographically-first one.
        hot = {
            max(set(r), key=r.count)
            for r in (
                zipf_read_workload(self.KEYS, 80, theta=5.0, seed=s)
                for s in range(6)
            )
        }
        assert len(hot) > 1

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            zipf_read_workload([], 5)


class TestPaperScenarios:
    def test_all_eight_present(self):
        assert sorted(PAPER_EXAMPLES) == [
            "example-1",
            "example-2",
            "example-3",
            "example-4",
            "example-5",
            "example-7",
            "example-8",
            "example-9",
        ]

    def test_scenarios_are_well_formed(self):
        for scenario in PAPER_EXAMPLES.values():
            assert scenario.actions
            assert scenario.updates
            assert scenario.view.involves(scenario.updates[0].relation)
            assert scenario.paper_ref
            assert scenario.description

    def test_anomaly_examples_use_basic_algorithm(self):
        assert PAPER_EXAMPLES["example-2"].algorithm == "basic"
        assert PAPER_EXAMPLES["example-3"].algorithm == "basic"
        assert PAPER_EXAMPLES["example-5"].algorithm == "eca-key"
