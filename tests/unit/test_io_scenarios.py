"""Unit tests for the per-term I/O estimators.

The key assertions replicate Appendix D's per-query counts for Example 6
with the default parameters (C=100, J=4, K=20, so I=5, I'=3).
"""

import pytest

from repro.costmodel.io_scenarios import (
    IndexCatalog,
    Scenario1Estimator,
    Scenario2Estimator,
    example6_catalog,
)
from repro.costmodel.parameters import PaperParameters
from repro.relational import engine
from repro.relational.engine import join_plan
from repro.relational.expressions import Query
from repro.relational.tuples import SignedTuple
from repro.source.memory import MemorySource
from repro.workloads.example6 import build_example6, example6_schemas, example6_view


@pytest.fixture
def params():
    return PaperParameters()


@pytest.fixture
def source(params):
    """A source whose relations have exactly C=100 tuples each."""
    schemas = example6_schemas()
    src = MemorySource(schemas)
    for schema in schemas:
        src.load(schema.name, [(i, i) for i in range(params.C)])
    return src


@pytest.fixture
def view():
    return example6_view()


class TestIndexCatalog:
    def test_example6_catalog_contents(self):
        catalog = example6_catalog()
        assert catalog.kind("r1", "X") == "clustered"
        assert catalog.kind("r2", "Y") == "unclustered"
        assert catalog.kind("r3", "Z") is None

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            IndexCatalog({("r", "a"): "bitmap"})


class TestScenario1PerQuery:
    """Appendix D.3.1: IO(Q1)=1+J, IO(Q2)=2, IO(Q3)=2J for J < I."""

    def test_q1_update_on_r1(self, params, source, view):
        estimator = Scenario1Estimator(params)
        q1 = view.substitute("r1", SignedTuple((1, 2)))
        assert estimator.estimate_query(q1, source) == 1 + params.J  # 5

    def test_q2_update_on_r2(self, params, source, view):
        estimator = Scenario1Estimator(params)
        q2 = view.substitute("r2", SignedTuple((2, 3)))
        assert estimator.estimate_query(q2, source) == 2

    def test_q3_update_on_r3(self, params, source, view):
        estimator = Scenario1Estimator(params)
        q3 = view.substitute("r3", SignedTuple((3, 4)))
        assert estimator.estimate_query(q3, source) == 2 * params.J  # 8

    def test_three_updates_total_matches_paper(self, params, source, view):
        estimator = Scenario1Estimator(params)
        total = sum(
            estimator.estimate_query(view.substitute(rel, SignedTuple((1, 2))), source)
            for rel in ("r1", "r2", "r3")
        )
        assert total == 3 * min(params.I, params.J) + 3  # 15

    def test_large_join_factor_falls_back_to_scans(self, source, view):
        # I < J <= K (the regime of the paper's min(J, I) formula, which
        # assumes J <= K so a probe group fits one block): with J=10 the
        # optimizer scans instead of probing and total = 3I + 3 = 18.
        params = PaperParameters(join_factor=10)
        estimator = Scenario1Estimator(params)
        total = sum(
            estimator.estimate_query(view.substitute(rel, SignedTuple((1, 2))), source)
            for rel in ("r1", "r2", "r3")
        )
        assert total == 3 * params.I + 3

    def test_two_bound_compensation_terms(self, params, source, view):
        # pi(t1 |x| t2 |x| r3): one clustered probe = 1 I/O.
        estimator = Scenario1Estimator(params)
        q = view.substitute("r1", SignedTuple((1, 2))).substitute(
            "r2", SignedTuple((2, 3))
        )
        assert estimator.estimate_query(q, source) == 1

    def test_fully_bound_terms_cost_nothing(self, params, source, view):
        estimator = Scenario1Estimator(params)
        q = (
            view.substitute("r1", SignedTuple((1, 2)))
            .substitute("r2", SignedTuple((2, 3)))
            .substitute("r3", SignedTuple((3, 4)))
        )
        assert estimator.estimate_query(q, source) == 0

    def test_full_recompute_reads_all_relations(self, params, source, view):
        estimator = Scenario1Estimator(params)
        assert estimator.estimate_query(view.as_query(), source) == 3 * params.I

    def test_cardinality_sensitivity(self, params, view):
        # Smaller relations -> fewer blocks for the full recompute.
        schemas = example6_schemas()
        src = MemorySource(schemas)
        for schema in schemas:
            src.load(schema.name, [(i, i) for i in range(10)])
        estimator = Scenario1Estimator(params)
        assert estimator.estimate_query(view.as_query(), src) == 3  # ceil(10/20)=1 each


def fanning_out(rows, key, other):
    """A value of column ``key`` whose rows carry pairwise distinct values
    of column ``other`` — a probe from it fans out without overlap, as
    Scenario 1's ``m * J`` assumes."""
    for value in sorted({row[key] for row in rows}):
        found = [row[other] for row in rows if row[key] == value]
        if len(set(found)) == len(found):
            return value
    raise AssertionError("no value fans out")


class TestScenario1Executed:
    """Appendix D.3.1's terms of Example 6, run at a live ``MemorySource``
    over ``build_example6`` data: the engine expands each from its bound
    tuples in the order ``Scenario1Estimator`` charges, probing a kept
    hash index at every free step, and each probe fetches the
    ``result_count`` tuples the estimator charges for — J per resolved
    tuple."""

    @pytest.fixture
    def data(self, params):
        return build_example6(params, k=0).initial

    def terms(self, data):
        """(name, term) for V<r1>, V<r2>, V<r3> and the three two-bound
        compensating terms, on tuples whose join values occur in the data."""
        view = example6_view()
        x1 = fanning_out(data["r2"], 0, 1)  # r2 rows of X = x1: distinct Y
        y3 = fanning_out(data["r2"], 1, 0)  # r2 rows of Y = y3: distinct X
        x, y = data["r2"][0]
        t1, t2, t3 = SignedTuple((10**6, x)), SignedTuple((x, y)), SignedTuple((y, -1))

        def bind(**tuples):
            query = view.as_query()
            for relation, bound in tuples.items():
                query = query.substitute(relation, bound)
            [term] = query.terms
            return term

        return [
            ("Q1", bind(r1=SignedTuple((0, x1)))),
            ("Q2", bind(r2=t2)),
            ("Q3", bind(r3=SignedTuple((y3, 0)))),
            ("Q1<U2>", bind(r1=t1, r2=t2)),
            ("Q1<U3>", bind(r1=t1, r3=t3)),
            ("Q2<U3>", bind(r2=t2, r3=t3)),
        ]

    def test_each_term_is_expanded_as_scenario1_charges(self, params, data, monkeypatch):
        estimator = Scenario1Estimator(params)
        fetched = []
        real = engine.join_indices

        def probing(left, right, keys=(), buckets=None):
            assert buckets is not None, "a free relation was joined, not probed"
            pairs = real(left, right, keys, buckets)
            # Tuples of the free relation the probes read, once each.
            fetched.append(sum(right.counts[i] for i in set(pairs[1])))
            return pairs

        monkeypatch.setattr(engine, "join_indices", probing)
        source = MemorySource(example6_schemas(), data)
        for name, term in self.terms(data):
            mask = tuple(op.is_bound for op in term.operands)
            steps = estimator.expansion(term, source)
            plan = join_plan(term.shape, mask)
            order = [index for index, bound in enumerate(mask) if bound]
            assert [step.operand for step in plan.steps] == order + [
                index for index, _, _ in steps
            ], name
            fetched.clear()
            assert source.evaluate(Query([term])) == term.evaluate(source.snapshot())
            if name == "Q1<U3>":
                # Both of r2's neighbours are bound, so the engine probes
                # r2.X and r2.Y at once: of the J tuples Scenario 1 reads
                # through r2.X it returns those whose Y is t3's.
                assert [count for _, _, count in steps] == [params.J]
                x, y = data["r2"][0]
                assert fetched == [data["r2"].count((x, y))]
            else:
                assert fetched == [count for _, _, count in steps], name
                assert fetched[0] == params.J, name


class TestScenario2PerQuery:
    def test_full_recompute_is_i_cubed(self, params, source, view):
        estimator = Scenario2Estimator(params)
        assert estimator.estimate_query(view.as_query(), source) == params.I**3

    def test_one_bound_two_free(self, params, source, view):
        estimator = Scenario2Estimator(params)
        q = view.substitute("r1", SignedTuple((1, 2)))
        assert estimator.estimate_query(q, source) == params.I * params.I_prime

    def test_two_bound_one_free(self, params, source, view):
        estimator = Scenario2Estimator(params)
        q = view.substitute("r1", SignedTuple((1, 2))).substitute(
            "r3", SignedTuple((3, 4))
        )
        assert estimator.estimate_query(q, source) == params.I

    def test_fully_bound_costs_nothing(self, params, source, view):
        estimator = Scenario2Estimator(params)
        q = (
            view.substitute("r1", SignedTuple((1, 2)))
            .substitute("r2", SignedTuple((2, 3)))
            .substitute("r3", SignedTuple((3, 4)))
        )
        assert estimator.estimate_query(q, source) == 0

    def test_three_update_total_matches_paper(self, params, source, view):
        estimator = Scenario2Estimator(params)
        total = sum(
            estimator.estimate_query(view.substitute(rel, SignedTuple((1, 2))), source)
            for rel in ("r1", "r2", "r3")
        )
        assert total == 3 * params.I * params.I_prime  # 45
