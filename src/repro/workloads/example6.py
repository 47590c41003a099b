"""Example 6 — the paper's representative performance scenario.

Base relation schema:  ``r1(W, X), r2(X, Y), r3(Y, Z)``
View definition:       ``V = pi_{W,Z}(sigma_cond(r1 |x| r2 |x| r3))``
Condition:             a comparison between ``W`` and ``Z`` (e.g. W > Z),
                       so the selection cannot be pushed below the join —
                       this matters for the I/O analysis.
Updates:               single-tuple inserts hitting the three relations
                       with equal frequency.

Data is generated to honor Table 1's parameters:

- each relation holds ``C`` tuples;
- every join-attribute value appears exactly ``J`` times per relation
  (join factor), drawn from a domain of ``C / J`` distinct values;
- ``W`` and ``Z`` are uniform over a large domain, shifted so that
  ``P(W + shift > Z)`` equals the selection factor ``sigma``
  (:func:`selectivity_shift`).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.costmodel.parameters import PaperParameters
from repro.relational.conditions import Attr, Comparison, Condition
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.updates import Update, insert
from repro.workloads.random_gen import ZipfSampler

#: Domain size for the W and Z attributes.
VALUE_DOMAIN = 1000


def example6_schemas() -> List[RelationSchema]:
    """``r1(W, X), r2(X, Y), r3(Y, Z)``."""
    return [
        RelationSchema("r1", ("W", "X")),
        RelationSchema("r2", ("X", "Y")),
        RelationSchema("r3", ("Y", "Z")),
    ]


def selectivity_shift(sigma: float, domain: int = VALUE_DOMAIN) -> int:
    """Shift ``a`` such that ``P(W + a > Z) ~ sigma`` for iid uniform W, Z.

    With W, Z uniform over ``[0, domain)``, ``P(W - Z > t)`` is the tail of
    a triangular distribution; inverting it gives::

        sigma <= 1/2:  a = -domain * (1 - sqrt(2 * sigma))
        sigma >  1/2:  a =  domain * (1 - sqrt(2 * (1 - sigma)))
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must be in [0, 1], got {sigma}")
    if sigma <= 0.5:
        return -round(domain * (1.0 - math.sqrt(2.0 * sigma)))
    return round(domain * (1.0 - math.sqrt(2.0 * (1.0 - sigma))))


def example6_view(params: PaperParameters = None) -> View:
    """The Example 6 view: ``pi_{W,Z}(sigma_{W>Z}(r1 |x| r2 |x| r3))``.

    The condition is fixed at ``W > Z``; the *data generator* shifts the W
    column by :func:`selectivity_shift` so the condition selects with
    probability ``sigma`` (arithmetic inside conditions is out of our
    comparison grammar, and shifting the data is equivalent).
    """
    condition: Condition = Comparison(Attr("W"), ">", Attr("Z"))
    return View.natural_join("V", example6_schemas(), ["W", "Z"], condition)


def _join_column(count: int, distinct: int, rng: random.Random) -> List[int]:
    """``count`` values over ``distinct`` symbols, each ~``count/distinct``
    times, in random order — a constant-join-factor column."""
    per = count // distinct
    values: List[int] = []
    for symbol in range(distinct):
        values.extend([symbol] * per)
    while len(values) < count:
        values.append(rng.randrange(distinct))
    rng.shuffle(values)
    return values


class Example6Setup:
    """Everything needed to run the Example 6 scenario at scale.

    Attributes
    ----------
    schemas, view:
        The three base relations and the maintained view.
    initial:
        relation name -> list of rows (the pre-loaded base data).
    workload:
        ``k`` single-tuple inserts cycling over r1, r2, r3.
    params:
        The Table 1 parameters used to generate the data.
    """

    def __init__(
        self,
        schemas: List[RelationSchema],
        view: View,
        initial: Dict[str, List[Tuple[object, ...]]],
        workload: List[Update],
        params: PaperParameters,
    ) -> None:
        self.schemas = schemas
        self.view = view
        self.initial = initial
        self.workload = workload
        self.params = params


def build_example6(
    params: PaperParameters,
    k: int,
    seed: int = 0,
    key_theta: Optional[float] = None,
) -> Example6Setup:
    """Generate data and a k-insert workload matching ``params``.

    The W column is shifted by :func:`selectivity_shift` so that the fixed
    condition ``W > Z`` selects with probability ``sigma``.  Skewing the
    inserted tuples' join keys toward hot values is the regime where
    compensating queries return real tuples (uniform random keys rarely
    collide within a run); ``key_theta`` draws keys Zipf-distributed over
    the join domain via :class:`~repro.workloads.random_gen.ZipfSampler`
    (``key_theta=0.0`` is uniform and consumes the RNG stream exactly like
    the default).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rng = random.Random(seed)
    C, J = params.C, params.J
    distinct = max(1, C // J)
    shift = selectivity_shift(params.sigma)
    sampler = (
        ZipfSampler(distinct, key_theta, rng=rng) if key_theta is not None else None
    )

    def draw_key() -> int:
        if sampler is not None:
            return sampler.sample()
        return rng.randrange(distinct)

    def draw_w() -> int:
        return rng.randrange(VALUE_DOMAIN) + shift

    def draw_z() -> int:
        return rng.randrange(VALUE_DOMAIN)

    x_r1 = _join_column(C, distinct, rng)
    x_r2 = _join_column(C, distinct, rng)
    y_r2 = _join_column(C, distinct, rng)
    y_r3 = _join_column(C, distinct, rng)
    initial: Dict[str, List[Tuple[object, ...]]] = {
        "r1": [(draw_w(), x_r1[i]) for i in range(C)],
        "r2": [(x_r2[i], y_r2[i]) for i in range(C)],
        "r3": [(y_r3[i], draw_z()) for i in range(C)],
    }

    workload: List[Update] = []
    for index in range(k):
        relation = ("r1", "r2", "r3")[index % 3]
        if relation == "r1":
            row: Tuple[object, ...] = (draw_w(), draw_key())
        elif relation == "r2":
            row = (draw_key(), draw_key())
        else:
            row = (draw_key(), draw_z())
        workload.append(insert(relation, row))

    return Example6Setup(
        example6_schemas(), example6_view(params), initial, workload, params
    )

