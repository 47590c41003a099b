"""Measured costs: the recorder the simulation driver feeds.

Accounting follows Section 6's conventions exactly:

- ``M`` counts query and answer messages only — "identical update
  notification messages are sent to the warehouse [in RV and ECA], so
  these costs are not included".
- ``B`` counts bytes flowing source -> warehouse in answers: ``S`` bytes
  per answer tuple (Table 1's "size of projected attributes").
- ``IO`` is charged per evaluated source term by a pluggable scenario
  estimator (:mod:`repro.costmodel.io_scenarios`); pass ``None`` to skip
  I/O accounting.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.costmodel.parameters import PaperParameters
from repro.messaging.messages import QueryAnswer, QueryRequest
from repro.relational.expressions import Query
from repro.source.base import Source


class CostRecorder:
    """Accumulates M, B, and IO over one simulation run."""

    def __init__(
        self,
        params: Optional[PaperParameters] = None,
        io_estimator: Optional[object] = None,
    ) -> None:
        self.params = params if params is not None else PaperParameters()
        self.io_estimator = io_estimator
        self.query_messages = 0
        self.answer_messages = 0
        self.answer_tuples = 0
        self.bytes_transferred = 0
        self.io_count = 0
        self.terms_evaluated = 0

    # ------------------------------------------------------------------ #
    # Hooks called by the driver
    # ------------------------------------------------------------------ #

    def record_request(self, request: QueryRequest) -> None:
        self.query_messages += 1

    def record_answer(self, answer: QueryAnswer) -> None:
        self.answer_messages += 1
        tuples = answer.answer.total_count()
        self.answer_tuples += tuples
        self.bytes_transferred += tuples * self.params.S

    def message_size(self, message: object) -> int:
        """On-the-wire bytes of one message, per Section 6's conventions.

        Only answer payloads are charged (``S`` bytes per tuple); requests
        and update notifications are size 0, mirroring :attr:`bytes`.
        Usable as a :class:`~repro.messaging.channel.FifoChannel` sizer, so
        ``channel.sent_bytes`` reproduces the ``B`` metric on the wire.
        """
        if isinstance(message, QueryAnswer):
            return message.answer.total_count() * self.params.S
        return 0

    def record_evaluation(self, query: Query, source: Source) -> None:
        self.terms_evaluated += query.term_count()
        if self.io_estimator is not None:
            self.io_count += self.io_estimator.estimate_query(query, source)

    # ------------------------------------------------------------------ #
    # The paper's metrics
    # ------------------------------------------------------------------ #

    @property
    def messages(self) -> int:
        """``M`` — query plus answer messages."""
        return self.query_messages + self.answer_messages

    @property
    def bytes(self) -> int:
        """``B`` — answer bytes (source -> warehouse)."""
        return self.bytes_transferred

    @property
    def ios(self) -> int:
        """``IO`` — estimated I/Os performed at the source."""
        return self.io_count

    def summary(self) -> Dict[str, int]:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "ios": self.ios,
            "answer_tuples": self.answer_tuples,
            "terms_evaluated": self.terms_evaluated,
        }

    def __repr__(self) -> str:
        return (
            f"CostRecorder(M={self.messages}, B={self.bytes}, IO={self.ios})"
        )
