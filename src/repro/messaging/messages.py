"""Message types exchanged between source and warehouse."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.source.updates import Update


class Message:
    """Base class for protocol messages (useful for isinstance dispatch).

    Messages compare structurally (and hash consistently): two messages
    are equal when they have the same type and the same field values.
    The write-ahead log's replay machinery and the tests rely on this to
    compare logged messages against live ones directly.

    ``encoded`` is the durability codec's rendering of the message, a memo
    slot filled by the first wire frame or WAL record that writes it.  It
    is the base class's slot, not a field: :meth:`_fields` reads the
    subclass's ``__slots__`` only, so equality and hashing ignore it.
    """

    __slots__ = ("encoded",)
    encoded: Optional[str]

    def _fields(self) -> Tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message) or type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._fields())


class UpdateNotification(Message):
    """Source -> warehouse: "update U happened" (the payload of ``S_up``).

    ``serial`` is the source-assigned sequence number of the update; it
    exists for logging and trace alignment, not for the algorithms — the
    paper's algorithms rely only on FIFO delivery.
    """

    __slots__ = ("update", "serial")

    def __init__(self, update: Update, serial: int) -> None:
        self.update = update
        self.serial = serial
        self.encoded = None

    def __repr__(self) -> str:
        return f"UpdateNotification(#{self.serial}, {self.update!r})"


class UpdateBatch(Message):
    """A run of same-source update notifications, coalesced by the kernel.

    The paper's Section 6 / Appendix D performance study generalizes
    compensation to k-update batches ``Q<U1,...,Uk>``; this message is the
    protocol-level carrier.  Kernels build it by draining up to
    ``batch_k`` consecutive :class:`UpdateNotification` messages off one
    warehouse inbox and deliver it as **one atomic** ``W_up`` event, so
    the algorithm may answer the whole run with a single compensating
    query.  At ``batch_k == 1`` no batch is ever constructed — the legacy
    per-update protocol is preserved byte for byte.
    """

    __slots__ = ("notifications",)

    def __init__(self, notifications: Tuple[UpdateNotification, ...]) -> None:
        if not notifications:
            raise ValueError("an update batch needs at least one notification")
        self.notifications = tuple(notifications)
        self.encoded = None

    @property
    def serial(self) -> int:
        """The last member's serial (the batch's causal identity)."""
        return self.notifications[-1].serial

    @property
    def first_serial(self) -> int:
        return self.notifications[0].serial

    def updates(self) -> Tuple[object, ...]:
        """The member updates, in arrival order."""
        return tuple(n.update for n in self.notifications)

    def __len__(self) -> int:
        return len(self.notifications)

    def __repr__(self) -> str:
        return (
            f"UpdateBatch(#{self.first_serial}..#{self.serial}, "
            f"k={len(self.notifications)})"
        )


class QueryRequest(Message):
    """Warehouse -> source: "evaluate this query"."""

    __slots__ = ("query_id", "query")

    def __init__(self, query_id: int, query: Query) -> None:
        self.query_id = query_id
        self.query = query
        self.encoded = None

    def __repr__(self) -> str:
        return f"QueryRequest(Q{self.query_id}, {self.query!r})"


class QueryAnswer(Message):
    """Source -> warehouse: the answer relation for an earlier query."""

    __slots__ = ("query_id", "answer")

    def __init__(self, query_id: int, answer: SignedBag) -> None:
        self.query_id = query_id
        self.answer = answer
        self.encoded = None

    def __repr__(self) -> str:
        return f"QueryAnswer(Q{self.query_id}, {self.answer!r})"


class RefreshRequest(Message):
    """Warehouse client -> warehouse: "bring the view up to date".

    Not part of the paper's core protocol: it models the *deferred* and
    *periodic* maintenance timings of Section 2 ("with little or no
    modification our algorithms can be applied to deferred and periodic
    update as well").  A refresh never touches the source directly — the
    maintenance algorithm decides what queries to issue.
    """

    __slots__ = ("serial",)

    def __init__(self, serial: int = 0) -> None:
        self.serial = serial
        self.encoded = None

    def __repr__(self) -> str:
        return f"RefreshRequest(#{self.serial})"
