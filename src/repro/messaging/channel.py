"""In-order message channels.

A :class:`FifoChannel` delivers messages in exactly the order they were
sent.  It also counts messages and (via a pluggable sizer) bytes, feeding
the cost model's ``M`` and ``B`` metrics: pass a ``sizer`` callable (for
example :meth:`repro.costmodel.counters.CostRecorder.message_size`) and
:attr:`FifoChannel.sent_bytes` accumulates the size of every message sent.

Alternatively pass a :class:`repro.messaging.wire.WireCodec` and
``sent_bytes`` accumulates *real framed bytes* — the length-prefixed
(optionally compressed) serialization each send would put on a socket.
When both are given, the codec wins (:func:`charged_bytes`, the rule the
asyncio transport shares).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Iterator, List, Optional

from repro.errors import ChannelEmpty
from repro.messaging.messages import Message

if TYPE_CHECKING:
    from repro.messaging.wire import WireCodec

#: Computes the on-the-wire size of one message, in bytes.
Sizer = Callable[[Message], int]


def charged_bytes(
    message: Message, sizer: Optional[Sizer], codec: Optional["WireCodec"]
) -> int:
    """What one send adds to ``sent_bytes``.

    Real framed bytes with a codec (it wins over a sizer), the sizer's
    estimate otherwise, 0 with neither.
    """
    if codec is not None:
        return codec.size(message)
    if sizer is not None:
        return sizer(message)
    return 0


class FifoChannel:
    """A reliable, ordered, unidirectional message queue."""

    def __init__(
        self,
        name: str,
        sizer: Optional[Sizer] = None,
        codec: Optional["WireCodec"] = None,
    ) -> None:
        self.name = name
        self._queue: Deque[Message] = deque()
        self._sizer = sizer
        self._codec = codec
        self.sent_count = 0
        self.delivered_count = 0
        #: Total bytes sent (see :func:`charged_bytes`).
        self.sent_bytes = 0

    def send(self, message: Message) -> None:
        self._queue.append(message)
        self.sent_count += 1
        self.sent_bytes += charged_bytes(message, self._sizer, self._codec)

    def receive(self) -> Message:
        """Deliver the oldest undelivered message.

        Raises :class:`~repro.errors.ChannelEmpty` (a
        :class:`~repro.errors.ProtocolError`) when nothing is pending.
        """
        if not self._queue:
            raise ChannelEmpty(f"receive on empty channel {self.name!r}")
        self.delivered_count += 1
        return self._queue.popleft()

    def peek(self) -> Optional[Message]:
        """The next message to be delivered, without consuming it."""
        return self._queue[0] if self._queue else None

    def pending(self) -> int:
        return len(self._queue)

    def is_empty(self) -> bool:
        return not self._queue

    def drain(self) -> Iterator[Message]:
        """Deliver all pending messages."""
        while self._queue:
            yield self.receive()

    def snapshot(self) -> List[Message]:
        """The undelivered messages, oldest first (inspection only)."""
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"FifoChannel({self.name}, pending={len(self._queue)})"
