"""Wire codecs: what a protocol message costs in real bytes.

The cost model's ``B`` metric historically came from a pluggable *sizer*
(:meth:`repro.costmodel.counters.CostRecorder.message_size`) that counts
tuples and multiplies by an abstract per-tuple byte weight — fine for the
paper's analysis, but not what a deployed warehouse would put on a
socket.  A :class:`WireCodec` closes that gap: it serializes each message
through the durability codec's canonical JSON form, frames it with a
4-byte big-endian length prefix, optionally compresses the payload, and
reports ``len(frame)`` as the message's size.  Channels and transports
given a codec charge ``sent_bytes`` with real framed bytes instead of the
sizer's estimate (the codec wins when both are present).

Registry (``--wire-codec`` on ``repro runtime``):

- ``none``  — no codec; ``sent_bytes`` keeps the legacy sizer semantics.
  This is the default, byte-for-byte identical to runs before the codec
  existed.
- ``frame`` — length-prefixed canonical JSON, uncompressed.  The identity
  codec: ``decode(encode(m)) == m`` with no information loss.
- ``zlib``  — ``frame`` with a zlib-compressed payload (always available:
  zlib is in the standard library).
- ``zstd``  — ``frame`` with a zstandard-compressed payload; gated on the
  optional ``zstandard`` package and raises a clear error when missing.

Every codec is self-describing on the wire: the frame header carries the
codec's tag byte, so :func:`WireCodec.decode` rejects frames produced by
a different codec instead of returning garbage.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Dict, List, Optional, cast

from repro.errors import ProtocolError
from repro.messaging.messages import Message

_HEADER = struct.Struct(">IB")  # payload length, codec tag byte

_TAG_FRAME = 0
_TAG_ZLIB = 1
_TAG_ZSTD = 2


def _dump_message(message: Message) -> bytes:
    # Imported lazily: repro.durability.codec imports messaging.messages,
    # so a module-level import here would be circular.
    from repro.durability.codec import encode_text

    return encode_text(message).encode("utf-8")


def _load_message(data: object) -> Message:
    from repro.durability.codec import decode_value

    value = decode_value(data)
    if not isinstance(value, Message):
        raise ProtocolError(f"wire frame decoded to non-message {value!r}")
    return value


class WireCodec:
    """One named framing/compression scheme for protocol messages.

    ``encode`` produces the full frame (header + payload); ``size`` is
    what channels charge to ``sent_bytes``.  Compression is per-message —
    no shared dictionary or stream state — so frames are independently
    decodable, matching the channels' message-at-a-time delivery.
    """

    __slots__ = ("name", "tag", "_compress", "_decompress")

    def __init__(
        self,
        name: str,
        tag: int,
        compress: Optional[Callable[[bytes], bytes]] = None,
        decompress: Optional[Callable[[bytes], bytes]] = None,
    ) -> None:
        self.name = name
        self.tag = tag
        self._compress = compress
        self._decompress = decompress

    def encode(self, message: Message) -> bytes:
        payload = _dump_message(message)
        if self._compress is not None:
            payload = self._compress(payload)
        return _HEADER.pack(len(payload), self.tag) + payload

    def decode(self, frame: bytes) -> Message:
        if len(frame) < _HEADER.size:
            raise ProtocolError(f"wire frame truncated: {len(frame)} byte(s)")
        length, tag = _HEADER.unpack_from(frame)
        if tag != self.tag:
            raise ProtocolError(
                f"codec {self.name!r} (tag {self.tag}) received a frame "
                f"with tag {tag}"
            )
        payload = frame[_HEADER.size :]
        if len(payload) != length:
            raise ProtocolError(
                f"wire frame length mismatch: header says {length}, "
                f"got {len(payload)}"
            )
        try:
            if self._decompress is not None:
                payload = self._decompress(payload)
            data = json.loads(payload.decode("utf-8"))
        except Exception as exc:  # zlib.error, ZstdError, bad UTF-8/JSON
            raise ProtocolError(
                f"codec {self.name!r} received a frame with a damaged "
                f"payload: {exc}"
            ) from exc
        return _load_message(data)

    def size(self, message: Message) -> int:
        """Framed size in bytes — what ``sent_bytes`` accumulates."""
        return len(self.encode(message))

    def __repr__(self) -> str:
        return f"WireCodec({self.name!r})"


def _make_zstd() -> WireCodec:
    try:
        import zstandard
    except ImportError:
        raise ProtocolError(
            "wire codec 'zstd' needs the optional 'zstandard' package, "
            "which is not installed; use 'zlib' (standard library) instead"
        ) from None
    compressor = zstandard.ZstdCompressor()
    decompressor = zstandard.ZstdDecompressor()
    return WireCodec(
        "zstd", _TAG_ZSTD, compressor.compress, decompressor.decompress
    )


_FACTORIES: Dict[str, Callable[[], Optional[WireCodec]]] = {
    "none": lambda: None,
    "frame": lambda: WireCodec("frame", _TAG_FRAME),
    "zlib": lambda: WireCodec(
        "zlib",
        _TAG_ZLIB,
        lambda raw: zlib.compress(raw, 6),
        zlib.decompress,
    ),
    "zstd": _make_zstd,
}

#: Codec names accepted by :func:`create_codec` (CLI choices).
WIRE_CODECS: List[str] = sorted(_FACTORIES)


def create_codec(name: str) -> Optional[WireCodec]:
    """Build the named codec; ``"none"`` yields ``None`` (legacy sizing)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ProtocolError(
            f"unknown wire codec {name!r}; choose from {WIRE_CODECS}"
        ) from None
    return cast(Optional[WireCodec], factory())
