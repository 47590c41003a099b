"""Unit tests for wire codecs and the kernel-level k-update batch.

Three surfaces under test:

- :mod:`repro.messaging.wire` — frame layout, round trips, compression,
  tag/length validation, the registry, and the ``zstd`` import gate;
- :class:`repro.messaging.messages.UpdateBatch` — the protocol carrier
  for coalesced runs, including its codec-v3 persistence tag;
- :class:`repro.kernel.sync.SyncKernel` — ``batch_k`` coalescing and the
  ``warehouse:<name>@<n>`` replay action that pins a logged run's exact
  batching decisions.
"""

import json
import zlib

import pytest

from repro.core.eca import ECA
from repro.durability.codec import decode_value, encode_value
from repro.errors import ProtocolError, ReproError, SimulationError
from repro.kernel.sync import REFRESH, SyncKernel
from repro.messaging.channel import FifoChannel
from repro.messaging.messages import (
    Message,
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.messaging.wire import WIRE_CODECS, WireCodec, create_codec
from repro.relational.bag import SignedBag
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.updates import insert

SCHEMA = RelationSchema("r", ("A", "B"))
HEADER_SIZE = 5  # 4-byte big-endian length + 1 tag byte


def installed_codecs():
    names = ["frame", "zlib"]
    try:
        import zstandard  # noqa: F401
    except ImportError:
        return names
    return names + ["zstd"]


def sample_messages():
    view = View.natural_join("v", [SCHEMA], projection=("A",))
    return [
        UpdateNotification(insert("r", (1, 2)), 1),
        QueryRequest(7, view.as_query()),
        QueryAnswer(7, SignedBag.from_rows([(1,), (1,), (2,)])),
        RefreshRequest(3),
        UpdateBatch(
            (
                UpdateNotification(insert("r", (1, 2)), 1),
                UpdateNotification(insert("r", (3, 4)), 2),
            )
        ),
    ]


class TestWireCodecs:
    @pytest.mark.parametrize("name", ["frame", "zlib"])
    def test_round_trip_every_message_type(self, name):
        codec = create_codec(name)
        for message in sample_messages():
            assert codec.decode(codec.encode(message)) == message

    @pytest.mark.parametrize("name", ["frame", "zlib"])
    def test_payload_is_the_canonical_json_of_the_tagged_form(self, name):
        """What is framed is ``encode_value`` dumped with sorted keys and
        no whitespace — however the codec came by that text, and whether
        or not the message's query was rendered before."""
        r1, r2 = RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))
        view = View.natural_join("v", [r1, r2], projection=("W", "Y"))
        query = view.as_query()
        compensating = view.substitute("r1", insert("r1", (1, 2)).signed_tuple())
        compensating = compensating - query.substitute(
            "r2", insert("r2", (2, 3)).signed_tuple()
        )
        messages = sample_messages() + [QueryRequest(8, compensating)]
        codec = create_codec(name)
        for message in messages:
            expected = json.dumps(
                encode_value(message), separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
            for _ in range(2):  # the second encode meets the memo
                frame = codec.encode(message)
                payload = frame[HEADER_SIZE:]
                if name == "zlib":
                    payload = zlib.decompress(payload)
                assert payload == expected
                assert codec.decode(frame) == message

    def test_size_is_the_framed_length(self):
        codec = create_codec("frame")
        for message in sample_messages():
            assert codec.size(message) == len(codec.encode(message))

    def test_zlib_beats_frame_on_redundant_payloads(self):
        answer = QueryAnswer(1, SignedBag.from_rows([(0, 0)] * 200))
        assert create_codec("zlib").size(answer) < create_codec("frame").size(
            answer
        )

    def test_tag_mismatch_is_rejected(self):
        frame = create_codec("frame")
        zlib_codec = create_codec("zlib")
        encoded = frame.encode(RefreshRequest(1))
        with pytest.raises(ProtocolError, match="tag"):
            zlib_codec.decode(encoded)

    def test_truncated_frame_is_rejected(self):
        codec = create_codec("frame")
        with pytest.raises(ProtocolError, match="truncated"):
            codec.decode(b"\x00\x00")

    def test_length_mismatch_is_rejected(self):
        codec = create_codec("frame")
        encoded = codec.encode(RefreshRequest(1))
        with pytest.raises(ProtocolError, match="length mismatch"):
            codec.decode(encoded + b"extra")

    @pytest.mark.parametrize("name", installed_codecs())
    def test_every_payload_bit_flip_is_a_typed_error_or_a_message(self, name):
        """A valid header over a damaged payload never escapes as
        ``UnicodeDecodeError`` / ``zlib.error``: it raises a ReproError
        naming the codec, or (a flip that kept the JSON well-formed)
        still decodes to some Message."""
        codec = create_codec(name)
        frame = codec.encode(QueryAnswer(7, SignedBag.from_rows([(1,), (2,)])))
        typed = 0
        for index in range(HEADER_SIZE, len(frame)):
            for bit in range(8):
                damaged = bytearray(frame)
                damaged[index] ^= 1 << bit
                try:
                    assert isinstance(codec.decode(bytes(damaged)), Message)
                except ReproError as exc:
                    typed += 1
                    if isinstance(exc, ProtocolError):
                        assert repr(name) in str(exc)
        assert typed  # most flips must be caught, not absorbed

    @pytest.mark.parametrize("name", installed_codecs())
    def test_truncated_payload_with_a_consistent_header_is_typed(self, name):
        codec = create_codec(name)
        frame = codec.encode(QueryAnswer(7, SignedBag.from_rows([(1,), (2,)])))
        tag = frame[HEADER_SIZE - 1 : HEADER_SIZE]
        for keep in range(len(frame) - HEADER_SIZE):
            payload = frame[HEADER_SIZE : HEADER_SIZE + keep]
            header = len(payload).to_bytes(4, "big") + tag
            with pytest.raises(ProtocolError, match=f"codec {name!r}"):
                codec.decode(header + payload)

    def test_undecodable_bytes_name_the_codec(self):
        frame = create_codec("frame")
        with pytest.raises(ProtocolError, match="'frame'.*damaged payload"):
            frame.decode(b"\x00\x00\x00\x02\x00\xff\xfe")
        zlib_codec = create_codec("zlib")
        with pytest.raises(ProtocolError, match="'zlib'.*damaged payload"):
            zlib_codec.decode(b"\x00\x00\x00\x02\x01\xff\xfe")

    def test_registry_names(self):
        assert WIRE_CODECS == sorted(WIRE_CODECS)
        assert set(WIRE_CODECS) == {"none", "frame", "zlib", "zstd"}

    def test_none_means_no_codec(self):
        assert create_codec("none") is None

    def test_unknown_codec_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown wire codec"):
            create_codec("gzip")

    def test_zstd_gate(self):
        try:
            import zstandard  # noqa: F401
        except ImportError:
            with pytest.raises(ProtocolError, match="zstandard"):
                create_codec("zstd")
        else:
            codec = create_codec("zstd")
            message = RefreshRequest(1)
            assert codec.decode(codec.encode(message)) == message

    def test_channel_charges_framed_bytes_and_codec_wins_over_sizer(self):
        message = UpdateNotification(insert("r", (1, 2)), 1)
        codec = create_codec("frame")
        channel = FifoChannel(
            "test", sizer=lambda m: 10_000, codec=codec
        )
        channel.send(message)
        assert channel.sent_bytes == codec.size(message)
        assert isinstance(codec, WireCodec)


class TestUpdateBatch:
    def batch(self):
        return UpdateBatch(
            (
                UpdateNotification(insert("r", (1, 2)), 4),
                UpdateNotification(insert("r", (3, 4)), 5),
                UpdateNotification(insert("r", (5, 6)), 6),
            )
        )

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ValueError):
            UpdateBatch(())

    def test_serial_identity_and_length(self):
        batch = self.batch()
        assert batch.first_serial == 4
        assert batch.serial == 6  # causal identity = last member
        assert len(batch) == 3
        assert batch.updates() == tuple(n.update for n in batch.notifications)

    def test_repr_names_the_serial_span(self):
        assert repr(self.batch()) == "UpdateBatch(#4..#6, k=3)"

    def test_codec_v3_round_trip(self):
        batch = self.batch()
        assert decode_value(encode_value(batch)) == batch


def make_kernel(batch_k=1, n_updates=4):
    schema = RelationSchema("r", ("A", "B"))
    source = MemorySource([schema], {"r": [(1, 2)]})
    view = View.natural_join("v", [schema], projection=("A",))
    workload = [insert("r", (10 + i, i)) for i in range(n_updates)]
    return SyncKernel({"src": source}, ECA(view), workload, batch_k=batch_k)


class TestSyncKernelBatching:
    def test_batch_k_must_be_positive(self):
        with pytest.raises(SimulationError, match="batch_k"):
            make_kernel(batch_k=0)

    def test_batch_k1_never_constructs_a_batch(self):
        kernel = make_kernel(batch_k=1)
        for _ in range(4):
            kernel.step("update")
        kernel.step("warehouse:src")
        details = [e.detail for e in kernel.trace.events]
        assert not any("k=" in d for d in details)

    def test_coalesces_up_to_batch_k(self):
        kernel = make_kernel(batch_k=3)
        for _ in range(4):
            kernel.step("update")
        kernel.step("warehouse:src")  # drains 3 of the 4 notifications
        kernel.step("warehouse:src")  # the leftover single
        details = [e.detail for e in kernel.trace.events]
        assert any("(k=3)" in d for d in details)
        # the fourth notification dispatched alone, no batch marker
        batched = [d for d in details if "(k=" in d]
        assert len(batched) == 1

    def test_replay_action_batches_exactly_n(self):
        kernel = make_kernel(batch_k=1)  # default kernel, explicit @n wins
        for _ in range(3):
            kernel.step("update")
        kernel.step("warehouse:src@2")
        details = [e.detail for e in kernel.trace.events]
        assert any("(k=2)" in d for d in details)

    def test_replay_action_fails_when_the_run_is_short(self):
        kernel = make_kernel(batch_k=1)
        kernel.step("update")
        with pytest.raises(SimulationError, match="only 1"):
            kernel.step("warehouse:src@3")

    def test_replay_action_fails_on_a_non_update_head(self):
        schema = RelationSchema("r", ("A", "B"))
        source = MemorySource([schema], {"r": [(1, 2)]})
        view = View.natural_join("v", [schema], projection=("A",))
        kernel = SyncKernel(
            {"src": source}, ECA(view), [REFRESH, insert("r", (3, 4))]
        )
        kernel.step("update")  # enqueues a RefreshRequest on src's channel
        with pytest.raises(SimulationError, match="channel head"):
            kernel.step("warehouse:src@2")

    def test_batched_run_converges_to_the_unbatched_view(self):
        def drain(kernel):
            while not kernel.is_done():
                kernel.step(kernel.available_actions()[0])
            return kernel.algorithm.view_state()

        assert drain(make_kernel(batch_k=1)) == drain(make_kernel(batch_k=4))
