"""Unit tests for send/receive stream buffers."""

import pytest
from hypothesis import given, strategies as st

from repro.simnet.errors import ProtocolError
from repro.tcp.buffers import ReceiveAssembler, SendBuffer


class TestSendBuffer:
    def test_write_accumulates(self):
        buf = SendBuffer()
        buf.write(100)
        buf.write(50)
        assert buf.stream_length == 150
        assert buf.available_from(0) == 150
        assert buf.available_from(120) == 30
        assert buf.available_from(150) == 0
        assert buf.available_from(200) == 0

    def test_write_rejects_nonpositive(self):
        with pytest.raises(ProtocolError):
            SendBuffer().write(0)

    def test_markers_ride_completing_range(self):
        buf = SendBuffer()
        buf.write(100, message="a")   # completes at 100
        buf.write(100, message="b")   # completes at 200
        assert buf.markers_in(0, 100) == [(100, "a")]
        assert buf.markers_in(100, 200) == [(200, "b")]
        assert buf.markers_in(0, 99) == []
        assert buf.markers_in(0, 200) == [(100, "a"), (200, "b")]

    def test_markers_survive_until_released(self):
        buf = SendBuffer()
        buf.write(100, message="a")
        # A retransmission of the same range still carries the marker.
        assert buf.markers_in(0, 100) == [(100, "a")]
        assert buf.markers_in(0, 100) == [(100, "a")]
        buf.release_through(100)
        assert buf.markers_in(0, 100) == ()
        assert buf.pending_markers == 0

    def test_untagged_writes_have_no_markers(self):
        buf = SendBuffer()
        buf.write(100)
        assert buf.markers_in(0, 100) == ()


class TestReceiveAssembler:
    def test_in_order_delivery(self):
        delivered = []
        asm = ReceiveAssembler(1000, on_data=delivered.append)
        assert asm.accept(0, 100, [])
        assert asm.accept(100, 100, [])
        assert asm.rcv_nxt == 200
        assert asm.bytes_delivered == 200
        assert delivered == [100, 100]

    def test_duplicate_ignored(self):
        asm = ReceiveAssembler(1000)
        asm.accept(0, 100, [])
        assert not asm.accept(0, 100, [])
        assert asm.bytes_delivered == 100

    def test_out_of_order_held_then_merged(self):
        asm = ReceiveAssembler(1000)
        assert not asm.accept(100, 100, [])  # hole at [0,100)
        assert asm.rcv_nxt == 0
        assert asm.out_of_order_bytes == 100
        assert asm.accept(0, 100, [])        # fills the hole
        assert asm.rcv_nxt == 200
        assert asm.out_of_order_bytes == 0

    def test_overlapping_segments(self):
        asm = ReceiveAssembler(1000)
        asm.accept(0, 150, [])
        asm.accept(100, 100, [])  # overlaps delivered data
        assert asm.rcv_nxt == 200
        assert asm.bytes_delivered == 200

    def test_multiple_ooo_ranges_merge(self):
        asm = ReceiveAssembler(10000)
        asm.accept(200, 100, [])
        asm.accept(400, 100, [])
        asm.accept(100, 100, [])   # merges with [200,300)
        assert asm.out_of_order_bytes == 300
        asm.accept(0, 100, [])
        assert asm.rcv_nxt == 300
        asm.accept(300, 100, [])
        assert asm.rcv_nxt == 500

    def test_window_constant_despite_ooo_bytes(self):
        # The app consumes in-order data instantly, so the full buffer is
        # always advertised; ooo bytes are bounded by the window itself.
        asm = ReceiveAssembler(1000)
        asm.accept(500, 200, [])
        assert asm.window() == 1000
        assert asm.out_of_order_bytes == 200

    def test_messages_delivered_in_order(self):
        messages = []
        asm = ReceiveAssembler(10000, on_message=messages.append)
        asm.accept(100, 100, [(200, "second")])
        assert messages == []  # held: stream hasn't passed offset 200
        asm.accept(0, 100, [(100, "first")])
        assert messages == ["first", "second"]

    def test_message_on_exact_boundary(self):
        messages = []
        asm = ReceiveAssembler(10000, on_message=messages.append)
        asm.accept(0, 100, [(100, "m")])
        assert messages == ["m"]

    def test_duplicate_marker_from_retransmission_not_redelivered(self):
        messages = []
        asm = ReceiveAssembler(10000, on_message=messages.append)
        asm.accept(0, 100, [(100, "m")])
        # Retransmission arrives later carrying the same marker; the offset
        # key was consumed, so nothing is delivered twice.
        asm.accept(0, 100, [])
        assert messages == ["m"]

    def test_no_message_callback_discards_markers(self):
        asm = ReceiveAssembler(10000)
        asm.accept(0, 100, [(100, "m")])
        assert asm._pending_messages is None  # holds no message

    def test_invalid_buffer_size(self):
        with pytest.raises(ProtocolError):
            ReceiveAssembler(0)

    @given(
        st.permutations(
            [(i * 100, 100) for i in range(8)]
        )
    )
    def test_property_any_arrival_order_reassembles(self, order):
        asm = ReceiveAssembler(100000)
        for seq, length in order:
            asm.accept(seq, length, [])
        assert asm.rcv_nxt == 800
        assert asm.bytes_delivered == 800
        assert asm.out_of_order_bytes == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 10)),
            min_size=1,
            max_size=60,
        )
    )
    def test_property_delivery_never_exceeds_contiguous_coverage(self, chunks):
        """bytes_delivered equals the contiguous prefix covered so far."""
        asm = ReceiveAssembler(100000)
        covered = set()
        for start_unit, len_units in chunks:
            seq, length = start_unit * 10, len_units * 10
            asm.accept(seq, length, [])
            covered.update(range(seq, seq + length))
        prefix = 0
        while prefix in covered:
            prefix += 1
        assert asm.rcv_nxt == prefix
