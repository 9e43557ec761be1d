"""Property tests: the stream buffers against plain reference models.

Segments of one stream arrive in any order, some of them more than once,
each carrying the message markers that complete inside it. After every
arrival the :class:`ReceiveAssembler` must agree with a model that only
keeps the set of bytes received: the in-order point, the bytes delivered,
the messages handed up (in stream order, each once) and the SACK blocks
(most recently touched first). The :class:`SendBuffer` must agree with a
model that filters the full marker list on every query.

Streams without any marker, and arrival orders without any hole, are
drawn as often as the others, so both the empty fast paths and the
out-of-order paths are covered.
"""

from hypothesis import given, settings, strategies as st

from repro.tcp.buffers import ReceiveAssembler, SendBuffer

#: Large enough that no out-of-order range is ever trimmed at the window.
BUFFER = 1 << 20


@st.composite
def streams(draw):
    """Chunks ``(seq, length, markers)`` of one stream, and its markers."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    with_markers = draw(st.booleans())
    chunks, markers, seq = [], [], 0
    for size in sizes:
        end = seq + size
        offsets = []
        if with_markers:
            offsets = sorted(draw(st.sets(st.integers(seq + 1, end), max_size=2)))
        riding = [(offset, f"m{offset}") for offset in offsets]
        chunks.append((seq, size, riding))
        markers += riding
        seq = end
    return chunks, markers


@st.composite
def arrivals(draw):
    """A stream and an arrival order: a permutation plus duplicates."""
    chunks, markers = draw(streams())
    in_order = draw(st.booleans())
    order = list(chunks) if in_order else draw(st.permutations(chunks))
    duplicates = draw(st.lists(st.sampled_from(chunks), max_size=6))
    for chunk in duplicates:
        order.insert(draw(st.integers(0, len(order))), chunk)
    return chunks, markers, order


class ReceiverModel:
    """The receive side as a set of received bytes."""

    def __init__(self, markers):
        self.covered = set()
        self.markers = sorted(markers)
        #: Arrival index of the newest out-of-order segment per byte.
        self.touched = {}
        self.rcv_nxt = 0

    def accept(self, index, seq, length):
        """Returns whether the in-order point advanced."""
        before = self.rcv_nxt
        if seq > before:
            for byte in range(seq, seq + length):
                self.touched[byte] = index
        self.covered.update(range(seq, seq + length))
        while self.rcv_nxt in self.covered:
            self.rcv_nxt += 1
        return self.rcv_nxt > before

    def delivered(self):
        return [message for offset, message in self.markers
                if offset <= self.rcv_nxt]

    def sack_blocks(self, limit=4):
        """Held ranges above the in-order point, most recently touched first."""
        blocks, start = [], None
        top = max(self.covered, default=-1) + 1
        for byte in range(self.rcv_nxt, top + 1):
            if byte in self.covered and start is None:
                start = byte
            elif byte not in self.covered and start is not None:
                newest = max(self.touched[b] for b in range(start, byte))
                blocks.append((newest, (start, byte)))
                start = None
        blocks.sort(reverse=True)
        return [block for _, block in blocks[:limit]]


@settings(max_examples=300, deadline=None)
@given(arrivals())
def test_receive_assembler_matches_reference(case):
    chunks, markers, order = case
    handed_up, data = [], []
    asm = ReceiveAssembler(BUFFER, on_message=handed_up.append,
                           on_data=data.append)
    model = ReceiverModel(markers)
    for index, (seq, length, riding) in enumerate(order):
        advanced = asm.accept(seq, length, list(riding))
        assert advanced == model.accept(index, seq, length)
        assert asm.rcv_nxt == model.rcv_nxt
        assert asm.bytes_delivered == model.rcv_nxt == sum(data)
        assert handed_up == model.delivered()
        assert asm.sack_blocks() == model.sack_blocks()
    stream_end = chunks[-1][0] + chunks[-1][1]
    assert asm.rcv_nxt == stream_end
    assert handed_up == [message for _, message in markers]
    assert asm.sack_blocks() == [] and asm.out_of_order_bytes == 0


@settings(max_examples=100, deadline=None)
@given(arrivals())
def test_receive_assembler_without_message_callback_keeps_nothing(case):
    order = case[2]
    asm = ReceiveAssembler(BUFFER)
    for seq, length, riding in order:
        asm.accept(seq, length, list(riding))
        assert all(offset > asm.rcv_nxt for offset in asm._pending_messages)
    assert asm._pending_messages == {}


@st.composite
def send_histories(draw):
    """Writes (some tagged), then queries, releases and more writes.

    Query ranges start anywhere, so many re-cover bytes an earlier query
    already returned, as a retransmission does.
    """
    writes = draw(st.lists(
        st.tuples(st.integers(1, 30), st.booleans()), min_size=1, max_size=12,
    ))
    stream_length = sum(size for size, _ in writes)
    position = st.integers(0, stream_length + 65)
    operations = draw(st.lists(
        st.one_of(
            st.tuples(st.just("markers_in"), position, st.integers(0, 60)),
            st.tuples(st.just("release_through"), position, st.just(0)),
            st.tuples(st.just("write"), st.integers(1, 30), st.booleans()),
        ),
        max_size=25,
    ))
    return writes, operations


@settings(max_examples=300, deadline=None)
@given(send_histories())
def test_send_buffer_matches_reference(history):
    writes, operations = history
    buf = SendBuffer()
    written, acked, length = [], 0, 0

    def write(size, tagged):
        nonlocal length
        length += size
        message = f"m{length}" if tagged else None
        buf.write(size, message=message)
        if tagged:
            written.append((length, message))

    for size, tagged in writes:
        write(size, tagged)
    assert buf.stream_length == length
    for operation, offset, span in operations:
        if operation == "markers_in":
            expected = [(off, msg) for off, msg in written
                        if off > acked and offset < off <= offset + span]
            assert buf.markers_in(offset, offset + span) == expected
        elif operation == "write":
            write(offset, span)
        else:
            offset = min(offset, length)  # no ACK covers unwritten bytes
            buf.release_through(offset)
            acked = max(acked, offset)
        assert buf.pending_markers == sum(1 for off, _ in written if off > acked)
