"""The barrier's one swap primitive, driven over an in-process pipe.

Every barrier message (a full round, a window boundary, a consensus) goes
through ``ShardContext._swap``. These tests play the peer shard by hand on
the far end of a ``multiprocessing.Pipe``: its reply is sent before the
swap starts, which the pipe buffers.
"""

import multiprocessing

import pytest

from repro.parallel.shard import ShardContext


@pytest.fixture
def pipe():
    ours, theirs = multiprocessing.Pipe(duplex=True)
    yield ours, theirs
    ours.close()
    theirs.close()


def test_mismatched_consensus_tag_raises_naming_both_tags(pipe):
    ours, peer = pipe
    ctx = ShardContext(0, 2, {}, {1: ours})
    peer.send((99, True))
    with pytest.raises(RuntimeError, match=r"expected tag -1, peer answered 99"):
        ctx.all_agree(True)


def test_mismatched_boundary_tag_raises_naming_both_tags(pipe):
    ours, peer = pipe
    ctx = ShardContext(1, 2, {}, {0: ours})
    peer.send(((7, 2), []))
    with pytest.raises(
        RuntimeError, match=r"expected tag \(1, 1\), peer answered \(7, 2\)"
    ):
        ctx._swap([0], (1, 1), ship=True)


def test_swap_ships_outbox_and_stages_the_inbound_bundle(pipe):
    ours, peer = pipe
    ctx = ShardContext(0, 2, {}, {1: ours})
    outbound = (2.0, 1.0, 3, 1, "out")
    inbound = (1.5, 0.5, 4, 1, "in")
    ctx._outbox[1].append(outbound)
    peer.send((3, 0.25, 10, [inbound]))

    replies = ctx._swap([1], 3, 2.0, 7, ship=True)

    assert replies == [(0.25, 10)]
    assert peer.recv() == (3, 2.0, 7, [outbound])
    assert ctx._outbox[1] == []  # cleared in place: channels hold it
    assert ctx._staged == [inbound]
    assert (ctx.messages_out, ctx.messages_in) == (1, 1)


def test_consensus_is_the_and_of_every_flag(pipe):
    ours, peer = pipe
    ctx = ShardContext(1, 2, {}, {0: ours})  # lower-id peer: receive first
    peer.send((-1, False))
    assert ctx.all_agree(True) is False
    assert peer.recv() == (-1, True)
    peer.send((-2, True))
    assert ctx.all_agree(True) is True
    assert peer.recv() == (-2, True)
