"""Unit-level BitTorrent tests: wire sizes, interest, selection, choking."""

import random

import pytest

from repro.apps.bittorrent.messages import (
    Bitfield,
    Choke,
    Handshake,
    Have,
    Interested,
    NotInterested,
    PieceData,
    Request,
    Unchoke,
)
from repro.apps.bittorrent.metainfo import TorrentMeta
from repro.apps.bittorrent.peer import Peer, PeerConfig
from repro.simnet.topology import build_star
from repro.simnet.units import mbps, ms
from repro.tcp.stack import TcpStack
from repro.udp.socket import UdpStack


class TestWireSizes:
    def test_handshake_is_68_bytes(self):
        assert Handshake(peer_name="x").wire_bytes == 68

    def test_bitfield_scales_with_pieces(self):
        assert Bitfield(have=frozenset(), num_pieces=8).wire_bytes == 5 + 1
        assert Bitfield(have=frozenset(), num_pieces=9).wire_bytes == 5 + 2
        assert Bitfield(have=frozenset(), num_pieces=64).wire_bytes == 5 + 8

    def test_control_messages(self):
        assert Have(piece=0).wire_bytes == 9
        assert Interested().wire_bytes == 5
        assert NotInterested().wire_bytes == 5
        assert Choke().wire_bytes == 5
        assert Unchoke().wire_bytes == 5
        assert Request(piece=3).wire_bytes == 17

    def test_piece_data_carries_payload(self):
        assert PieceData(piece=0, length=65536).wire_bytes == 13 + 65536


def make_peer(seed=False, leaves=3, pieces=8):
    star = build_star(leaves=leaves, leaf_bandwidth_bps=mbps(10),
                      leaf_delay_s=ms(1))
    meta = TorrentMeta("t", total_bytes=pieces * 1000, piece_size=1000)
    node = star.leaves[0]
    peer = Peer(
        tcp=TcpStack(node),
        udp=UdpStack(node),
        meta=meta,
        tracker_addr=star.leaves[-1].name,
        rng=random.Random(1),
        seed=seed,
        config=PeerConfig(),
    )
    return star.network, peer, meta


class TestPeerState:
    def test_seed_starts_complete(self):
        _, peer, meta = make_peer(seed=True)
        assert peer.complete
        assert peer.have == set(range(meta.num_pieces))

    def test_leecher_starts_empty(self):
        _, peer, _ = make_peer(seed=False)
        assert not peer.complete
        assert peer.have == set()

    def test_rarest_first_prefers_scarce_piece(self):
        from repro.apps.bittorrent.peer import _Connection

        net, peer, meta = make_peer()
        peer._send = lambda conn, msg: None
        # Two fake connections: piece 0 is common, piece 5 is rare. The
        # replica counts are maintained incrementally as pieces arrive.
        common = _Connection(socket=None)
        other = _Connection(socket=None)
        peer._connections = [common, other]
        peer._add_remote_pieces(common, {0, 5})
        peer._add_remote_pieces(other, {0})
        assert peer._avail[0] == 2
        assert peer._avail[5] == 1
        candidates = peer._needed_from(common)
        rarest = min(peer._avail[p] for p in candidates)
        pool = [p for p in candidates if peer._avail[p] == rarest]
        assert pool == [5]

    def test_availability_drops_with_disconnect(self):
        from repro.apps.bittorrent.peer import _Connection

        _, peer, _ = make_peer()
        peer._send = lambda conn, msg: None
        sock = object()
        connection = _Connection(socket=sock)
        peer._connections = [connection]
        peer._by_socket[sock] = connection
        peer._add_remote_pieces(connection, {0, 5})
        assert peer._avail[5] == 1
        peer._drop_connection(sock)
        assert peer._avail[5] == 0

    def test_needed_excludes_held_and_pending(self):
        from repro.apps.bittorrent.peer import _Connection

        _, peer, _ = make_peer()
        peer._send = lambda conn, msg: None
        connection = _Connection(socket=None)
        peer._connections = [connection]
        peer.have.add(0)
        peer._add_remote_pieces(connection, {0, 1, 2})
        peer._pending[1] = connection
        assert peer._needed_from(connection) == [2]

    def test_download_time_none_while_leeching(self):
        _, peer, _ = make_peer()
        assert peer.download_time() is None


class TestChokerPolicy:
    def test_top_uploaders_unchoked(self):
        """Drive the choke round with crafted per-connection counters."""
        from repro.apps.bittorrent.peer import _Connection

        net, peer, _ = make_peer()
        sent = []
        peer._send = lambda conn, msg: sent.append((conn, type(msg).__name__))
        connections = []
        for index, gave_us in enumerate([5000, 100, 9000, 0, 4000]):
            connection = _Connection(socket=None, remote_name=f"p{index}")
            connection.peer_interested = True
            connection.downloaded_window = gave_us
            connections.append(connection)
        peer._connections = connections
        peer._choke_round(1)
        unchoked = {c.remote_name for c, m in sent if m == "Unchoke"}
        # Top 3 reciprocation slots: p2 (9000), p0 (5000), p4 (4000),
        # plus one optimistic from the rest.
        assert {"p2", "p0", "p4"} <= unchoked
        assert len(unchoked) == 4

    def test_windows_reset_each_round(self):
        from repro.apps.bittorrent.peer import _Connection

        _, peer, _ = make_peer()
        peer._send = lambda conn, msg: None
        connection = _Connection(socket=None, remote_name="p0")
        connection.peer_interested = True
        connection.downloaded_window = 777
        peer._connections = [connection]
        peer._choke_round(1)
        assert connection.downloaded_window == 0

    def test_uninterested_peers_stay_choked(self):
        from repro.apps.bittorrent.peer import _Connection

        _, peer, _ = make_peer()
        sent = []
        peer._send = lambda conn, msg: sent.append(type(msg).__name__)
        connection = _Connection(socket=None, remote_name="p0")
        connection.peer_interested = False
        peer._connections = [connection]
        peer._choke_round(1)
        assert "Unchoke" not in sent

    def test_choke_sent_when_falling_out_of_top(self):
        from repro.apps.bittorrent.peer import _Connection

        _, peer, _ = make_peer()
        sent = []
        peer._send = lambda conn, msg: sent.append((conn.remote_name,
                                                    type(msg).__name__))
        connection = _Connection(socket=None, remote_name="p0")
        connection.peer_interested = True
        connection.am_choking = False  # currently unchoked
        connection.peer_interested = False  # no longer interested
        peer._connections = [connection]
        peer._choke_round(1)
        assert ("p0", "Choke") in sent
