"""The BitTorrent peer: piece management, choking, and the request engine.

Implements the behaviours that drive swarm-level timing (what the paper's
BitTorrent macro-benchmark measures):

* **rarest-first** piece selection with seeded random tie-breaking;
* **tit-for-tat choking**: every choke interval the peer unchokes the
  ``upload_slots - 1`` interested peers that recently gave it the most
  data (seeds rank by what they recently *sent*), plus one optimistic
  unchoke rotated every third round;
* **piece-level request pipelining** with a configurable depth;
* re-request of pieces stranded by a choke or connection loss.

Every timer (choke rounds, stall re-requests) runs on the node's clock, so
a dilated swarm's dynamics play out in virtual time.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

from ...core.timer import PeriodicTimer
from ...simnet.node import Node
from ...tcp.options import TcpOptions
from ...tcp.socket import TcpSocket
from ...tcp.stack import TcpStack
from ...udp.socket import UdpStack
from . import tracker as tracker_mod
from .messages import (
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
from .metainfo import TorrentMeta

__all__ = ["Peer", "PeerConfig"]

PEER_PORT = 6881


@dataclass
class PeerConfig:
    """Tunable peer behaviour (defaults follow the classic client)."""

    upload_slots: int = 4
    choke_interval_s: float = 10.0
    optimistic_every_rounds: int = 3
    request_pipeline: int = 2
    stall_timeout_s: float = 30.0
    #: Hard cap on simultaneous neighbours (the classic client's default
    #: ceiling). Inbound connections beyond the cap are refused and tracker
    #: samples are only dialled up to it — without a cap a 250-peer swarm
    #: degenerates into a full mesh and every per-neighbour loop pays O(N).
    max_connections: int = 80
    #: Re-announce to the tracker (at a choke-round edge) while leeching
    #: with fewer than this many neighbours — a late joiner whose entire
    #: tracker sample was capped peers would otherwise strand with zero
    #: connections, exactly like a real client that never re-announced.
    min_peers: int = 5


@dataclass(eq=False, slots=True)  # identity semantics: connections live in sets
class _Connection:
    """Per-neighbour protocol state."""

    socket: TcpSocket
    remote_name: Optional[str] = None
    am_choking: bool = True
    am_interested: bool = False
    peer_choking: bool = True
    peer_interested: bool = False
    remote_have: Set[int] = field(default_factory=set)
    #: ``remote_have - peer.have``: the pieces this neighbour could give us,
    #: maintained incrementally so interest checks and rarest-first
    #: candidate scans never re-walk the whole bitfield.
    interesting: Set[int] = field(default_factory=set)
    outstanding: Set[int] = field(default_factory=set)
    #: Bytes received from this neighbour since the last choke round.
    downloaded_window: int = 0
    #: Bytes sent to this neighbour since the last choke round.
    uploaded_window: int = 0
    handshake_sent: bool = False


class Peer:
    """One participant in a swarm (seed if it starts with all pieces)."""

    def __init__(
        self,
        tcp: TcpStack,
        udp: UdpStack,
        meta: TorrentMeta,
        tracker_addr: str,
        rng: random.Random,
        seed: bool = False,
        config: Optional[PeerConfig] = None,
        port: int = PEER_PORT,
        tcp_options: Optional[TcpOptions] = None,
        on_complete: Optional[Callable[["Peer"], None]] = None,
    ) -> None:
        self.tcp = tcp
        self.udp = udp
        self.node: Node = tcp.node
        self.name = self.node.name
        self.meta = meta
        self.tracker_addr = tracker_addr
        self.rng = rng
        self.config = config if config is not None else PeerConfig()
        self.port = port
        self.tcp_options = tcp_options
        self.on_complete = on_complete

        self.is_seed = seed
        self.have: Set[int] = set(meta.all_pieces()) if seed else set()
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None if not seed else 0.0
        self.bytes_uploaded = 0
        self.bytes_downloaded = 0

        #: Pieces currently requested somewhere: piece -> connection.
        self._pending: Dict[int, _Connection] = {}
        self._pending_since: Dict[int, float] = {}
        self._connections: List[_Connection] = []
        self._by_socket: Dict[int, _Connection] = {}
        self._by_name: Dict[str, _Connection] = {}
        #: Swarm-wide replica count per piece (how many neighbours have it),
        #: kept in sync with every Bitfield/Have/disconnect so rarest-first
        #: never rebuilds a counts dict over all connections.
        self._avail: List[int] = [0] * meta.num_pieces
        self._choke_rounds = 0
        self._choke_timer: Optional[PeriodicTimer] = None
        self._optimistic: Optional[_Connection] = None
        self._announce: Optional[tracker_mod.AnnounceHandle] = None

    # ------------------------------------------------------------- lifecycle

    @property
    def complete(self) -> bool:
        """Whether every piece is held."""
        return len(self.have) == self.meta.num_pieces

    @property
    def connection_count(self) -> int:
        """Live neighbour connections."""
        return len(self._connections)

    def download_time(self) -> Optional[float]:
        """Local seconds from start to completion (None while leeching).

        A peer that began life complete (a seed) downloaded nothing: its
        download time is 0.0 by definition, whether or not it has been
        started — the seed era left ``completed_at=0.0, started_at=None``
        on an unstarted seed, an ill-defined pair.
        """
        if self.is_seed:
            return 0.0
        if self.completed_at is None or self.started_at is None:
            return None
        return self.completed_at - self.started_at

    def start(self) -> None:
        """Listen, announce, and begin the choke rounds."""
        self.started_at = self.node.clock.now()
        if self.complete:
            self.completed_at = self.started_at
        self.tcp.listen(
            self.port,
            self._on_accept,
            options=self.tcp_options,
            on_message=self._on_message,
            on_close=self._on_socket_close,
            on_error=self._on_socket_error,
        )
        self._announce = tracker_mod.announce(
            self.udp, self.tracker_addr, self.meta.name, self.name, self.port,
            self._on_tracker_peers,
        )
        self._choke_timer = PeriodicTimer(
            self.node.clock, self.config.choke_interval_s, self._choke_round
        )

    def stop(self) -> None:
        """Leave the swarm: stop timers and deregister from the tracker.

        Connections are left to the simulation's end; the ``stopped``
        announce lets the tracker drop us from future peer samples.
        """
        if self._choke_timer is not None:
            self._choke_timer.stop()
        if self._announce is not None:
            self._announce.cancel()
            self._announce = None
        if self.started_at is not None:
            tracker_mod.announce(
                self.udp, self.tracker_addr, self.meta.name, self.name,
                self.port, None, event="stopped", max_tries=3,
            )

    # ------------------------------------------------------------ connections

    def _on_tracker_peers(self, peers: List) -> None:
        for remote_name, remote_port in peers:
            if remote_name == self.name or remote_name in self._by_name:
                continue
            if len(self._connections) >= self.config.max_connections:
                break
            sock = self.tcp.connect(
                remote_name,
                remote_port,
                options=self.tcp_options,
                on_connected=self._on_connected,
                on_message=self._on_message,
                on_close=self._on_socket_close,
                on_error=self._on_socket_error,
            )
            self._set_remote_name(self._register(sock), remote_name)

    def _register(self, sock: TcpSocket) -> _Connection:
        connection = _Connection(socket=sock)
        self._connections.append(connection)
        self._by_socket[id(sock)] = connection
        return connection

    def _set_remote_name(self, connection: _Connection, name: str) -> None:
        connection.remote_name = name
        # First mapping wins: a simultaneous dial/accept pair keeps both
        # connections (as the seed code did), the index just answers the
        # "already connected to X?" question in O(1).
        self._by_name.setdefault(name, connection)

    def _on_accept(self, sock: TcpSocket) -> None:
        if len(self._connections) >= self.config.max_connections:
            sock.close()
            return
        connection = self._register(sock)
        self._set_remote_name(connection, sock.remote_addr)
        self._send_handshake(connection)

    def _on_connected(self, sock: TcpSocket) -> None:
        connection = self._by_socket.get(id(sock))
        if connection is not None:
            self._send_handshake(connection)

    def _send_handshake(self, connection: _Connection) -> None:
        if connection.handshake_sent:
            return
        connection.handshake_sent = True
        self._send(connection, Handshake(peer_name=self.name))
        self._send(
            connection,
            Bitfield(have=frozenset(self.have), num_pieces=self.meta.num_pieces),
        )

    def _on_socket_close(self, sock: TcpSocket) -> None:
        self._drop_connection(sock)

    def _on_socket_error(self, sock: TcpSocket, error: Exception) -> None:
        self._drop_connection(sock)

    def _drop_connection(self, sock: TcpSocket) -> None:
        connection = self._by_socket.pop(id(sock), None)
        if connection is None:
            return
        if connection in self._connections:
            self._connections.remove(connection)
            for piece in connection.remote_have:
                self._avail[piece] -= 1
        name = connection.remote_name
        if name is not None and self._by_name.get(name) is connection:
            del self._by_name[name]
        if self._optimistic is connection:
            self._optimistic = None
        for piece in list(connection.outstanding):
            self._unpend(piece)
        self._fill_pipelines()

    # --------------------------------------------------------------- messages

    def _send(self, connection: _Connection, message) -> None:
        if connection.socket.state not in ("ESTABLISHED", "CLOSE_WAIT",
                                           "SYN_SENT", "SYN_RCVD"):
            return
        connection.socket.send(message.wire_bytes, message=message)
        if isinstance(message, PieceData):
            self.bytes_uploaded += message.length
            connection.uploaded_window += message.length

    def _on_message(self, sock: TcpSocket, message) -> None:
        connection = self._by_socket.get(id(sock))
        if connection is None:
            return
        if isinstance(message, Handshake):
            self._set_remote_name(connection, message.peer_name)
        elif isinstance(message, Bitfield):
            self._add_remote_pieces(connection, message.have)
        elif isinstance(message, Have):
            self._add_remote_pieces(connection, (message.piece,))
            self._fill_pipeline(connection)
        elif isinstance(message, Interested):
            connection.peer_interested = True
        elif isinstance(message, NotInterested):
            connection.peer_interested = False
        elif isinstance(message, Choke):
            connection.peer_choking = True
            for piece in list(connection.outstanding):
                self._unpend(piece)
            connection.outstanding.clear()
        elif isinstance(message, Unchoke):
            connection.peer_choking = False
            self._fill_pipeline(connection)
        elif isinstance(message, Request):
            self._on_request(connection, message)
        elif isinstance(message, PieceData):
            self._on_piece(connection, message)

    def _on_request(self, connection: _Connection, message: Request) -> None:
        if connection.am_choking:
            return  # requests racing a choke are dropped, as in the protocol
        if message.piece not in self.have:
            return
        self._send(
            connection,
            PieceData(piece=message.piece,
                      length=self.meta.piece_length(message.piece)),
        )

    def _on_piece(self, connection: _Connection, message: PieceData) -> None:
        connection.outstanding.discard(message.piece)
        connection.downloaded_window += message.length
        self.bytes_downloaded += message.length
        self._unpend(message.piece)
        piece = message.piece
        if piece in self.have:
            return  # duplicate (e.g. raced a re-request)
        self.have.add(piece)
        for other in self._connections:
            # Have suppression, as real clients do: a neighbour that already
            # holds the piece learns nothing from our Have, and at swarm
            # scale the unsuppressed broadcast is an O(N^2 * pieces) storm.
            if piece not in other.remote_have:
                self._send(other, Have(piece=piece))
            if piece in other.interesting:
                other.interesting.discard(piece)
                self._update_interest(other)
        if self.complete and self.completed_at is None:
            self.completed_at = self.node.clock.now()
            if self.on_complete is not None:
                self.on_complete(self)
        self._fill_pipeline(connection)

    # ------------------------------------------------------------- requesting

    def _add_remote_pieces(
        self, connection: _Connection, pieces: Iterable[int]
    ) -> None:
        """Fold a Bitfield/Have delta into the incremental indexes."""
        remote = connection.remote_have
        interesting = connection.interesting
        avail = self._avail
        have = self.have
        for piece in pieces:
            if piece in remote:
                continue
            remote.add(piece)
            avail[piece] += 1
            if piece not in have:
                interesting.add(piece)
        self._update_interest(connection)

    def _needed_from(self, connection: _Connection) -> List[int]:
        pending = self._pending
        return [p for p in connection.interesting if p not in pending]

    def _update_interest(self, connection: _Connection) -> None:
        interesting = bool(connection.interesting)
        if interesting and not connection.am_interested:
            connection.am_interested = True
            self._send(connection, Interested())
        elif not interesting and connection.am_interested:
            connection.am_interested = False
            self._send(connection, NotInterested())

    def _fill_pipeline(self, connection: _Connection) -> None:
        if connection.peer_choking or not connection.interesting:
            return
        avail = self._avail
        while len(connection.outstanding) < self.config.request_pipeline:
            candidates = self._needed_from(connection)
            if not candidates:
                return
            # Rarest first; random tie-break keeps replicas spreading.
            rarest = min(avail[p] for p in candidates)
            pool = [p for p in candidates if avail[p] == rarest]
            piece = self.rng.choice(pool)
            self._request(connection, piece)

    def _fill_pipelines(self) -> None:
        for connection in self._connections:
            self._fill_pipeline(connection)

    def _request(self, connection: _Connection, piece: int) -> None:
        connection.outstanding.add(piece)
        self._pending[piece] = connection
        self._pending_since[piece] = self.node.clock.now()
        self._send(connection, Request(piece=piece))

    def _unpend(self, piece: int) -> None:
        self._pending.pop(piece, None)
        self._pending_since.pop(piece, None)

    def _retry_stalled(self) -> None:
        now = self.node.clock.now()
        stalled = [
            piece for piece, since in self._pending_since.items()
            if now - since > self.config.stall_timeout_s
        ]
        for piece in stalled:
            holder = self._pending.get(piece)
            if holder is not None:
                holder.outstanding.discard(piece)
            self._unpend(piece)
        if stalled:
            self._fill_pipelines()

    # ---------------------------------------------------------------- choking

    def _choke_round(self, round_index: int) -> None:
        self._choke_rounds += 1
        self._retry_stalled()
        if (
            not self.complete
            and len(self._connections) < self.config.min_peers
            and (self._announce is None or self._announce.done)
        ):
            self._announce = tracker_mod.announce(
                self.udp, self.tracker_addr, self.meta.name, self.name,
                self.port, self._on_tracker_peers,
            )
        interested = [c for c in self._connections if c.peer_interested]
        if self.complete:
            # Seeds reciprocate nothing: rank by recent upload throughput so
            # capacity goes where it is being drained fastest.
            key = lambda c: (-c.uploaded_window, c.remote_name or "")
        else:
            key = lambda c: (-c.downloaded_window, c.remote_name or "")
        # nsmallest(k, ...) is documented equivalent to sorted(...)[:k] but
        # O(n log k): the round only ever needs the top slots, not a full
        # ranking of every interested neighbour.
        slots = max(0, self.config.upload_slots - 1)
        regular = heapq.nsmallest(slots, interested, key=key)
        unchoke = set(regular)
        rotate = (self._choke_rounds % self.config.optimistic_every_rounds) == 1
        if rotate or self._optimistic is None:
            # Pool in stable connection order (dropped connections clear
            # ``_optimistic``), so the rng draw stays deterministic.
            choked_pool = [c for c in interested if c not in unchoke]
            self._optimistic = self.rng.choice(choked_pool) if choked_pool else None
        if self._optimistic is not None:
            unchoke.add(self._optimistic)
        for connection in self._connections:
            should_unchoke = connection in unchoke
            if should_unchoke and connection.am_choking:
                connection.am_choking = False
                self._send(connection, Unchoke())
            elif not should_unchoke and not connection.am_choking:
                connection.am_choking = True
                self._send(connection, Choke())
            connection.downloaded_window = 0
            connection.uploaded_window = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Peer({self.name}, {len(self.have)}/{self.meta.num_pieces} pieces, "
            f"{len(self._connections)} conns)"
        )
