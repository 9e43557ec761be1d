"""Swarm-scale benchmark: events/sec and wall-clock per swarm size.

Three parts, all landing in ``BENCH_swarm.json`` at the repo root:

* **End-to-end pins** — the real ``run_bittorrent`` macro-benchmark at
  25/100/250 leechers, recording wall-clock, engine events, and
  events/sec per swarm size, plus the assertion that every leecher
  completes (the seed code hung or stranded leechers at ≥25).

* **Hot-path gate** — the per-message peer machinery (rarest-first
  selection, interest tracking, Have handling, choke ranking) driven
  through an *identical* scripted message storm against (a) a faithful
  embedded copy of the seed peer's hot paths and (b) the live peer with
  its incremental availability/interest indexes. The seed code rebuilt an
  O(connections x pieces) availability dict on nearly every message; at
  100+ connections the acceptance bar is **2x** ops/sec, and the measured
  gap is far larger. A port-allocation micro rides along: the seed
  ``allocate_port`` scanned the demux table per call.

* **Per-connection memory** (report-only) — the 100-leecher swarm under
  tracemalloc: peak traced bytes, the live bytes at the end of the run
  (every connection is still open there, so that is where they peak)
  split by layer, and the tcp layer's bytes per ``TcpSocket`` and the
  apps layer's bytes per BitTorrent connection record. Time dilation
  stretches bandwidth and CPU but not memory, so these bound how many
  endpoints one host can emulate. A 1,000-leecher swarm runs alongside
  in a fresh interpreter, so its max RSS is its own: max RSS, wall time,
  events/sec and connections.

The legacy classes below are faithful copies of the seed hot paths
(docstrings trimmed) so the comparison never drifts as the live code
evolves.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.apps.bittorrent.messages import (
    Bitfield,
    Choke,
    Have,
    PieceData,
    Request,
    Unchoke,
)
from repro.apps.bittorrent.metainfo import TorrentMeta
from repro.apps.bittorrent import peer as peer_module
from repro.apps.bittorrent.peer import Peer
from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bittorrent
from repro.simnet.engine import Simulator
from repro.simnet.topology import Network
from repro.simnet.units import mbps, ms
from repro.tcp.socket import TcpSocket
from repro.tcp.stack import EPHEMERAL_BASE, TcpStack
from repro.udp.socket import UdpStack

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_swarm.json"
SRC_ROOT = str(REPO_ROOT / "src") + "/"
LEDGER = REPO_ROOT / "perfbench" / "ledger.py"

#: Acceptance bar: the reworked hot paths must clear 2x the seed peer's
#: ops/sec on the same message storm at 100+ connections.
REQUIRED_SPEEDUP = 2.0

#: End-to-end sweep: (leechers, file_bytes, piece_bytes) — the ext5 rows.
SWARM_SIZES = [
    (25, 2 << 20, 65536),
    (100, 1 << 20, 65536),
    (250, 512 * 1024, 32768),
]

#: Hot-path shapes: connection fan-in of a node inside a 100- and a
#: 250-leecher swarm (the seed peer had no connection cap).
HOT_PATH_SHAPES = [(100, 64), (250, 64)]
ROUNDS = 2  # best-of-N to shrug off scheduler noise


def _update_bench(section: str, payload: Dict, provenance: Dict) -> None:
    record = {}
    if BENCH_JSON.exists():
        record = json.loads(BENCH_JSON.read_text())
    record[section] = payload
    record["required_speedup"] = REQUIRED_SPEEDUP
    # Every hot-path bar here is a single-process property, asserted on
    # every machine — the stamp says what box produced the numbers.
    record.update(provenance)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")


# --------------------------------------------------------------------------
# End-to-end pins: the real macro-benchmark per swarm size.
# --------------------------------------------------------------------------


def test_swarm_end_to_end_pins(bench_provenance):
    profile = NetworkProfile.from_rtt(mbps(10), ms(20))
    payload = {}
    print()
    for leechers, file_bytes, piece_bytes in SWARM_SIZES:
        start = time.perf_counter()
        result = run_bittorrent(
            profile, 1, leechers=leechers, file_bytes=file_bytes,
            seed=4242, piece_bytes=piece_bytes,
        )
        wall = time.perf_counter() - start
        rate = result.events_processed / wall
        payload[str(leechers)] = {
            "file_bytes": file_bytes,
            "wall_s": round(wall, 3),
            "events": result.events_processed,
            "events_per_sec": round(rate),
            "completed": result.completed,
            "tracker_announces": result.tracker_announces,
            "connections_total": result.connections_total,
        }
        print(f"n={leechers:4d}: {wall:6.1f} s wall, "
              f"{result.events_processed:,} events, {rate:,.0f} ev/s, "
              f"{result.completed}/{leechers} complete")
        assert result.completed == leechers, (
            f"{leechers - result.completed} leechers stranded at "
            f"swarm size {leechers}"
        )
    _update_bench("end_to_end", payload, bench_provenance(True))


# --------------------------------------------------------------------------
# The seed peer's hot paths, embedded so the comparison never drifts.
# --------------------------------------------------------------------------


@dataclass(eq=False)
class LegacyConnection:
    """The seed's per-neighbour record: piece state held in sets."""

    socket: object
    remote_name: Optional[str] = None
    am_choking: bool = True
    am_interested: bool = False
    peer_choking: bool = True
    peer_interested: bool = False
    remote_have: Set[int] = field(default_factory=set)
    outstanding: Set[int] = field(default_factory=set)
    downloaded_window: int = 0
    uploaded_window: int = 0
    handshake_sent: bool = False


class LegacyPeer(Peer):
    """The seed's message/selection/choking hot paths, verbatim."""

    def _register(self, sock):
        connection = LegacyConnection(socket=sock)
        self._connections.append(connection)
        self._by_socket[sock] = connection
        return connection

    def _request(self, connection, piece):
        connection.outstanding.add(piece)
        self._pending[piece] = connection
        self._pending_since[piece] = self.node.clock.now()
        self._send(connection, Request(piece=piece))

    def _retry_stalled(self):
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

    def _on_message(self, sock, message):
        connection = self._by_socket.get(sock)
        if connection is None:
            return
        if isinstance(message, Bitfield):
            connection.remote_have |= set(message.have)
            self._update_interest(connection)
        elif isinstance(message, Have):
            connection.remote_have.add(message.piece)
            self._update_interest(connection)
            self._fill_pipeline(connection)
        elif isinstance(message, Choke):
            connection.peer_choking = True
            for piece in list(connection.outstanding):
                self._unpend(piece)
            connection.outstanding.clear()
        elif isinstance(message, Unchoke):
            connection.peer_choking = False
            self._fill_pipeline(connection)
        elif isinstance(message, PieceData):
            self._on_piece(connection, message)
        else:
            super()._on_message(sock, message)

    def _on_piece(self, connection, message):
        connection.outstanding.discard(message.piece)
        connection.downloaded_window += message.length
        self.bytes_downloaded += message.length
        self._unpend(message.piece)
        if message.piece in self.have:
            return
        self.have.add(message.piece)
        for other in self._connections:
            self._send(other, Have(piece=message.piece))
        if self.complete and self.completed_at is None:
            self.completed_at = self.node.clock.now()
            if self.on_complete is not None:
                self.on_complete(self)
        self._update_all_interest()
        self._fill_pipeline(connection)

    def _needed_from(self, connection):
        return [
            piece for piece in connection.remote_have
            if piece not in self.have and piece not in self._pending
        ]

    def _update_interest(self, connection):
        interesting = any(
            piece not in self.have for piece in connection.remote_have
        )
        if interesting and not connection.am_interested:
            connection.am_interested = True
            self._send(connection, Interested_legacy)
        elif not interesting and connection.am_interested:
            connection.am_interested = False
            self._send(connection, NotInterested_legacy)

    def _update_all_interest(self):
        for connection in self._connections:
            self._update_interest(connection)

    def _availability(self):
        counts = {}
        for connection in self._connections:
            for piece in connection.remote_have:
                counts[piece] = counts.get(piece, 0) + 1
        return counts

    def _fill_pipeline(self, connection):
        if connection.peer_choking:
            return
        counts = self._availability()
        while len(connection.outstanding) < self.config.request_pipeline:
            candidates = self._needed_from(connection)
            if not candidates:
                return
            rarest = min(counts.get(piece, 1) for piece in candidates)
            pool = [p for p in candidates if counts.get(p, 1) == rarest]
            piece = self.rng.choice(pool)
            self._request(connection, piece)

    def _choke_round(self, round_index):
        self._choke_rounds += 1
        self._retry_stalled()
        interested = [c for c in self._connections if c.peer_interested]
        if self.complete:
            interested.sort(
                key=lambda c: (-c.uploaded_window, c.remote_name or ""))
        else:
            interested.sort(
                key=lambda c: (-c.downloaded_window, c.remote_name or ""))
        regular = interested[: max(0, self.config.upload_slots - 1)]
        unchoke = set(regular)
        rotate = (self._choke_rounds %
                  self.config.optimistic_every_rounds) == 1
        if rotate or self._optimistic not in self._connections:
            choked_pool = [c for c in interested if c not in unchoke]
            self._optimistic = (
                self.rng.choice(choked_pool) if choked_pool else None)
        if self._optimistic is not None:
            unchoke.add(self._optimistic)
        for connection in self._connections:
            should_unchoke = connection in unchoke
            if should_unchoke and connection.am_choking:
                connection.am_choking = False
                self._send(connection, Unchoke_legacy)
            elif not should_unchoke and not connection.am_choking:
                connection.am_choking = True
                self._send(connection, Choke_legacy)
            connection.downloaded_window = 0
            connection.uploaded_window = 0


class _Marker:
    """Stands in for control messages the stub socket just counts."""

    wire_bytes = 5


Interested_legacy = _Marker()
NotInterested_legacy = _Marker()
Unchoke_legacy = _Marker()
Choke_legacy = _Marker()


class _StubSocket:
    """An established socket that swallows sends — the benchmark measures
    peer bookkeeping, not the TCP substrate."""

    __slots__ = ("state", "remote_addr", "sent")

    def __init__(self, remote_addr):
        self.state = "ESTABLISHED"
        self.remote_addr = remote_addr
        self.sent = 0

    def send(self, size_bytes, message=None):
        self.sent += 1


# --------------------------------------------------------------------------
# The scripted message storm: identical for both peers.
# --------------------------------------------------------------------------


def _build_script(conns: int, pieces: int) -> List:
    """One deterministic storm: bitfields, unchokes, Have chatter, and one
    PieceData per piece (delivered to whichever neighbour holds the
    pending request — resolved at replay time, identically for both
    sides since the delivery count per phase is fixed)."""
    script = []
    for j in range(conns):
        script.append(("bitfield", j))
    for j in range(0, conns, 2):
        script.append(("interested", j))
    for j in range(conns):
        script.append(("unchoke", j))
    for piece in range(pieces):
        # Rotating Have chatter between piece arrivals: the messages that
        # made the seed peer rebuild its availability dict over and over.
        for k in range(8):
            script.append(("have", (piece * 7 + k * 11) % conns,
                           (piece + k) % pieces))
        script.append(("piece", piece))
        if piece % 8 == 7:
            script.append(("choke_round",))
    return script


def _drive(peer_cls, conns: int, pieces: int):
    net = Network()
    node = net.add_node("bench")
    net.finalize()
    meta = TorrentMeta(name="bench.torrent", total_bytes=pieces * 16384,
                       piece_size=16384)
    peer = peer_cls(
        tcp=TcpStack(node),
        udp=UdpStack(node),
        meta=meta,
        tracker_addr="tracker",
        rng=random.Random(7),
    )
    sockets = []
    full = frozenset(range(pieces))
    for j in range(conns):
        sock = _StubSocket(f"n{j}")
        connection = peer._register(sock)
        connection.remote_name = sock.remote_addr
        sockets.append(sock)
    script = _build_script(conns, pieces)
    ops = 0
    start = time.perf_counter()
    for op in script:
        ops += 1
        kind = op[0]
        if kind == "bitfield":
            peer._on_message(sockets[op[1]],
                             Bitfield(have=full, num_pieces=pieces))
        elif kind == "interested":
            peer._connections[op[1]].peer_interested = True
        elif kind == "unchoke":
            peer._on_message(sockets[op[1]], Unchoke())
        elif kind == "have":
            peer._on_message(sockets[op[1]], Have(piece=op[2]))
        elif kind == "piece":
            holder = peer._pending.get(op[1])
            sock = holder.socket if holder is not None else sockets[0]
            peer._on_message(
                sock, PieceData(piece=op[1],
                                length=meta.piece_length(op[1])))
        elif kind == "choke_round":
            peer._choke_round(0)
    elapsed = time.perf_counter() - start
    assert peer.complete, f"{peer_cls.__name__} did not finish the storm"
    return ops, elapsed


def _best_rate(peer_cls, conns, pieces, rounds=ROUNDS):
    best = 0.0
    for _ in range(rounds):
        ops, elapsed = _drive(peer_cls, conns, pieces)
        best = max(best, ops / elapsed)
    return best


def test_hot_path_speedup(bench_provenance):
    payload = {}
    print()
    for conns, pieces in HOT_PATH_SHAPES:
        legacy_rate = _best_rate(LegacyPeer, conns, pieces)
        fast_rate = _best_rate(Peer, conns, pieces)
        speedup = fast_rate / legacy_rate
        payload[f"conns{conns}"] = {
            "pieces": pieces,
            "legacy_ops_per_sec": round(legacy_rate),
            "fast_ops_per_sec": round(fast_rate),
            "speedup": round(speedup, 2),
        }
        print(f"conns={conns:4d}: legacy {legacy_rate:,.0f} ops/s, "
              f"fast {fast_rate:,.0f} ops/s -> {speedup:.1f}x")
        assert speedup >= REQUIRED_SPEEDUP, (
            f"peer hot paths only {speedup:.2f}x the seed at "
            f"{conns} connections (required {REQUIRED_SPEEDUP}x)"
        )
    _update_bench("peer_hot_paths", payload, bench_provenance(True))


# --------------------------------------------------------------------------
# Port allocation: the seed scanned the demux table per allocate.
# --------------------------------------------------------------------------


def _legacy_allocate_port(stack: TcpStack) -> int:
    """The seed's allocate_port: O(connections) scan per call."""
    for _ in range(65536 - EPHEMERAL_BASE):
        port = stack._next_ephemeral
        stack._next_ephemeral += 1
        if stack._next_ephemeral >= 65536:
            stack._next_ephemeral = EPHEMERAL_BASE
        if port not in stack._listeners and not any(
            key[0] == port for key in stack._connections
        ):
            return port
    raise RuntimeError("exhausted")


def _allocation_rate(allocate, conns=250, allocations=2000):
    net = Network()
    node = net.add_node("bench")
    net.finalize()
    stack = TcpStack(node)
    for index in range(conns):
        stack._bind_connection((EPHEMERAL_BASE + index, f"peer{index}", 6881),
                               object())
    stack._next_ephemeral = EPHEMERAL_BASE + conns
    start = time.perf_counter()
    for _ in range(allocations):
        allocate(stack)
    return allocations / (time.perf_counter() - start)


def test_port_allocation_speedup(bench_provenance):
    legacy_rate = max(_allocation_rate(_legacy_allocate_port)
                      for _ in range(ROUNDS))
    fast_rate = max(_allocation_rate(lambda s: s.allocate_port())
                    for _ in range(ROUNDS))
    speedup = fast_rate / legacy_rate
    print(f"\nallocate_port: legacy {legacy_rate:,.0f}/s, "
          f"fast {fast_rate:,.0f}/s -> {speedup:.1f}x")
    _update_bench("allocate_port", {
        "connections": 250,
        "legacy_allocs_per_sec": round(legacy_rate),
        "fast_allocs_per_sec": round(fast_rate),
        "speedup": round(speedup, 2),
    }, bench_provenance(True))
    assert speedup >= REQUIRED_SPEEDUP


# --------------------------------------------------------------------------
# Per-connection memory at 100 leechers (report-only).
# --------------------------------------------------------------------------


def _layer_namer():
    """Source file -> ledger layer name (``perfbench/ledger.py``'s map)."""
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER)
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    names = ledger.LAYERS + ("other",)

    def layer(filename: str) -> str:
        if not filename.startswith(SRC_ROOT):
            return "other"
        module = filename[len(SRC_ROOT):-len(".py")].replace("/", ".")
        return names[ledger.layer_of_module(module)]

    return layer


def _live_bytes_by_layer(snapshot, layer) -> Dict[str, int]:
    """Live traced bytes per layer of the allocating line.

    A dataclass's generated ``__init__`` (``<string>``) builds its
    default containers; those count for the line that called it.
    """
    totals: Dict[str, int] = {}
    for trace in snapshot.traces:
        frames = trace.traceback  # oldest frame first
        frame = frames[-1]
        if frame.filename == "<string>" and len(frames) > 1:
            frame = frames[-2]
        name = layer(frame.filename)
        totals[name] = totals.get(name, 0) + trace.size
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def test_swarm_memory_per_connection(cpu_count):
    leechers, file_bytes, piece_bytes = SWARM_SIZES[1]
    end_of_run = {}
    run = Simulator.run

    def snapshot_on_return(sim, *args, **kwargs):
        out = run(sim, *args, **kwargs)
        end_of_run["peak"] = tracemalloc.get_traced_memory()[1]
        end_of_run["snapshot"] = tracemalloc.take_snapshot()
        return out

    layer = _layer_namer()
    Simulator.run = snapshot_on_return
    gc.collect()
    tracemalloc.start(2)
    try:
        result = run_bittorrent(
            NetworkProfile.from_rtt(mbps(10), ms(20)), 1, leechers=leechers,
            file_bytes=file_bytes, seed=4242, piece_bytes=piece_bytes,
        )
        live = gc.get_objects()
        sockets = sum(1 for obj in live if type(obj) is TcpSocket)
        connections = sum(1 for obj in live
                          if type(obj) is peer_module._Connection)
        del live
    finally:
        tracemalloc.stop()
        Simulator.run = run
    assert result.completed == leechers
    by_layer = _live_bytes_by_layer(end_of_run["snapshot"], layer)
    mib = 1 << 20
    payload = {
        "leechers": leechers,
        "peak_traced_mib": round(end_of_run["peak"] / mib, 2),
        "live_at_end_mib": {name: round(size / mib, 2)
                            for name, size in by_layer.items()},
        "tcp_sockets": sockets,
        "connections": connections,
        "tcp_bytes_per_socket": round(by_layer.get("tcp", 0) / sockets),
        "apps_bytes_per_connection": round(
            by_layer.get("apps", 0) / connections),
    }
    print(f"\nn={leechers}: peak traced {payload['peak_traced_mib']} MiB; "
          f"{payload['tcp_bytes_per_socket']} B tcp per socket "
          f"({sockets}), {payload['apps_bytes_per_connection']} B apps per "
          f"connection ({connections}); live by layer "
          f"{payload['live_at_end_mib']}")
    # Report-only: no bar is asserted, so ``speedup_asserted`` (the
    # other sections' stamp) is left as they wrote it.
    _update_bench("memory", payload, {"cpu_count": cpu_count})


# --------------------------------------------------------------------------
# A 1,000-leecher swarm's max RSS (report-only).
# --------------------------------------------------------------------------

#: (leechers, file_bytes, piece_bytes): a small file keeps the run near a
#: minute while every peer still fills its connection cap.
LARGE_SWARM = (1000, 256 * 1024, 16 * 1024)

#: Runs the large swarm and prints one JSON line. A fresh interpreter's
#: ``ru_maxrss`` is the run's own peak, not the test process's.
_LARGE_SWARM_SCRIPT = """
import json, resource, sys, time
from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bittorrent
from repro.simnet.units import mbps, ms
leechers, file_bytes, piece_bytes = map(int, sys.argv[1:4])
start = time.perf_counter()
result = run_bittorrent(
    NetworkProfile.from_rtt(mbps(10), ms(20)), 1, leechers=leechers,
    file_bytes=file_bytes, seed=4242, piece_bytes=piece_bytes,
)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "events": result.events_processed,
    "completed": result.completed,
    "connections_total": result.connections_total,
    "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def test_large_swarm_max_rss(cpu_count):
    leechers, file_bytes, piece_bytes = LARGE_SWARM
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _LARGE_SWARM_SCRIPT,
         str(leechers), str(file_bytes), str(piece_bytes)],
        env=env, capture_output=True, text=True, check=True,
    )
    row = json.loads(out.stdout.strip().splitlines()[-1])
    assert row["completed"] == leechers
    payload = {
        "leechers": leechers,
        "file_bytes": file_bytes,
        "piece_bytes": piece_bytes,
        "max_rss_mib": round(row["max_rss_mib"], 1),
        "wall_s": round(row["wall_s"], 1),
        "events": row["events"],
        "events_per_sec": round(row["events"] / row["wall_s"]),
        "connections_total": row["connections_total"],
    }
    print(f"\nn={leechers}: max RSS {payload['max_rss_mib']} MiB, "
          f"{payload['wall_s']} s wall, {payload['events']:,} events, "
          f"{payload['events_per_sec']:,} ev/s, "
          f"{payload['connections_total']:,} connections")
    # Report-only, like the memory section.
    _update_bench("memory_large_swarm", payload, {"cpu_count": cpu_count})
