"""Experiment runners: the reusable machinery behind every figure.

Each runner takes a **perceived** (target) network profile and a TDF,
derives the physical configuration via
:func:`repro.core.dilation.physical_for`, builds the topology and hands it
to a :class:`~repro.harness.scenario.Scenario` — the testbed that applies
the run's axes and boots the guests — then drives a workload for a fixed
span of *virtual* time and reports metrics in virtual units. Running the
same function with ``tdf=1`` produces the scaled baseline the paper
validates against, with identical RNG streams, so results are comparable
point by point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..apps.bittorrent import PeerConfig, TorrentMeta, build_swarm
from ..apps.bittorrent.swarm import salt_fraction
from ..apps.crosstraffic import CbrSource, UdpSink
from ..apps.httpclient import OpenLoopHttpLoad
from ..apps.httpd import WebServer
from ..apps.iperf import IperfClient, IperfServer
from ..apps.streaming import JitterBufferSink, MediaSource
from ..core.dilation import NetworkProfile, physical_for
from ..core.tdf import TdfLike, as_tdf
from ..parallel.shard import run_sharded
from ..simnet.errors import ConfigurationError
from ..simnet.impairments import ImpairmentSpec
from ..simnet.queues import DropTailQueue
from ..simnet.schedule import ScheduleSpec
from ..simnet.topology import Network, build_dumbbell
from ..trace.recorder import FlightRecorder
from ..trace.spec import TraceSpec
from ..tcp.options import TcpOptions
from ..tcp.stack import TcpStack
from ..udp.socket import UdpStack
from ..workloads.specweb import SpecWebMix
from .scenario import Scenario, check_axes

__all__ = [
    "BulkFlowResult",
    "WebResult",
    "BitTorrentResult",
    "StreamingResult",
    "CpuResult",
    "DynamicTdfResult",
    "run_bulk",
    "run_web",
    "run_bittorrent",
    "run_starlink",
    "run_cpu_task",
    "run_dynamic_tdf",
    "default_queue_packets",
    "relative_error",
    "RUNNERS",
]

#: Frame size used for queue-sizing arithmetic (MSS + headers).
FRAME_BYTES = 1500


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (0 when both are 0)."""
    if reference == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - reference) / abs(reference)


def default_queue_packets(profile: NetworkProfile,
                          frame_bytes: int = FRAME_BYTES) -> int:
    """Queue sized at one bandwidth-delay product (standard provisioning).

    Note the BDP in *packets* is dilation-invariant: physical bandwidth
    shrinks by k while physical RTT grows by k, so the same queue depth is
    correct for a dilated run and its baseline — exactly as the paper kept
    one dummynet queue configuration across TDFs. ``frame_bytes`` must
    match the flow's actual frame size or the buffer is mis-provisioned
    (a 1500-byte sizing under 9000-byte jumbo frames yields a 6x-BDP
    bufferbloat queue whose delay trips spurious RTOs).

    Size from the **perceived** profile, not the physical one: the
    invariance above holds exactly in real arithmetic but not in floats —
    dividing bandwidth by an awkward TDF (e.g. 7) can land the product one
    ulp below an integer packet count, which truncation then turns into a
    whole-packet difference between a dilated run and its baseline (the
    seed-era 60 Mbps / 30 ms / TDF 7 equivalence outlier). The near-integer
    snap below guards direct callers that only have the physical profile.
    """
    bdp_bytes = profile.bandwidth_bps * profile.rtt_s / 8
    packets = bdp_bytes / frame_bytes
    snapped = round(packets)
    if snapped > 0 and abs(packets - snapped) < 1e-9 * snapped:
        packets = snapped
    return int(min(max(packets, 20), 4000))


def _two_hosts(a: str, b: str, bandwidth_bps: float, delay_s: float,
               queue_packets: int):
    """A finalized two-node network joined by one drop-tail link;
    returns ``(network, node_a, node_b)``."""
    net = Network()
    node_a = net.add_node(a)
    node_b = net.add_node(b)
    net.add_link(node_a, node_b, bandwidth_bps, delay_s,
                 queue_factory=lambda: DropTailQueue(
                     capacity_packets=queue_packets))
    net.finalize()
    return net, node_a, node_b


def _transfer_bytes(perceived: NetworkProfile, duration_s: float) -> int:
    """A bulk transfer that never finishes inside the measurement window:
    twice what the perceived path could move in the whole run."""
    return int(perceived.bandwidth_bps * duration_s / 8 * 2) + (1 << 20)


def _bulk_options(perceived: NetworkProfile, flavor: str = "newreno",
                  mss: int = 1460) -> TcpOptions:
    """TCP options for a bulk flow, SACK on. The receive window is sized
    never to be the bottleneck (the paper's guests relied on window
    scaling for the same reason)."""
    receive_buffer = max(1 << 20, int(perceived.bandwidth_delay_product_bits / 2))
    return TcpOptions(flavor=flavor, sack=True, mss=mss,
                      receive_buffer=receive_buffer)


# ===================================================================== bulk TCP


@dataclass
class BulkFlowResult:
    """Metrics from a bulk-transfer (iperf) run, in virtual units."""

    goodput_bps: float
    per_flow_goodput_bps: List[float]
    delivered_bytes: int
    retransmits: int
    timeouts: int
    srtt: Optional[float]
    segments_sent: int
    interarrivals: List[float] = field(default_factory=list)
    #: Total engine events executed by the run (determinism fingerprint).
    events_processed: int = 0
    #: Cumulative dupack / fast-retransmit accounting over all senders.
    dupacks: int = 0
    fast_retransmits: int = 0
    fast_recoveries: int = 0
    #: Drop taxonomy of the bottleneck's data-direction egress
    #: (reason -> count; empty on a clean run).
    bottleneck_drops: Dict[str, int] = field(default_factory=dict)
    #: Corrupted segments discarded by the receivers' checksum validation.
    checksum_drops: int = 0
    #: Rate the CBR cross traffic delivered after warmup, virtual bits per
    #: second (0.0 without cross traffic).
    cross_rate_bps: float = 0.0
    #: Flight-recorder events (empty unless the run was given a TraceSpec).
    trace_events: List = field(default_factory=list)
    #: Per-shard barrier accounting when the run was sharded (empty for
    #: single-process runs; excluded from figure reports).
    shard_stats: List = field(default_factory=list)
    #: Wall-clock pacing accounting when the run was real-time paced
    #: (:meth:`repro.realtime.driver.RealtimeStats.as_dict`; empty for
    #: batch runs).
    realtime_stats: Dict = field(default_factory=dict)


def run_bulk(
    perceived: NetworkProfile,
    tdf: TdfLike,
    duration_s: float,
    flows: int = 1,
    flavor: str = "newreno",
    queue_packets: Optional[int] = None,
    warmup_s: float = 0.0,
    collect_interarrivals: bool = False,
    mss: int = 1460,
    cross_share: float = 0.0,
    impair: Optional[ImpairmentSpec] = None,
    schedule: Optional[ScheduleSpec] = None,
    trace: Optional[TraceSpec] = None,
    shards: int = 1,
    fidelity: str = "packet",
    realtime=False,
    _shard=None,
) -> BulkFlowResult:
    """Bulk TCP (SACK on) over a dilated dumbbell; goodput in virtual
    bits/second.

    ``flows`` sender/receiver pairs share the bottleneck — with
    ``flows=3`` this is also the paper's consolidation setup (ext2):
    several dilated guests multiplexed on one machine, contending for its
    shared uplink.

    ``cross_share > 0`` adds one more pair after the TCP pairs: a UDP
    :class:`~repro.apps.crosstraffic.CbrSource` sending 1000-byte
    datagrams at ``cross_share`` of the perceived bottleneck rate to a
    sink on port 9000 (ext1). The source runs inside a dilated guest like
    everything else, so a dilated run and its baseline offer the same
    virtual-time load; ``cross_rate_bps`` is its post-warmup delivered rate.

    ``realtime=True`` paces the run against the wall clock with a
    :class:`repro.realtime.driver.RealtimeDriver`: every event fires at
    its physical timestamp plus a fixed monotonic-clock offset, so the run
    takes ``duration_s x tdf`` wall seconds and the result gains
    ``realtime_stats`` (deadline misses, max slip, busy fraction). Pass a
    :class:`~repro.realtime.driver.RealtimeConfig` instead of ``True`` to
    tune the pacing knobs. Event order — and every metric — is
    bit-identical to the batch run: the driver only decides *when*
    ``sim.run`` is called, never what it executes. Requires ``shards=1``
    (the driver paces a single engine).

    ``fidelity="hybrid"`` installs a :class:`repro.simnet.fluid.FluidManager`
    on the engine: steady-state flows are advanced by the coarse-stepped
    fluid model and fall back to per-packet emulation on any
    discontinuity. Results are statistically equivalent to
    ``fidelity="packet"`` (the default, which is bit-exact with earlier
    releases) at a fraction of the engine events.

    ``duration_s`` and ``warmup_s`` are virtual seconds; the physical run
    is ``tdf`` times longer, exactly as the paper's dilated experiments
    took TDF-times the wall-clock time.

    ``impair`` attaches a seed-deterministic impairment chain to the
    bottleneck's data-direction egress. Per-packet decisions (loss,
    duplication, corruption) depend only on the packet sequence, and the
    spec's time-valued knobs are virtual and scaled by the TDF, so a
    dilated lossy run faces the *same* impairment pattern as its baseline.

    ``trace`` attaches a flight recorder per the spec (point / kinds /
    capacity / tcp / timers) and returns its events in
    ``BulkFlowResult.trace_events``. The recorder owns the first
    receiver's clock, so every event carries a virtual timestamp and TDF
    epoch changes are recorded. Recording spans the whole run including
    warmup (so a dilated trace and its baseline's align from event zero).

    ``schedule`` drives the bottleneck link's delay/bandwidth/liveness as
    a piecewise function of *virtual* time
    (:class:`~repro.simnet.schedule.ScheduleSpec`): the same perceived
    trace is replayed under every TDF. Composes with ``shards=2`` — the
    scheduled bottleneck *is* the cut link, and the partition derives its
    lookahead from the schedule's minimum delay — and with
    ``fidelity="hybrid"`` (the link is not fluid-transparent while a
    change is pending).

    ``shards=2`` splits the dumbbell at the bottleneck link — senders and
    left router in one worker process, receivers and right router in the
    other — and runs the two engines under the conservative barrier of
    :mod:`repro.parallel.shard`. The merged result is event-for-event
    identical to ``shards=1``. ``_shard`` is internal: the context a
    sharded worker executes under.
    """
    if not 0.0 <= cross_share < math.inf:
        raise ConfigurationError(
            f"cross_share must be finite and >= 0: {cross_share}"
        )
    if cross_share > 0 and fidelity == "hybrid":
        # The fluid model cannot see CBR datagrams share the bottleneck:
        # ext1's cell loses 18.5% of its TCP goodput against packet level.
        raise ConfigurationError(
            "cross_share > 0 requires fidelity='packet': the fluid model "
            "does not match packet level under cross traffic"
        )
    if shards != 1 and _shard is None:
        return _run_sharded(
            "run_bulk", locals(),
            _bulk_assignment(flows + (cross_share > 0), shards), _merge_bulk,
        )
    factor = as_tdf(tdf)
    # Sized from the perceived profile: the BDP in packets is
    # dilation-invariant, and the perceived numbers are TDF-free so the
    # dilated run and its baseline can never round to different depths.
    queue = (
        queue_packets
        if queue_packets is not None
        else default_queue_packets(perceived, frame_bytes=mss + 40)
    )
    # Access links are 10x faster than the bottleneck with ~zero delay.
    physical = physical_for(perceived, factor)
    access = physical_for(
        NetworkProfile(perceived.bandwidth_bps * 10, 1e-5), factor
    )
    pairs = flows + (cross_share > 0)
    bell = build_dumbbell(
        pairs=pairs,
        access_bandwidth_bps=access.bandwidth_bps,
        bottleneck_bandwidth_bps=physical.bandwidth_bps,
        bottleneck_delay_s=physical.delay_s,
        access_delay_s=access.delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue),
    )
    bed = Scenario(bell.network, factor, schedule=schedule,
                   schedule_link=bell.bottleneck, shard=_shard,
                   fidelity=fidelity, realtime=realtime, trace=trace)
    bottleneck_egress = bell.bottleneck.interface_from(bell.router_left)
    bed.impair(impair, bottleneck_egress, bell.router_left)
    share = 1.0 / (2 * pairs)
    options = _bulk_options(perceived, flavor, mss)
    servers: List[IperfServer] = []
    clients: List[IperfClient] = []
    receiver_vm = None
    for index in range(flows):
        bed.boot(f"snd{index}", bell.senders[index], share)
        vm = bed.boot(f"rcv{index}", bell.receivers[index], share)
        if index == 0:
            receiver_vm = vm
        # Stacks and applications only exist on the shard that owns the
        # node (positional None placeholders elsewhere); VMs exist in
        # every worker because their creation schedules nothing.
        servers.append(
            IperfServer(TcpStack(bell.receivers[index]), options=options)
            if bed.owns(bell.receivers[index])
            else None
        )
        clients.append(
            IperfClient(
                TcpStack(bell.senders[index]),
                bell.receivers[index].name,
                total_bytes=_transfer_bytes(perceived, duration_s),
                options=options,
                flow_id=f"flow{index}",
            )
            if bed.owns(bell.senders[index])
            else None
        )
    sink = cross = None
    if cross_share > 0:
        source_node, sink_node = bell.senders[flows], bell.receivers[flows]
        bed.boot(f"snd{flows}", source_node, share)
        bed.boot(f"rcv{flows}", sink_node, share)
        if bed.owns(sink_node):
            sink = UdpSink(UdpStack(sink_node), 9000)
        if bed.owns(source_node):
            cross = CbrSource(
                UdpStack(source_node), sink_node.name, 9000,
                rate_bps=perceived.bandwidth_bps * cross_share,  # virtual
                packet_bytes=1000, flow_id="cross",
            )
    arrivals = None
    if collect_interarrivals and bed.owns(bell.receivers[0]):
        # Unbounded, so no arrival of the measured window is evicted.
        arrivals = FlightRecorder(capacity=None, name="interarrivals",
                                  packet_kinds=("rx",), flow_id="flow0")
        arrivals.attach_interface(bell.receiver_links[0].b_to_a)
    assert receiver_vm is not None
    recorder = bed.record(
        "bulk",
        {
            "bottleneck": (bottleneck_egress, bell.router_left),
            "reverse": (bell.bottleneck.interface_from(bell.router_right),
                        bell.router_right),
            "receiver": (bell.receiver_links[0].b_to_a, bell.receivers[0]),
        },
        receiver_vm.clock, bell.receivers[0], "rcv0",
    )
    for client in clients:
        if client is not None:
            client.start()
    if cross is not None:
        cross.start()
    if recorder is not None and trace.tcp and clients[0] is not None:
        recorder.attach_socket(clients[0].socket)
    warmup_bytes = [0] * flows
    cross_start = 0
    if warmup_s > 0:
        bed.run(receiver_vm.clock.to_physical(warmup_s))
        warmup_bytes = [
            server.total_bytes if server is not None else 0
            for server in servers
        ]
        if sink is not None:
            cross_start = sink.bytes_received
        if arrivals is not None:
            arrivals.clear()
    bed.run(receiver_vm.clock.to_physical(duration_s))
    span = duration_s - warmup_s
    per_flow = [
        (server.total_bytes - start) * 8 / span if server is not None else 0.0
        for server, start in zip(servers, warmup_bytes)
    ]
    delivered = sum(server.total_bytes - start
                    for server, start in zip(servers, warmup_bytes)
                    if server is not None)
    interarrivals: List[float] = []
    if arrivals is not None:
        to_local = receiver_vm.clock.to_local
        stamps = [to_local(event.physical_time) for event in arrivals]
        interarrivals = [b - a for a, b in zip(stamps, stamps[1:])]
    live = [c for c in clients if c is not None]
    first = clients[0].socket if clients[0] is not None else None
    return bed.finish(BulkFlowResult(
        goodput_bps=sum(per_flow),
        per_flow_goodput_bps=per_flow,
        delivered_bytes=delivered,
        retransmits=sum(c.socket.retransmits for c in live if c.socket),
        timeouts=sum(c.socket.timeouts for c in live if c.socket),
        srtt=first.rtt.srtt if first is not None else None,
        segments_sent=sum(c.socket.segments_sent for c in live if c.socket),
        interarrivals=interarrivals,
        dupacks=sum(c.socket.dupacks_received for c in live if c.socket),
        fast_retransmits=sum(
            c.socket.fast_retransmits for c in live if c.socket
        ),
        fast_recoveries=sum(
            c.socket.fast_recoveries for c in live if c.socket
        ),
        bottleneck_drops=dict(bottleneck_egress.drops),
        checksum_drops=sum(
            server.stack.checksum_drops
            for server in servers
            if server is not None
        ),
        cross_rate_bps=(
            (sink.bytes_received - cross_start) * 8 / span
            if sink is not None else 0.0
        ),
    ))


# ========================================================================= web


@dataclass
class WebResult:
    """Metrics from one web-load run, in virtual units."""

    offered_rps: float
    issued: int
    completed: int
    failed: int
    throughput_rps: float
    mean_latency_s: float
    p95_latency_s: float
    bytes_received: int


def run_web(
    perceived: NetworkProfile,
    tdf: TdfLike,
    rate_rps: float,
    duration_s: float,
    seed: int,
    host_cycles_per_second: float = 1e9,
) -> WebResult:
    """SPECweb-like open-loop load against the dilated web server.

    The server's CPU share is compensated (0.5/TDF, capped at 0.5) so the
    guest perceives a constant-speed CPU while the network dilates — the
    paper's recipe for scaling resources independently. Requests issued
    in ``duration_s`` get 2 more virtual seconds to drain.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived, factor)
    net, server_node, client_node = _two_hosts(
        "www", "client", physical.bandwidth_bps, physical.delay_s,
        default_queue_packets(perceived),
    )
    bed = Scenario(net, factor, host_cycles_per_second=host_cycles_per_second)
    server_vm = bed.boot("www-vm", server_node,
                         min(0.5, 0.5 / float(factor.value)))
    bed.boot("client-vm", client_node, 0.25)
    mix = SpecWebMix(rng=random.Random(seed))
    WebServer(TcpStack(server_node), mix, cpu=server_vm.cpu)
    load = OpenLoopHttpLoad(
        TcpStack(client_node),
        "www",
        rate_per_second=rate_rps,
        mix=SpecWebMix(rng=random.Random(seed + 1)),
        rng=random.Random(seed + 2),
        duration_s=duration_s,
    )
    load.start()
    bed.run(server_vm.clock.to_physical(duration_s + 2.0))
    samples = load.latency.samples
    p95 = 0.0
    if samples:
        from ..stats.cdf import percentile

        p95 = percentile(samples, 95)
    return WebResult(
        offered_rps=rate_rps,
        issued=load.issued,
        completed=load.completed,
        failed=load.failed,
        throughput_rps=load.completed / duration_s,
        mean_latency_s=load.latency.summary.mean,
        p95_latency_s=p95,
        bytes_received=load.bytes_received,
    )


# ================================================================== BitTorrent


@dataclass
class BitTorrentResult:
    """Swarm metrics in virtual units."""

    download_times_s: List[float]
    completed: int
    leechers: int
    seed_uploaded_bytes: int
    total_downloaded_bytes: int
    #: Total engine events executed by the run (determinism fingerprint).
    events_processed: int = 0
    #: Announces the tracker answered (retries included).
    tracker_announces: int = 0
    #: Live peer connections across the swarm when the run ended.
    connections_total: int = 0
    #: Flight-recorder events when a ``trace`` spec was supplied.
    trace_events: List = field(default_factory=list)
    #: Per-shard barrier accounting when the run was sharded (empty for
    #: single-process runs; excluded from figure reports).
    shard_stats: List = field(default_factory=list)
    #: Wall-clock pacing accounting when the run was real-time paced
    #: (empty for batch runs).
    realtime_stats: Dict = field(default_factory=dict)


def run_bittorrent(
    perceived_leaf: NetworkProfile,
    tdf: TdfLike,
    leechers: int,
    file_bytes: int,
    seed: int,
    piece_bytes: int = 65536,
    impair: Optional[ImpairmentSpec] = None,
    impair_tracker: Optional[ImpairmentSpec] = None,
    schedule: Optional[ScheduleSpec] = None,
    trace: Optional[TraceSpec] = None,
    delay_salt: float = 0.0,
    shards: int = 1,
    fidelity: str = "packet",
    _shard=None,
) -> BitTorrentResult:
    """A one-seed swarm on a dilated star; download times in virtual seconds.

    Peers choke every 5 virtual seconds (a stalled request times out after
    20), and the run stops when every leecher completes or at the
    600-virtual-second horizon, checked every 5 virtual seconds.

    ``impair`` attaches a seed-deterministic impairment chain to the seed's
    uplink egress (the link every original piece copy crosses), so losses
    bite the swarm's primary data source. ``impair_tracker`` impairs both
    directions of the tracker's access link instead — the scenario the
    announce retry exists for.

    ``schedule`` drives the *seed's access link* — the path every original
    piece copy crosses — as a piecewise function of virtual time
    (:class:`~repro.simnet.schedule.ScheduleSpec`): the Starlink-backhaul
    scenario, where the swarm's primary source sits behind a handover
    path. A sharded run derives its cut lookahead from the schedule's
    minimum delay.

    ``trace`` attaches a flight recorder: point ``bottleneck`` is the
    seed's uplink egress, ``reverse`` the hub-to-seed direction, and
    ``receiver`` the first leecher's ingress. Timestamps ride the first
    leecher's clock; the ``tcp=1`` flag is ignored (a swarm has no single
    distinguished socket).

    ``delay_salt`` spreads the leaf link propagation delays by a relative
    per-leaf offset (leaf ``i`` gets ``delay * (1 + delay_salt * frac(i))``
    with a fixed hash fraction). The default 0.0 keeps the historical
    perfectly-symmetric star. A tiny salt (``1e-6`` ≈ tens of nanoseconds
    at 10 ms) breaks the float-time phase locking a symmetric swarm falls
    into, where packets from different leaves reach the hub at *bit-equal*
    timestamps; those ties are resolved by unbounded event-creation
    genealogy in a single process, which no bounded cross-shard merge key
    can reproduce (see :mod:`repro.parallel.shard`).

    ``shards=N`` keeps the hub and tracker in worker 0, stripes the seed
    into worker 1 (its upload traffic is ~15% of swarm events — leaving
    it beside the hub's ~30% starved every other worker), and stripes the
    leechers over all workers, synchronised by the
    conservative barrier of :mod:`repro.parallel.shard` with the star
    links' propagation delay as lookahead. Aggregate results (event
    counts, byte totals, announce counts) merge exactly for any
    configuration; per-packet event order — and hence download times — is
    event-for-event identical to ``shards=1`` when the topology is free of
    cross-leaf timestamp ties, which ``delay_salt`` guarantees. ``_shard``
    is internal.
    """
    if not 0.0 <= delay_salt < math.inf:
        raise ConfigurationError(
            f"delay_salt must be finite and >= 0: {delay_salt}"
        )
    if shards != 1 and _shard is None:
        return _run_sharded("run_bittorrent", locals(),
                            _swarm_assignment(leechers, shards),
                            _merge_bittorrent)
    factor = as_tdf(tdf)
    physical = physical_for(perceived_leaf, factor)
    net = Network()
    hub = net.add_node("hub")
    leaf_count = leechers + 2  # tracker + seed
    leaves = []
    links = []
    for index in range(leaf_count):
        leaf = net.add_node(f"h{index}")
        link = net.add_link(
            leaf, hub, physical.bandwidth_bps,
            physical.delay_s * (1.0 + delay_salt * salt_fraction(index)),
            queue_factory=lambda: DropTailQueue(
                capacity_packets=default_queue_packets(perceived_leaf)
            ),
        )
        leaves.append(leaf)
        links.append(link)
    net.finalize()
    tracker_link, seed_link, first_leecher_link = links[0], links[1], links[2]
    # Swarm traffic is bursty and multiplexed, so under fidelity="hybrid"
    # most flows stay packet-level most of the time; long piece streams
    # over quiet leaf links still promote (and demote on the first
    # competing transmit).
    bed = Scenario(net, factor, schedule=schedule, schedule_link=seed_link,
                   shard=_shard, fidelity=fidelity, trace=trace)
    # Each chain belongs to the shard that owns the transmitting node
    # (under the standard assignment the seed's uplink sits in shard 1,
    # the tracker link in shard 0).
    bed.impair(impair, seed_link.interface_from(leaves[1]), leaves[1])
    bed.impair(impair_tracker, tracker_link.interface_from(hub), hub)
    bed.impair(impair_tracker, tracker_link.interface_from(leaves[0]),
               leaves[0])
    share = 1.0 / leaf_count
    vms = [bed.boot(f"vm{index}", leaf, share)
           for index, leaf in enumerate(leaves)]
    meta = TorrentMeta(name="bench.torrent", total_bytes=file_bytes,
                       piece_size=piece_bytes)
    swarm = build_swarm(
        tracker_node=leaves[0],
        seed_nodes=[leaves[1]],
        leecher_nodes=leaves[2:],
        meta=meta,
        rng=random.Random(seed),
        config=PeerConfig(choke_interval_s=5.0, stall_timeout_s=20.0),
        include=bed.owns if _shard is not None else None,
    )
    bed.record(
        "swarm",
        {
            "bottleneck": (seed_link.interface_from(leaves[1]), leaves[1]),
            "reverse": (seed_link.interface_from(hub), hub),
            "receiver": (first_leecher_link.interface_from(hub), hub),
        },
        vms[2].clock, leaves[2], "leecher0",
    )
    swarm.start()
    clock = vms[0].clock
    horizon_s = 600.0
    elapsed = 0.0
    # ``all_agree`` makes the completion predicate global, so every shard
    # takes the same number of 5-virtual-second strides (shards=1: the
    # in-process context reduces it to the local predicate unchanged).
    while not bed.shard.all_agree(swarm.all_complete()) and elapsed < horizon_s:
        elapsed = min(horizon_s, elapsed + 5.0)
        bed.run(clock.to_physical(elapsed))
    seed_peer = swarm.seeds[0]
    return bed.finish(BitTorrentResult(
        download_times_s=sorted(swarm.download_times()),
        completed=sum(
            1 for p in swarm.leechers if p is not None and p.complete
        ),
        leechers=leechers,
        seed_uploaded_bytes=(
            seed_peer.bytes_uploaded if seed_peer is not None else 0
        ),
        total_downloaded_bytes=sum(
            p.bytes_downloaded for p in swarm.leechers if p is not None
        ),
        tracker_announces=(
            swarm.tracker.announces if swarm.tracker is not None else 0
        ),
        connections_total=sum(p.connection_count for p in swarm.peers),
    ))


# ============================================================== starlink/QoE


@dataclass
class StreamingResult:
    """Streaming-over-a-dynamic-path metrics, in virtual units."""

    frames_sent: int
    frames_on_time: int
    frames_late: int
    frames_lost: int
    #: Per-frame one-way delays (virtual seconds, arrival order) — the
    #: distribution the ext6 CDF-quantile/KS gates compare across TDFs.
    frame_delays_s: List[float]
    playable_fraction: float
    #: Mean absolute delay variation between consecutive arrivals.
    jitter_s: float
    #: (late + lost) / sent — the QoE stall proxy.
    stall_fraction: float
    #: Goodput of the competing bulk download (0.0 when ``bulk=False``).
    bulk_goodput_bps: float
    #: Schedule entries actually applied (0 for a static run).
    schedule_changes: int
    #: Egress drops with reason "down" on the scheduled link — packets
    #: that hit a handover outage.
    outage_drops: int
    #: Total engine events executed by the run (determinism fingerprint).
    events_processed: int = 0


def run_starlink(
    perceived: NetworkProfile,
    tdf: TdfLike,
    duration_s: float,
    schedule: Optional[ScheduleSpec] = None,
    frame_interval_s: float = 0.020,
    bulk: bool = True,
) -> StreamingResult:
    """Media streaming (plus a competing bulk flow) over a scheduled path.

    The Starlink-like three-node chain: a user terminal (``ut``) behind a
    space segment whose delay/bandwidth/liveness follow ``schedule``
    (virtual-time indexed — see :class:`~repro.simnet.schedule.ScheduleSpec`),
    a gateway (``gw``), and a server (``srv``) on a fast terrestrial
    link. ``srv`` streams 480-byte media frames every ``frame_interval_s``
    downlink to a jitter buffer (80 ms playout delay) on ``ut``; with
    ``bulk=True`` a NewReno TCP download shares the path, so handovers are
    felt through the queue as well as the wire. Both links queue one
    perceived BDP of 1500-byte frames.

    All metrics are virtual-axis: frame delays come from the dilated
    guest clocks, so a TDF-10 run and its baseline are compared on the
    perceived timeline — dilation equivalence under a *time-varying*
    topology is exactly what ext6 gates.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived, factor)
    terrestrial = physical_for(
        NetworkProfile(perceived.bandwidth_bps * 10, 2e-3), factor
    )
    queue = default_queue_packets(perceived)
    net = Network()
    ut = net.add_node("ut")
    gw = net.add_node("gw")
    srv = net.add_node("srv")
    space = net.add_link(
        ut, gw, physical.bandwidth_bps, physical.delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue),
    )
    net.add_link(
        gw, srv, terrestrial.bandwidth_bps, terrestrial.delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue),
    )
    net.finalize()
    bed = Scenario(net, factor, schedule=schedule, schedule_link=space)
    vm_ut = bed.boot("ut", ut, 1 / 3)
    bed.boot("gw", gw, 1 / 3)
    bed.boot("srv", srv, 1 / 3)
    sink = JitterBufferSink(
        UdpStack(ut), port=5004, playout_delay_s=0.080, keep_samples=True,
    )
    # Stop the frame train half a virtual second before the end of the
    # run so tail frames still in flight are not miscounted as QoE loss.
    total_frames = max(1, int((duration_s - 0.5) / frame_interval_s))
    source = MediaSource(
        UdpStack(srv), "ut", 5004,
        frame_interval_s=frame_interval_s,
        frame_bytes=480,
        total_frames=total_frames,
        flow_id="media",
    )
    server = None
    if bulk:
        options = _bulk_options(perceived)
        server = IperfServer(TcpStack(ut), options=options)
        client = IperfClient(
            TcpStack(srv), "ut",
            total_bytes=_transfer_bytes(perceived, duration_s),
            options=options, flow_id="bulk",
        )
        client.start()
    source.start()
    bed.run(vm_ut.clock.to_physical(duration_s))
    sink.finalize(source.frames_sent)
    outage_drops = (
        space.a_to_b.drops.get("down", 0) + space.b_to_a.drops.get("down", 0)
    )
    return bed.finish(StreamingResult(
        frames_sent=source.frames_sent,
        frames_on_time=sink.on_time,
        frames_late=sink.late,
        frames_lost=sink.lost,
        frame_delays_s=list(sink.delays),
        playable_fraction=sink.playable_fraction(),
        jitter_s=sink.jitter_s(),
        stall_fraction=sink.stall_fraction(source.frames_sent),
        bulk_goodput_bps=(
            server.total_bytes * 8 / duration_s if server is not None else 0.0
        ),
        schedule_changes=(
            bed.link_schedule.applied if bed.link_schedule is not None else 0
        ),
        outage_drops=outage_drops,
    ))


# ============================================================= guest programs


@dataclass
class BuildJobResult:
    """Phase timings of the mixed-resource guest program, virtual seconds."""

    disk_read_s: float
    compute_s: float
    disk_write_s: float
    network_s: float
    total_s: float


def run_guest_build_job(
    perceived_net: NetworkProfile,
    tdf: TdfLike,
    compensate: bool = True,
) -> BuildJobResult:
    """A "build server" job touching every dilated resource in sequence:
    read 20 MiB of sources from disk → compile (2e9 cycles) → write a
    5 MiB artifact → upload 10 MiB over TCP. Timed phase by phase with
    the guest's own clock, on a 1 GHz host with a 100 MB/s disk.

    ``compensate=True`` throttles CPU and disk by 1/TDF so only the
    network dilates (the paper's independent-scaling recipe); with
    ``compensate=False`` every resource appears TDF-times faster.
    """
    from ..core.disk import VirtualDisk
    from ..core.guest import (
        CloseSock,
        Compute,
        Connect,
        DiskRead,
        DiskWrite,
        Flush,
        GuestKernel,
        Now,
        SendOn,
    )

    factor = as_tdf(tdf)
    physical = physical_for(perceived_net, factor)
    net, builder, server = _two_hosts(
        "builder", "artifacts", physical.bandwidth_bps, physical.delay_s,
        default_queue_packets(perceived_net),
    )
    bed = Scenario(net, factor)
    scale = 1.0 / float(factor.value) if compensate else 1.0
    vm = bed.boot("builder-vm", builder, min(0.5, 0.5 * scale))
    # The throttle alone compensates: it stretches both positioning and
    # transfer by TDF physically, so the guest perceives them unchanged.
    vm.attach_disk(VirtualDisk(
        net.sim, bandwidth_bytes_per_s=100e6,
        positioning_delay_s=0.004,
        throttle=min(1.0, scale),
    ))
    bed.boot("server-vm", server, 0.25)
    kernel = GuestKernel(vm)
    kernel.use_tcp(TcpStack(builder))
    server_stack = TcpStack(server)
    server_stack.listen(80, lambda s: None)
    marks: Dict[str, float] = {}

    def job():
        # The whole pipeline is one guest program: disk, CPU and network
        # syscalls all resolve against the VM's dilated resources.
        marks["start"] = yield Now()
        yield DiskRead(20 << 20)
        marks["read_done"] = yield Now()
        yield Compute(2e9)
        marks["compute_done"] = yield Now()
        yield DiskWrite(5 << 20)
        marks["write_done"] = yield Now()
        sock = yield Connect("artifacts", 80)
        yield SendOn(sock, 10 << 20)
        yield Flush(sock)
        yield CloseSock(sock)
        marks["upload_done"] = yield Now()

    process = kernel.spawn(job())
    horizon_virtual = 600.0
    bed.run(vm.clock.to_physical(horizon_virtual))
    if process.error is not None:
        raise process.error
    if "upload_done" not in marks:
        raise RuntimeError(f"build job incomplete: marks={marks}")
    return BuildJobResult(
        disk_read_s=marks["read_done"] - marks["start"],
        compute_s=marks["compute_done"] - marks["read_done"],
        disk_write_s=marks["write_done"] - marks["compute_done"],
        network_s=marks["upload_done"] - marks["write_done"],
        total_s=marks["upload_done"] - marks["start"],
    )


# ================================================================= dynamic TDF


@dataclass
class DynamicTdfResult:
    """One flow timed across a runtime TDF change, virtual units."""

    #: Perceived goodput during each TDF phase, bits per virtual second.
    phase_rates_bps: List[float]
    #: The TDF in force during each phase (parallel to ``phase_rates_bps``).
    phase_tdfs: List[int]
    #: The guest clock at the end of the run (continuity check).
    final_virtual_s: float


def run_dynamic_tdf(
    physical_bandwidth_bps: float,
    physical_delay_s: float,
    tdf_schedule: List[int],
    phase_s: float = 3.0,
    queue_packets: int = 100,
) -> DynamicTdfResult:
    """One TCP flow across runtime TDF changes (ablation A2).

    Runs ``len(tdf_schedule)`` phases of ``phase_s`` virtual seconds each;
    between phases the hypervisor re-dilates both guests live. The
    physical wire never changes — only the guests' perception of it does.
    """
    net, a, b = _two_hosts("a", "b", physical_bandwidth_bps,
                           physical_delay_s, queue_packets)
    bed = Scenario(net, tdf_schedule[0])
    bed.boot("vma", a, 0.5)
    vm_b = bed.boot("vmb", b, 0.5)
    server = IperfServer(TcpStack(b))
    IperfClient(TcpStack(a), "b").start()
    rates: List[float] = []
    delivered = 0
    elapsed = 0.0
    for index, tdf in enumerate(tdf_schedule):
        if index > 0:
            bed.vmm.set_tdf("vma", tdf)
            bed.vmm.set_tdf("vmb", tdf)
        elapsed += phase_s
        bed.run(vm_b.clock.to_physical(elapsed))
        phase_bytes = server.total_bytes - delivered
        delivered = server.total_bytes
        rates.append(phase_bytes * 8 / phase_s)
    return DynamicTdfResult(
        phase_rates_bps=rates,
        phase_tdfs=list(tdf_schedule),
        final_virtual_s=vm_b.clock.now(),
    )


# ========================================================================= CPU


@dataclass
class CpuResult:
    """A fixed-cycle task's timing under a dilation/share combination."""

    virtual_duration_s: float
    physical_duration_s: float
    perceived_speedup: float


def run_cpu_task(tdf: TdfLike, cpu_share: float) -> CpuResult:
    """Time one CPU-bound task as the guest sees it (Table 2): 2e9 cycles
    on a 1 GHz host, so 2 seconds at full share and TDF 1."""
    bed = Scenario(Network(), tdf)
    vm = bed.boot("cpu-vm", share=cpu_share)
    done = {}

    def on_complete():
        done["virtual"] = vm.clock.now()
        done["physical"] = bed.sim.now

    vm.cpu.run(2e9, on_complete=on_complete)
    bed.run()
    return CpuResult(
        virtual_duration_s=done["virtual"],
        physical_duration_s=done["physical"],
        perceived_speedup=2.0 / done["virtual"],
    )


# ================================================================== sharding


def _run_sharded(runner: str, params: Dict[str, Any],
                 assignment: Dict[str, int], merge: Callable) -> Any:
    """A runner's parent-side sharded path: refuse, fan out, merge.

    The run's axes are refused here, in the parent, before any worker
    spawns. ``params`` are the runner's own arguments (its ``locals()`` on
    entry); every one except the execution knobs is forwarded to each
    worker, which re-enters the runner under its shard context.
    """
    check_axes(params["fidelity"], params.get("realtime", False),
               params["trace"], params["shards"])
    kwargs = {key: value for key, value in params.items()
              if key not in ("shards", "realtime", "_shard")}
    results, stats = run_sharded(runner, kwargs, params["shards"], assignment)
    return merge(results, stats)


def _bulk_assignment(pairs: int, shards: int) -> Dict[str, int]:
    """Split the dumbbell at the bottleneck: senders left, receivers right.

    The bottleneck link is the topology's only positive-lookahead cut, so
    a dumbbell supports exactly two shards.
    """
    if shards != 2:
        raise ConfigurationError(
            "run_bulk supports exactly 2 shards (the dumbbell's only "
            f"partitionable cut is the bottleneck link); got {shards}"
        )
    assignment = {"rL": 0, "rR": 1}
    for index in range(pairs):
        assignment[f"s{index}"] = 0
        assignment[f"d{index}"] = 1
    return assignment


def _swarm_assignment(leechers: int, shards: int) -> Dict[str, int]:
    """Hub + tracker in shard 0, seed in shard 1, leechers striped.

    The hub forwards every packet in the star (~30% of swarm events) and
    the seed transmits every original piece copy (~15%); parking both in
    shard 0 — the PR 6 layout — left it executing ~65% of all events
    while its siblings idled at the barrier. Striping the seed out and
    giving shard 0 one leecher per cycle against two for every other
    shard lands a 2-way split at ~50/50 measured event share (hub +
    tracker + n/3 leechers vs seed + 2n/3 leechers).
    """
    if shards < 2:
        raise ConfigurationError(
            f"a sharded swarm needs at least 2 shards, got {shards}"
        )
    if leechers < shards - 1:
        raise ConfigurationError(
            f"cannot spread {leechers} leechers over {shards} shards: "
            "every shard above 0 needs at least one leecher"
        )
    assignment = {"hub": 0, "h0": 0, "h1": 1}
    pattern = [0] + [shard for shard in range(1, shards) for _ in (0, 1)]
    for index in range(leechers):
        assignment[f"h{index + 2}"] = pattern[index % len(pattern)]
    return assignment


def _merge_trace_events(results: List) -> List:
    """Interleave per-shard recorder snapshots into one physical timeline.

    Each attachment point records on exactly one shard, so this is a
    k-way merge of disjoint streams; the sort is stable, preserving each
    shard's own recording order for same-instant events.
    """
    events = [event for result in results for event in result.trace_events]
    events.sort(key=lambda event: event.physical_time)
    return events


def _merge_bulk(results: List[BulkFlowResult],
                stats: List[Dict]) -> BulkFlowResult:
    """Combine per-shard bulk results into the single-process equivalent.

    Every field is owned by exactly one shard (a flow's server lives on
    one worker; the rest report the identity element), so all the sums
    below are float- and int-exact — the merged result equals the
    ``shards=1`` result bit for bit.
    """
    flows = len(results[0].per_flow_goodput_bps)
    per_flow = [0.0] * flows
    drops: Dict[str, int] = {}
    interarrivals: List[float] = []
    srtt = None
    for result in results:
        for index, value in enumerate(result.per_flow_goodput_bps):
            per_flow[index] += value
        for reason, count in result.bottleneck_drops.items():
            drops[reason] = drops.get(reason, 0) + count
        interarrivals.extend(result.interarrivals)
        if srtt is None:
            srtt = result.srtt
    return BulkFlowResult(
        goodput_bps=sum(per_flow),
        per_flow_goodput_bps=per_flow,
        delivered_bytes=sum(r.delivered_bytes for r in results),
        retransmits=sum(r.retransmits for r in results),
        timeouts=sum(r.timeouts for r in results),
        srtt=srtt,
        segments_sent=sum(r.segments_sent for r in results),
        interarrivals=interarrivals,
        events_processed=sum(r.events_processed for r in results),
        dupacks=sum(r.dupacks for r in results),
        fast_retransmits=sum(r.fast_retransmits for r in results),
        fast_recoveries=sum(r.fast_recoveries for r in results),
        bottleneck_drops=drops,
        checksum_drops=sum(r.checksum_drops for r in results),
        cross_rate_bps=sum(r.cross_rate_bps for r in results),
        trace_events=_merge_trace_events(results),
        shard_stats=list(stats),
    )


def _merge_bittorrent(results: List[BitTorrentResult],
                      stats: List[Dict]) -> BitTorrentResult:
    """Combine per-shard swarm results into the single-process equivalent.

    Each peer (and the tracker) exists on exactly one shard; the others
    contribute zeros or empty lists, so sums and the sorted download-time
    concatenation reproduce the ``shards=1`` result exactly.
    """
    return BitTorrentResult(
        download_times_s=sorted(
            t for r in results for t in r.download_times_s
        ),
        completed=sum(r.completed for r in results),
        leechers=results[0].leechers,
        seed_uploaded_bytes=sum(r.seed_uploaded_bytes for r in results),
        total_downloaded_bytes=sum(
            r.total_downloaded_bytes for r in results
        ),
        events_processed=sum(r.events_processed for r in results),
        tracker_announces=sum(r.tracker_announces for r in results),
        connections_total=sum(r.connections_total for r in results),
        trace_events=_merge_trace_events(results),
        shard_stats=list(stats),
    )


# ================================================================== registry

#: Spec-driven entry points for the parallel sweep runner: every runner a
#: :class:`~repro.harness.runner.CellSpec` may name. Each is a pure
#: function of its keyword arguments — it builds its own Network/Simulator,
#: runs to completion, and returns a picklable result dataclass — which is
#: exactly what lets a cell execute in any process, in any order, with
#: bit-identical results. A runner's keyword parameters are also its
#: sweep-axis capabilities: it takes ``trace``, ``shards``, ``fidelity``,
#: ``schedule`` or ``delay_salt`` exactly when its signature names them
#: (see :func:`repro.harness.runner.accepts`).
RUNNERS = {
    "run_bulk": run_bulk,
    "run_web": run_web,
    "run_bittorrent": run_bittorrent,
    "run_starlink": run_starlink,
    "run_cpu_task": run_cpu_task,
    "run_guest_build_job": run_guest_build_job,
    "run_dynamic_tdf": run_dynamic_tdf,
}
