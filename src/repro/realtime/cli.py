"""``repro-realtime`` — run the emulation as a live service and poke it.

Examples::

    # Terminal 1: a live echo service over a 10 Mbps / 40 ms virtual path,
    # dilated 10x (so the wall-clock RTT is ~400 ms):
    repro-realtime serve --bind 127.0.0.1:9099 --tdf 10

    # Terminal 2: a real UDP client, ping-style:
    repro-realtime echo 127.0.0.1:9099 --count 5

    # Or sustained load with a loss/rate report:
    repro-realtime loadgen 127.0.0.1:9099 --rate 200 --duration 5

``serve`` runs in-process and single-threaded: the real-time driver paces
the engine against the wall clock and polls the gateway socket between
event batches. ``echo`` and ``loadgen`` are plain OS-socket clients — they
need no simulator at all, which is the point: any UDP speaker can talk to
the emulated network.
"""

from __future__ import annotations

import argparse
import math
import socket
import sys
import time
from typing import List, Optional, Tuple

from ..core.dilation import NetworkProfile
from ..simnet.errors import ConfigurationError
from .driver import CATCHUP_POLICIES, RealtimeConfig
from .scenario import build_echo_scenario

__all__ = ["main"]


def _parse_endpoint(value: str) -> Tuple[str, int]:
    """``host:port`` → tuple, with a CLI-friendly error."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected host:port, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad port in {value!r}")


def _refused(checks: List[Tuple[bool, str]]) -> bool:
    """Print the first failed ``(ok, message)`` check on stderr.

    Commands run their checks before opening any socket, so bad input
    exits 2 with one line and never hangs or leaves a traceback.
    """
    for ok, message in checks:
        if not ok:
            print(message, file=sys.stderr)
            return True
    return False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-realtime",
        description="Real-time emulation mode: serve a live dilated "
                    "network, or exercise one with a plain UDP client.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="run a live echo service over one dilated link",
    )
    serve.add_argument(
        "--bind", type=_parse_endpoint, default=("127.0.0.1", 9099),
        metavar="HOST:PORT",
        help="real UDP address the gateway listens on "
             "(default: 127.0.0.1:9099)",
    )
    serve.add_argument(
        "--bandwidth-mbps", type=float, default=10.0, metavar="MBPS",
        help="perceived link bandwidth (default: 10)",
    )
    serve.add_argument(
        "--rtt-ms", type=float, default=40.0, metavar="MS",
        help="perceived round-trip time (default: 40)",
    )
    serve.add_argument(
        "--tdf", type=int, default=1, metavar="K",
        help="time dilation factor; wall RTT = rtt-ms x K (default: 1)",
    )
    serve.add_argument(
        "--duration", type=float, default=0.0, metavar="S",
        help="virtual seconds to serve; 0 = until Ctrl-C (default: 0)",
    )
    serve.add_argument(
        "--spin-us", type=float, default=500.0, metavar="US",
        help="busy-spin threshold before each deadline (default: 500)",
    )
    serve.add_argument(
        "--miss-ms", type=float, default=5.0, metavar="MS",
        help="slip beyond this counts as a deadline miss (default: 5)",
    )
    serve.add_argument(
        "--catchup", choices=CATCHUP_POLICIES, default="run",
        help="policy when behind: run-to-catch-up or drop-to-now "
             "(default: run)",
    )

    echo = sub.add_parser(
        "echo", help="ping-style UDP client against a serve instance",
    )
    echo.add_argument("endpoint", type=_parse_endpoint, metavar="HOST:PORT")
    echo.add_argument(
        "--count", type=int, default=5, metavar="N",
        help="datagrams to send (default: 5)",
    )
    echo.add_argument(
        "--interval-ms", type=float, default=200.0, metavar="MS",
        help="gap between sends (default: 200)",
    )
    echo.add_argument(
        "--size", type=int, default=64, metavar="BYTES",
        help="datagram payload size (default: 64)",
    )
    echo.add_argument(
        "--timeout", type=float, default=5.0, metavar="S",
        help="per-reply wait (default: 5)",
    )

    loadgen = sub.add_parser(
        "loadgen", help="constant-rate UDP load against a serve instance",
    )
    loadgen.add_argument("endpoint", type=_parse_endpoint,
                         metavar="HOST:PORT")
    loadgen.add_argument(
        "--rate", type=float, default=100.0, metavar="PPS",
        help="datagrams per second (default: 100)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=5.0, metavar="S",
        help="seconds to run (default: 5)",
    )
    loadgen.add_argument(
        "--size", type=int, default=64, metavar="BYTES",
        help="datagram payload size (default: 64)",
    )
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    if _refused([
        (args.duration == 0 or 0 < args.duration < math.inf,
         f"--duration must be 0 (until Ctrl-C) or positive and finite, "
         f"got {args.duration:g}"),
    ]):
        return 2
    try:
        perceived = NetworkProfile.from_rtt(
            args.bandwidth_mbps * 1e6, args.rtt_ms / 1000.0
        )
        config = RealtimeConfig(
            spin_threshold_s=args.spin_us / 1e6,
            miss_threshold_s=args.miss_ms / 1000.0,
            catchup=args.catchup,
        )
        scenario = build_echo_scenario(
            perceived=perceived, tdf=args.tdf, bind=args.bind, config=config,
        )
    except (ConfigurationError, OSError) as error:
        # A bad knob or an unusable --bind address: one line, no traceback.
        print(str(error), file=sys.stderr)
        return 2
    host, port = scenario.gateway.address
    wall_rtt_ms = args.rtt_ms * args.tdf
    print(f"serving on {host}:{port} — {args.bandwidth_mbps:g} Mbps, "
          f"{args.rtt_ms:g} ms RTT, TDF {args.tdf} "
          f"(wall RTT ~{wall_rtt_ms:g} ms)")
    horizon = None
    if args.duration > 0:
        horizon = scenario.clock.to_physical(args.duration)
    try:
        scenario.driver.run(until=horizon)
    except KeyboardInterrupt:
        pass
    finally:
        stats = scenario.driver.stats
        gw = scenario.gateway.stats
        print(f"served {gw.ingress_datagrams} in / "
              f"{gw.egress_datagrams} out datagrams; "
              f"{stats.batches} batches, "
              f"{stats.deadline_misses} deadline misses "
              f"(max slip {stats.max_slip_s * 1000:.2f} ms, "
              f"busy {stats.busy_frac:.1%})")
        scenario.close()
    return 0


def _cmd_echo(args: argparse.Namespace) -> int:
    if _refused([
        (0 <= args.interval_ms < math.inf,
         f"--interval-ms must be non-negative and finite, "
         f"got {args.interval_ms:g}"),
        (0 < args.timeout < math.inf,
         f"--timeout must be positive and finite, got {args.timeout:g}"),
        (args.size >= 0, f"--size must be non-negative, got {args.size}"),
    ]):
        return 2
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(args.timeout)
    payload = bytes(args.size)
    rtts: List[float] = []
    lost = 0
    try:
        for seq in range(args.count):
            message = seq.to_bytes(4, "big") + payload[4:]
            start = time.monotonic()
            sock.sendto(message, args.endpoint)
            try:
                data, _ = sock.recvfrom(65535)
            except socket.timeout:
                lost += 1
                print(f"seq {seq}: timeout after {args.timeout:g} s")
            else:
                rtt_ms = (time.monotonic() - start) * 1000
                rtts.append(rtt_ms)
                print(f"seq {seq}: {len(data)} bytes, rtt {rtt_ms:.2f} ms")
            if seq + 1 < args.count:
                time.sleep(args.interval_ms / 1000.0)
    finally:
        sock.close()
    if rtts:
        print(f"{len(rtts)}/{args.count} replies: "
              f"rtt min/mean/max = {min(rtts):.2f}/"
              f"{sum(rtts) / len(rtts):.2f}/{max(rtts):.2f} ms")
    return 0 if lost == 0 and rtts else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    if _refused([
        (0 < args.rate < math.inf,
         f"--rate must be positive and finite, got {args.rate:g}"),
        (0 < args.duration < math.inf,
         f"--duration must be positive and finite, got {args.duration:g}"),
        (args.size >= 0, f"--size must be non-negative, got {args.size}"),
    ]):
        return 2
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setblocking(False)
    payload = bytes(args.size)
    interval = 1.0 / args.rate
    sent = received = 0
    start = time.monotonic()
    deadline = start + args.duration
    next_send = start

    def drain() -> int:
        got = 0
        while True:
            try:
                sock.recvfrom(65535)
            except (BlockingIOError, socket.timeout):
                return got
            except OSError:
                return got
            got += 1

    try:
        now = start
        while now < deadline:
            if now >= next_send:
                sock.sendto(payload, args.endpoint)
                sent += 1
                next_send += interval
            received += drain()
            sleep_for = min(next_send, deadline) - time.monotonic()
            if sleep_for > 0:
                time.sleep(min(sleep_for, 0.01))
            now = time.monotonic()
        # Grace period for in-flight replies (one extra second of drain).
        grace = time.monotonic() + 1.0
        while time.monotonic() < grace:
            received += drain()
            time.sleep(0.01)
    finally:
        sock.close()
    elapsed = time.monotonic() - start
    loss = 1.0 - received / sent if sent else 0.0
    print(f"sent {sent} ({sent / args.duration:.1f}/s), "
          f"received {received} ({loss:.1%} loss) in {elapsed:.2f} s")
    return 0 if sent and received else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "echo": _cmd_echo,
        "loadgen": _cmd_loadgen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
