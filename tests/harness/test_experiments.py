"""Integration tests for the experiment runners (small configurations)."""

import pytest

from repro.core.dilation import NetworkProfile
from repro.harness.experiments import (
    default_queue_packets,
    relative_error,
    run_bittorrent,
    run_bulk,
    run_cpu_task,
    run_web,
)
from repro.simnet.errors import ConfigurationError
from repro.simnet.units import mbps, ms


class TestHelpers:
    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(1, 0) == float("inf")

    def test_queue_sizing_is_bdp(self):
        physical = NetworkProfile.from_rtt(mbps(100), ms(40))
        # BDP = 100e6 * 0.04 / 8 = 500 KB -> ~333 frames of 1500 B.
        assert default_queue_packets(physical) == 333

    def test_queue_sizing_respects_frame_size(self):
        physical = NetworkProfile.from_rtt(mbps(100), ms(40))
        assert default_queue_packets(physical, frame_bytes=9000) == 55

    def test_queue_sizing_clamped(self):
        tiny = NetworkProfile.from_rtt(mbps(0.1), ms(1))
        assert default_queue_packets(tiny) == 20

    def test_queue_sizing_dilation_invariant(self):
        from repro.core.dilation import physical_for

        target = NetworkProfile.from_rtt(mbps(100), ms(40))
        assert default_queue_packets(target) == default_queue_packets(
            physical_for(target, 10)
        )


class TestRunBulk:
    def test_goodput_near_bottleneck(self):
        result = run_bulk(
            NetworkProfile.from_rtt(mbps(20), ms(20)), 1,
            duration_s=4.0, warmup_s=1.5,
        )
        assert result.goodput_bps == pytest.approx(mbps(20), rel=0.15)
        assert result.delivered_bytes > 0
        assert result.segments_sent > 0

    def test_dilated_equals_baseline(self):
        target = NetworkProfile.from_rtt(mbps(20), ms(20))
        base = run_bulk(target, 1, duration_s=3.0, warmup_s=1.0)
        dilated = run_bulk(target, 10, duration_s=3.0, warmup_s=1.0)
        assert dilated.goodput_bps == pytest.approx(base.goodput_bps, rel=1e-6)
        assert dilated.segments_sent == base.segments_sent

    def test_multiple_flows_split_bottleneck(self):
        result = run_bulk(
            NetworkProfile.from_rtt(mbps(20), ms(20)), 1,
            duration_s=4.0, warmup_s=1.5, flows=2,
        )
        assert len(result.per_flow_goodput_bps) == 2
        assert sum(result.per_flow_goodput_bps) == pytest.approx(
            result.goodput_bps
        )
        for flow in result.per_flow_goodput_bps:
            assert flow > 0.2 * mbps(20)

    def test_interarrivals_collected_in_virtual_time(self):
        profile = NetworkProfile.from_rtt(mbps(10), ms(20))
        result = run_bulk(
            profile, 10,
            duration_s=2.0, warmup_s=0.5, collect_interarrivals=True,
        )
        assert len(result.interarrivals) > 100
        # Spacing of full frames at the perceived 10 Mbps: 1.2 ms.
        median = sorted(result.interarrivals)[len(result.interarrivals) // 2]
        assert median == pytest.approx(1500 * 8 / mbps(10), rel=0.25)
        # Warm-up arrivals are discarded (fig5's KS gate depends on it):
        # the measured window is exactly the tail of a warm-up-free twin.
        twin = run_bulk(
            profile, 10, duration_s=2.0, collect_interarrivals=True,
        )
        measured = len(result.interarrivals)
        assert len(twin.interarrivals) >= measured + 100
        assert result.interarrivals == twin.interarrivals[-measured:]

    def test_srtt_matches_perceived_rtt(self):
        result = run_bulk(
            NetworkProfile.from_rtt(mbps(10), ms(60)), 100,
            duration_s=2.0, warmup_s=0.5,
        )
        assert result.srtt == pytest.approx(0.060, rel=0.5)

    @pytest.mark.parametrize("tdf", [1, 10])
    def test_ext1_cross_traffic_cells_keep_their_values(self, tdf):
        """ext1's cells, pinned to the exact values the dedicated
        cross-traffic runner they replaced produced at TDF 1 and 10."""
        result = run_bulk(
            NetworkProfile.from_rtt(mbps(20), ms(40)), tdf,
            duration_s=6.0, warmup_s=1.0, cross_share=0.3,
        )
        assert result.goodput_bps == 13219177.6
        assert result.cross_rate_bps == 5976000.0
        assert result.retransmits == 72

    def test_no_cross_traffic_by_default(self):
        result = run_bulk(
            NetworkProfile.from_rtt(mbps(10), ms(20)), 1, duration_s=0.5,
        )
        assert result.cross_rate_bps == 0.0

    @pytest.mark.parametrize("share", [float("nan"), float("inf"), -0.5])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_bad_cross_share_refused_by_name(self, share, shards):
        """Refused before anything runs: NaN and negative shares used to
        run with no cross traffic at all, and an infinite one hung."""
        with pytest.raises(ConfigurationError,
                           match="cross_share must be finite and >= 0"):
            run_bulk(NetworkProfile.from_rtt(mbps(10), ms(20)), 1,
                     duration_s=1.0, cross_share=share, shards=shards)

    def test_hybrid_fidelity_with_cross_traffic_refused(self):
        """The fluid model loses 18.5% of ext1's TCP goodput under CBR
        cross traffic, so the combination is refused, not approximated."""
        with pytest.raises(ConfigurationError,
                           match="cross_share > 0 requires fidelity='packet'"):
            run_bulk(NetworkProfile.from_rtt(mbps(20), ms(40)), 1,
                     duration_s=1.0, cross_share=0.3, fidelity="hybrid")


class TestRunWeb:
    def test_underload_completes_everything(self):
        result = run_web(
            NetworkProfile.from_rtt(mbps(100), ms(10)), 1,
            rate_rps=10, duration_s=3.0, seed=5,
        )
        assert result.completed == result.issued > 0
        assert result.failed == 0
        assert result.mean_latency_s > 0
        assert result.p95_latency_s >= result.mean_latency_s

    def test_dilated_equals_baseline(self):
        target = NetworkProfile.from_rtt(mbps(100), ms(10))
        base = run_web(target, 1, rate_rps=20, duration_s=4.0, seed=9)
        dilated = run_web(target, 10, rate_rps=20, duration_s=4.0, seed=9)
        assert dilated.completed == base.completed
        assert dilated.mean_latency_s == pytest.approx(
            base.mean_latency_s, rel=1e-6
        )


class TestRunBitTorrent:
    def test_small_swarm_completes(self):
        result = run_bittorrent(
            NetworkProfile.from_rtt(mbps(10), ms(10)), 1,
            leechers=3, file_bytes=256 * 1024, seed=2,
        )
        assert result.completed == 3
        assert len(result.download_times_s) == 3
        assert result.download_times_s == sorted(result.download_times_s)
        assert result.total_downloaded_bytes >= 3 * 256 * 1024

    @pytest.mark.parametrize("salt", [float("nan"), float("inf"), -1e-6])
    def test_bad_delay_salt_refused_by_name(self, salt):
        with pytest.raises(ConfigurationError,
                           match="delay_salt must be finite and >= 0"):
            run_bittorrent(
                NetworkProfile.from_rtt(mbps(10), ms(10)), 1,
                leechers=3, file_bytes=256 * 1024, seed=2, delay_salt=salt,
            )


class TestRunCpu:
    def test_undilated(self):
        result = run_cpu_task(1, 1.0)
        assert result.virtual_duration_s == pytest.approx(2.0)
        assert result.perceived_speedup == pytest.approx(1.0)

    def test_dilated_full_share(self):
        result = run_cpu_task(10, 1.0)
        assert result.virtual_duration_s == pytest.approx(0.2)
        assert result.physical_duration_s == pytest.approx(2.0)
        assert result.perceived_speedup == pytest.approx(10.0)

    def test_compensated_share(self):
        result = run_cpu_task(10, 0.1)
        assert result.virtual_duration_s == pytest.approx(2.0)
        assert result.perceived_speedup == pytest.approx(1.0)
