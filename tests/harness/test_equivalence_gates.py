"""Each figure's dilation-equivalence gate fails where its tolerance says.

The figure sweeps only ever show these gates passing: real dilated runs
land at or near zero error. Here each figure's ``build`` is fed
synthetic cell results whose dilated metric is skewed just inside and
just outside that figure's own tolerance, and the exact check wording
and verdict are pinned: 2% for fig6, 10% (mean, median) and 15% (p90)
for fig9, 5% for ext4's goodput and integer retransmit counts, and 5%
for ext6's QoE and frame-delay/completion quantiles.
"""

from types import SimpleNamespace

import pytest

from repro.harness.figures import CELL_MODEL


def _checks(figure):
    return {check.description: check.passed for check in figure.checks}


def _row(figure, *leading):
    """The table row whose first cells are ``leading``."""
    width = len(leading)
    [row] = [row for row in figure.table.rows if tuple(row[:width]) == leading]
    return row


# ================================================================= fig6


def _fig6(flow_skew=0.0, aggregate_skew=0.0):
    flows = [10e6] * 4
    skewed = [flows[0] * (1 + flow_skew)] + flows[1:]
    return CELL_MODEL["fig6"].build({
        "tdf1": SimpleNamespace(goodput_bps=40e6, per_flow_goodput_bps=flows),
        "tdf10": SimpleNamespace(goodput_bps=40e6 * (1 + aggregate_skew),
                                 per_flow_goodput_bps=skewed),
    })


@pytest.mark.parametrize("skew, passed", [(0.019, True), (0.021, False)])
def test_fig6_per_flow_gate_at_two_percent(skew, passed):
    checks = _checks(_fig6(flow_skew=skew))
    label = f"every flow's share matches baseline (max err {skew:.4f})"
    assert checks[label] is passed
    assert checks["aggregate goodput matches baseline"] is True


@pytest.mark.parametrize("skew, passed", [(0.019, True), (0.021, False)])
def test_fig6_aggregate_gate_at_two_percent(skew, passed):
    checks = _checks(_fig6(aggregate_skew=skew))
    assert checks["aggregate goodput matches baseline"] is passed
    assert checks["every flow's share matches baseline (max err 0.0000)"]


# ================================================================= fig9


def _fig9(skew):
    times = [float(t) for t in range(1, 13)]
    swarm = dict(completed=12, seed_uploaded_bytes=1, total_downloaded_bytes=2)
    return CELL_MODEL["fig9"].build({
        "tdf1": SimpleNamespace(download_times_s=times, **swarm),
        "tdf10": SimpleNamespace(
            download_times_s=[t * (1 + skew) for t in times], **swarm),
    })


@pytest.mark.parametrize("skew, mean_ok, p90_ok", [
    (0.099, True, True),
    (0.101, False, True),
    (0.149, False, True),
    (0.151, False, False),
])
def test_fig9_gates_at_ten_and_fifteen_percent(skew, mean_ok, p90_ok):
    checks = _checks(_fig9(skew))
    assert checks[f"mean download time within 10% of baseline "
                  f"(err {skew:.4f})"] is mean_ok
    assert checks[f"median download time within 10% (err {skew:.4f})"] \
        is mean_ok
    assert checks[f"p90 download time within 15% (err {skew:.4f})"] is p90_ok


# ================================================================= ext4


def _lossy(goodput_bps, retransmits):
    return SimpleNamespace(goodput_bps=goodput_bps, retransmits=retransmits,
                           bottleneck_drops={"impair": 7}, checksum_drops=0,
                           dupacks=3)


def _ext4(goodput_skew=0.0, retransmits=100):
    results = {}
    for kind in ("bernoulli", "gilbert"):
        results[f"{kind}-tdf1"] = _lossy(10e6, 100)
        for tdf in (5, 10):
            results[f"{kind}-tdf{tdf}"] = _lossy(10e6 * (1 + goodput_skew),
                                                 retransmits)
    return CELL_MODEL["ext4"].build(results)


@pytest.mark.parametrize("skew, passed", [(0.049, True), (0.051, False)])
def test_ext4_goodput_gate_at_five_percent(skew, passed):
    figure = _ext4(goodput_skew=skew)
    checks = _checks(figure)
    for kind in ("bernoulli", "gilbert"):
        for tdf in (5, 10):
            assert checks[f"{kind} TDF {tdf}: goodput within 5% of scaled "
                          f"baseline"] is passed
            assert checks[f"{kind} TDF {tdf}: retransmit count within 5%"]
    assert _row(figure, "bernoulli", "10")[-1] == f"{skew * 100:.3f}%"


@pytest.mark.parametrize("retransmits, passed", [(95, True), (105, True),
                                                 (94, False), (106, False)])
def test_ext4_retransmit_gate_on_integer_counts(retransmits, passed):
    figure = _ext4(retransmits=retransmits)
    checks = _checks(figure)
    assert checks["gilbert TDF 5: retransmit count within 5%"] is passed
    assert checks["gilbert TDF 5: goodput within 5% of scaled baseline"]
    error = abs(retransmits - 100) / 100
    assert _row(figure, "gilbert", "5")[-1] == f"{error * 100:.3f}%"


# ================================================================= ext6


def _stream(scale=1.0, jitter_s=0.004, stall=0.02):
    return SimpleNamespace(
        schedule_changes=6, outage_drops=9,
        frame_delays_s=[(0.03 + 0.001 * i) * scale for i in range(40)],
        playable_fraction=0.97, stall_fraction=stall, jitter_s=jitter_s)


def _swarm(scale=1.0):
    return SimpleNamespace(completed=8, leechers=8,
                           download_times_s=[t * scale for t in range(2, 10)])


def _ext6(jitter_skew=0.0, stall_skew=0.0, delay_skew=0.0, swarm_skew=0.0):
    results = {"swarm-tdf1": _swarm(),
               "swarm-tdf10": _swarm(1 + swarm_skew)}
    for name in ("dense", "deep"):
        results[f"stream-{name}-tdf1"] = _stream()
        results[f"stream-{name}-tdf10"] = _stream(
            1 + delay_skew, 0.004 * (1 + jitter_skew), 0.02 * (1 + stall_skew))
    return CELL_MODEL["ext6"].build(results)


@pytest.mark.parametrize("skew, passed", [(0.049, True), (0.051, False)])
@pytest.mark.parametrize("metric, key", [("jitter_s", "jitter_skew"),
                                         ("stall", "stall_skew")])
def test_ext6_qoe_gates_at_five_percent(metric, key, skew, passed):
    checks = _checks(_ext6(**{key: skew}))
    for name in ("dense", "deep"):
        assert checks[f"stream/{name}: QoE {metric} within 5% "
                      f"(err {skew:.4f})"] is passed


def test_ext6_unskewed_run_passes_every_check():
    figure = _ext6()
    assert figure.all_passed
    assert _row(figure, "stream", "dense", "10")[-1] == "0.00%"


@pytest.mark.parametrize("skew, passed", [(0.049, True), (0.051, False)])
def test_ext6_frame_delay_quantile_gate_at_five_percent(skew, passed):
    figure = _ext6(delay_skew=skew)
    checks = _checks(figure)
    for name in ("dense", "deep"):
        for q in (10, 50, 90):
            assert checks[f"stream/{name}: p{q} frame delay within 5% of "
                          f"baseline on the virtual axis (err {skew:.4f})"] \
                is passed
        assert _row(figure, "stream", name, "10")[-1] == f"{skew * 100:.2f}%"
        assert _row(figure, "stream", name, "1")[-1] == "-"
    assert checks["stream/dense: QoE jitter_s within 5% (err 0.0000)"]


@pytest.mark.parametrize("skew, passed", [(0.049, True), (0.051, False)])
def test_ext6_swarm_quantile_gate_at_five_percent(skew, passed):
    figure = _ext6(swarm_skew=skew)
    checks = _checks(figure)
    for q in (10, 50, 90):
        assert checks[f"swarm: p{q} completion time within 5% of baseline "
                      f"on the virtual axis (err {skew:.4f})"] is passed
    assert _row(figure, "swarm", "dense", "10")[-1] == f"{skew * 100:.2f}%"
