"""Unit tests for the impairment pipeline: models, chain, drop taxonomy."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.errors import ConfigurationError
from repro.simnet.impairments import (
    BernoulliLoss,
    Corrupt,
    Duplicate,
    GilbertElliott,
    ImpairmentChain,
    ImpairmentSpec,
    Reorder,
)
from repro.simnet.link import Link
from repro.simnet.node import Node
from repro.simnet.packet import Packet


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def deliver(self, packet):
        self.deliveries.append((self.sim.now, packet))


def wire(sim, bandwidth=1e6, delay=0.001, queue_factory=None):
    a = Node(sim, "a")
    b = Node(sim, "b")
    link = Link(sim, a, b, bandwidth, delay, queue_factory)
    a.set_route("b", link.a_to_b)
    b.set_route("a", link.b_to_a)
    sink = Sink(sim)
    b.register_protocol("raw", sink)
    return a, b, link, sink


def packet(size=1250):
    return Packet(src="a", dst="b", protocol="raw", size_bytes=size)


# ----------------------------------------------------------- loss models


def _drive(stage, n):
    """Feed n packets through a stage; return the boolean loss pattern."""
    pattern = []
    for _ in range(n):
        verdict = stage.apply(packet())
        pattern.append(verdict is not None and verdict[0] == "drop")
    return pattern


def test_bernoulli_rate_converges_under_fixed_seed():
    pattern = _drive(BernoulliLoss(0.05, seed=7), 100_000)
    rate = sum(pattern) / len(pattern)
    assert rate == pytest.approx(0.05, rel=0.1)


def test_bernoulli_same_seed_same_pattern_different_seed_differs():
    a = _drive(BernoulliLoss(0.05, seed=7), 5_000)
    b = _drive(BernoulliLoss(0.05, seed=7), 5_000)
    c = _drive(BernoulliLoss(0.05, seed=8), 5_000)
    assert a == b
    assert a != c


def test_gilbert_elliott_stationary_loss_rate_converges():
    # p_enter/(p_enter+p_exit) = 0.01/(0.01+0.19) = 5%.
    stage = GilbertElliott(p_enter_bad=0.01, p_exit_bad=0.19, seed=11)
    pattern = _drive(stage, 200_000)
    rate = sum(pattern) / len(pattern)
    assert rate == pytest.approx(0.01 / (0.01 + 0.19), rel=0.1)


def test_gilbert_elliott_mean_burst_length_converges():
    stage = GilbertElliott.from_loss_rate(0.05, mean_burst=4.0, seed=13)
    pattern = _drive(stage, 200_000)
    bursts = []
    run = 0
    for lost in pattern:
        if lost:
            run += 1
        elif run:
            bursts.append(run)
            run = 0
    if run:
        bursts.append(run)
    assert sum(pattern) / len(pattern) == pytest.approx(0.05, rel=0.1)
    assert sum(bursts) / len(bursts) == pytest.approx(4.0, rel=0.1)


def test_gilbert_elliott_from_loss_rate_solves_stationary_equations():
    stage = GilbertElliott.from_loss_rate(0.02, mean_burst=5.0)
    assert stage.p_exit_bad == pytest.approx(0.2)
    pi_bad = stage.p_enter_bad / (stage.p_enter_bad + stage.p_exit_bad)
    assert pi_bad == pytest.approx(0.02)


def test_gilbert_elliott_burstier_than_bernoulli_at_equal_rate():
    """Same average loss, very different texture — the point of the model."""

    def mean_burst(pattern):
        bursts, run = [], 0
        for lost in pattern:
            if lost:
                run += 1
            elif run:
                bursts.append(run)
                run = 0
        if run:
            bursts.append(run)
        return sum(bursts) / len(bursts)

    bern = mean_burst(_drive(BernoulliLoss(0.05, seed=3), 100_000))
    ge = mean_burst(
        _drive(GilbertElliott.from_loss_rate(0.05, mean_burst=6.0, seed=3),
               100_000)
    )
    assert bern < 1.3  # independent losses rarely chain
    assert ge > 3.0


def test_model_parameter_validation():
    with pytest.raises(ConfigurationError):
        BernoulliLoss(1.5)
    with pytest.raises(ConfigurationError):
        GilbertElliott(p_enter_bad=0.1, p_exit_bad=0.0)
    with pytest.raises(ConfigurationError):
        GilbertElliott.from_loss_rate(0.0)
    with pytest.raises(ConfigurationError):
        Reorder(0.5, hold_s=-1.0)
    with pytest.raises(ConfigurationError):
        ImpairmentSpec(kind="nonsense")


# ---------------------------------------------------- chain on an interface


def test_chain_drops_are_charged_to_the_taxonomy():
    sim = Simulator()
    a, b, link, sink = wire(sim)
    link.a_to_b.set_impairments(ImpairmentChain([BernoulliLoss(1.0, seed=1)]))
    for _ in range(5):
        a.send(packet())
    sim.run()
    assert sink.deliveries == []
    assert link.a_to_b.drops == {"loss": 5}
    assert link.a_to_b.total_drops == 5
    assert sim.counters["drop.loss"] == 5


def test_chain_default_off_leaves_no_trace():
    sim = Simulator()
    a, b, link, sink = wire(sim)
    for _ in range(5):
        a.send(packet())
    sim.run()
    assert len(sink.deliveries) == 5
    assert link.a_to_b.drops == {}
    assert sim.counters == {}


def test_reorder_holds_packets_past_their_successors():
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e7, delay=0.0001)
    # Deterministically hold every other packet well past the spacing.
    toggle = {"n": 0}

    class EveryOther(Reorder):
        def apply(self, pkt):
            toggle["n"] += 1
            if toggle["n"] % 2 == 1:
                self.held += 1
                return ("hold", self.hold_s)
            return None

    link.a_to_b.set_impairments(
        ImpairmentChain([EveryOther(1.0, hold_s=0.05)])
    )
    sent = [packet() for _ in range(6)]
    for pkt in sent:
        a.send(pkt)
    sim.run()
    assert len(sink.deliveries) == 6
    received_uids = [pkt.uid for _, pkt in sink.deliveries]
    sent_uids = [pkt.uid for pkt in sent]
    assert received_uids != sent_uids  # held packets were overtaken
    assert sorted(received_uids) == sorted(sent_uids)  # nothing lost


def test_duplicate_injects_a_distinct_copy():
    sim = Simulator()
    a, b, link, sink = wire(sim)
    link.a_to_b.set_impairments(ImpairmentChain([Duplicate(1.0, seed=1)]))
    a.send(packet())
    sim.run()
    assert len(sink.deliveries) == 2
    uids = {pkt.uid for _, pkt in sink.deliveries}
    assert len(uids) == 2  # the clone is a distinct packet to traces
    sizes = {pkt.size_bytes for _, pkt in sink.deliveries}
    assert sizes == {1250}


def test_corrupt_marks_packets_but_still_delivers_them():
    sim = Simulator()
    a, b, link, sink = wire(sim)
    link.a_to_b.set_impairments(ImpairmentChain([Corrupt(1.0, seed=1)]))
    a.send(packet())
    sim.run()
    # The wire carried it; detection happens at the receiving transport.
    assert len(sink.deliveries) == 1
    assert sink.deliveries[0][1].corrupted


def test_stages_compose_in_order():
    sim = Simulator()
    a, b, link, sink = wire(sim)
    chain = (
        ImpairmentChain()
        .add(BernoulliLoss(0.0, seed=1))  # passes everything
        .add(Corrupt(1.0, seed=2))
        .add(Duplicate(1.0, seed=3))
    )
    link.a_to_b.set_impairments(chain)
    a.send(packet())
    sim.run()
    assert len(sink.deliveries) == 2
    assert all(pkt.corrupted for _, pkt in sink.deliveries)


def test_legacy_loss_fn_and_down_state_share_the_taxonomy():
    sim = Simulator()
    a, b, link, sink = wire(sim)
    link.a_to_b.set_loss(lambda pkt: True)
    a.send(packet())
    link.a_to_b.set_loss(None)
    link.a_to_b.up = False
    a.send(packet())
    sim.run()
    assert link.a_to_b.injected_losses == 1  # legacy alias still works
    assert link.a_to_b.down_drops == 1
    assert link.a_to_b.drops == {"injected": 1, "down": 1}
    assert sim.counters == {"drop.injected": 1, "drop.down": 1}


def test_queue_overflow_lands_in_the_taxonomy():
    from repro.simnet.queues import DropTailQueue

    sim = Simulator()
    a, b, link, sink = wire(
        sim, bandwidth=1e4, queue_factory=lambda: DropTailQueue(capacity_packets=2)
    )
    for _ in range(6):
        a.send(packet())
    sim.run()
    # One on the wire, two queued, three dropped.
    assert link.a_to_b.drops == {"queue": 3}
    assert sim.counters["drop.queue"] == 3
    assert len(sink.deliveries) == 3


# ----------------------------------------------------------------- specs


def test_spec_parse_round_trip():
    spec = ImpairmentSpec.parse("gilbert:rate=0.02,burst=5,seed=9")
    assert spec.kind == "gilbert"
    assert spec.rate == 0.02
    assert spec.burst == 5.0
    assert spec.seed == 9
    with pytest.raises(ConfigurationError):
        ImpairmentSpec.parse("bernoulli:frobnicate=1")


def test_spec_build_scales_time_knobs_by_tdf():
    reorder = ImpairmentSpec(kind="reorder", rate=0.5, hold_s=0.002)
    assert reorder.build(tdf=1).stages[0].hold_s == pytest.approx(0.002)
    assert reorder.build(tdf=10).stages[0].hold_s == pytest.approx(0.020)
    # Probability knobs are per-packet and must NOT scale.
    bern = ImpairmentSpec(kind="bernoulli", rate=0.01)
    assert bern.build(tdf=10).stages[0].rate == 0.01


def test_spec_build_produces_independent_rng_state_per_chain():
    spec = ImpairmentSpec(kind="bernoulli", rate=0.5, seed=4)
    one = spec.build().stages[0]
    two = spec.build().stages[0]
    assert _drive(one, 100) == _drive(two, 100)  # fresh, identical streams


# ------------------------------------------------- non-finite parameters
#
# Each of these used to be accepted: a NaN hold failed every ``<`` check
# and slipped through, and an infinite one reached the engine heap.


@pytest.mark.parametrize("text", [
    "reorder:rate=0.1,hold=nan",
    "reorder:rate=0.1,hold=inf",
    "bernoulli:rate=nan",
])
def test_spec_refuses_non_finite_values(text):
    with pytest.raises(ConfigurationError):
        ImpairmentSpec.parse(text)


@pytest.mark.parametrize("hold_s", [float("nan"), float("inf")])
def test_reorder_refuses_non_finite_hold(hold_s):
    with pytest.raises(ConfigurationError):
        Reorder(0.1, hold_s=hold_s)
