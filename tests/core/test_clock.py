"""Unit tests for physical and dilated clocks."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.clock import DilatedClock
from repro.simnet.clock import PhysicalClock
from repro.simnet.engine import Simulator
from repro.simnet.errors import SchedulingError


class TestPhysicalClock:
    def test_identity_mapping(self):
        sim = Simulator()
        clock = PhysicalClock(sim)
        assert clock.to_physical(5.0) == 5.0
        assert clock.to_local(5.0) == 5.0

    def test_now_tracks_sim(self):
        sim = Simulator()
        clock = PhysicalClock(sim)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert clock.now() == 2.0

    def test_call_in(self):
        sim = Simulator()
        clock = PhysicalClock(sim)
        fired = []
        clock.call_in(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_reschedule_rejects_nan(self):
        sim = Simulator()
        clock = PhysicalClock(sim)
        event = clock.call_in(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            clock.reschedule_in(event, float("nan"))
        assert event.time == 1.0


class TestDilatedClock:
    def test_virtual_time_runs_slow(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=10)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert clock.now() == pytest.approx(1.0)

    def test_contraction_runs_fast(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf="1/2")
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert clock.now() == pytest.approx(2.0)

    def test_call_in_converts_to_physical(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=10)
        fired = []
        clock.call_in(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(10.0)]

    def test_call_at_converts_to_physical(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=4)
        fired = []
        clock.call_at(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(8.0)]

    def test_negative_virtual_delay_rejected(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=2)
        with pytest.raises(SchedulingError):
            clock.call_in(-0.5, lambda: None)

    def test_nan_virtual_delay_rejected(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=2)
        with pytest.raises(SchedulingError):
            clock.call_in(float("nan"), lambda: None)
        assert sim.pending() == 0

    def test_nan_reschedule_delay_rejected(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=2)
        event = clock.call_in(1.0, lambda: None)
        for delay in (-1.0, float("nan")):
            with pytest.raises(SchedulingError):
                clock.reschedule_in(event, delay)
        assert event.active and event.time == 2.0

    def test_virtual_origin(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        clock = DilatedClock(sim, tdf=1, virtual_origin=0.0)
        assert clock.now() == pytest.approx(0.0)  # guest boots at virtual zero

    def test_roundtrip_conversion(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=7)
        for t in [0.0, 0.5, 3.25, 100.0]:
            assert clock.to_local(clock.to_physical(t)) == pytest.approx(t)

    def test_set_tdf_keeps_virtual_time_continuous(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=10)
        sim.schedule(10.0, lambda: clock.set_tdf(5))
        sim.run()  # at phys 10, virtual is 1.0, then rate changes
        assert clock.now() == pytest.approx(1.0)
        sim.schedule(5.0, lambda: None)
        sim.run()  # 5 more physical seconds at TDF 5 -> +1 virtual
        assert clock.now() == pytest.approx(2.0)

    def test_set_tdf_same_value_is_noop(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=10)
        clock.set_tdf(10)
        assert len(clock._epochs) == 1

    def test_historical_mapping_across_epochs(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=10)
        sim.schedule(10.0, lambda: clock.set_tdf(2))
        sim.schedule(14.0, lambda: None)
        sim.run()
        # Physical 5.0 is inside the first epoch: virtual 0.5.
        assert clock.to_local(5.0) == pytest.approx(0.5)
        # Physical 12.0 is in the second epoch: 1.0 + 2/2 = 2.0.
        assert clock.to_local(12.0) == pytest.approx(2.0)
        # And the inverse maps agree.
        assert clock.to_physical(0.5) == pytest.approx(5.0)
        assert clock.to_physical(2.0) == pytest.approx(12.0)

    def test_timer_armed_before_tdf_change_keeps_physical_deadline(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=10)
        fired = []
        clock.call_in(2.0, lambda: fired.append(sim.now))  # phys 20
        sim.schedule(10.0, lambda: clock.set_tdf(1))
        sim.run()
        assert fired == [pytest.approx(20.0)]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50),   # physical gap
                st.integers(min_value=1, max_value=100),  # new tdf
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_property_virtual_time_strictly_increases_across_tdf_changes(self, steps):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=3)
        samples = []
        at = 0.0
        for gap, new_tdf in steps:
            at += gap
            sim.call_at(at, lambda n=new_tdf: (samples.append(clock.now()),
                                               clock.set_tdf(n)))
        sim.run()
        samples.append(clock.now())
        assert all(b >= a for a, b in zip(samples, samples[1:]))

    @given(st.floats(min_value=0, max_value=1e4), st.integers(min_value=1, max_value=1000))
    def test_property_roundtrip(self, virtual_time, tdf):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=tdf)
        assert clock.to_local(clock.to_physical(virtual_time)) == pytest.approx(
            virtual_time, rel=1e-9, abs=1e-9
        )


class TestCachedRate:
    """``now``/``call_in``/``reschedule_in`` use a float rate cached per
    epoch; it must reproduce the exact-epoch arithmetic bit for bit."""

    TDFS = (Fraction(7, 3), 10, 1, "7/3", 0.1, Fraction(7, 3), 1)

    def test_rate_follows_every_tdf_change(self):
        sim = Simulator()
        clock = DilatedClock(sim, tdf=1, virtual_origin=0.25)
        checked = []

        def check(tdf):
            clock.set_tdf(tdf)
            rate = float(clock.tdf.value)
            for offset in (0.0, 0.1, 1.7):
                # Probe later instants inside the same epoch too.
                sim.call_at(sim.now + offset, probe, rate)

        def probe(rate):
            now = clock.now()
            assert now == clock.to_local(sim.now)
            event = clock.call_in(0.3, lambda: None)
            assert event.time == sim.now + 0.3 * rate
            clock.reschedule_in(event, 1.9)
            assert event.time == sim.now + 1.9 * rate
            event.cancel()
            checked.append(now)

        at = 0.0
        for tdf in self.TDFS:
            at += 2.3
            sim.call_at(at, check, tdf)
        sim.run()
        assert len(checked) == 3 * len(self.TDFS)
        assert len(clock._epochs) == 1 + len(self.TDFS)
        assert all(b > a for a, b in zip(checked, checked[1:]))
