"""The sweep-axis pass: capability from runner signatures, one refusal site.

``CAPABILITIES`` is the reference table of which axes each runner takes.
It is written out by hand on purpose: a signature edit that drops (or
adds) an axis changes what ``--trace``/``--shards``/``--fidelity``/
``--schedule`` do to every figure, and must fail here loudly rather than
silently re-route a sweep.
"""

import pytest

from repro.core.dilation import NetworkProfile
from repro.harness import experiments
from repro.harness.experiments import RUNNERS, run_bittorrent, run_bulk
from repro.harness.runner import AXES, CellSpec, accepts, apply_axes
from repro.harness.scenario import Scenario
from repro.parallel.shard import DEFAULT_DELAY_SALT
from repro.simnet.errors import ConfigurationError
from repro.simnet.schedule import ScheduleSpec
from repro.simnet.topology import Network
from repro.simnet.units import mbps, ms
from repro.trace.spec import TraceSpec

CAPABILITIES = {
    "run_bulk": {"trace", "shards", "fidelity", "schedule"},
    "run_bittorrent": {"trace", "shards", "fidelity", "schedule",
                       "delay_salt"},
    "run_starlink": {"schedule"},
    "run_web": set(),
    "run_cpu_task": set(),
    "run_guest_build_job": set(),
    "run_dynamic_tdf": set(),
}

#: A requested (non-neutral) value per axis.
VALUES = {
    "trace": TraceSpec(),
    "shards": 2,
    "fidelity": "hybrid",
    "schedule": ScheduleSpec(kind="leo"),
    "delay_salt": 1e-6,
}


def _cell(runner, key="k", **kwargs):
    return CellSpec("figx", key, runner, kwargs)


def test_reference_table_covers_every_runner_and_axis():
    assert set(CAPABILITIES) == set(RUNNERS)
    assert set(VALUES) == set(AXES)


@pytest.mark.parametrize("runner", sorted(CAPABILITIES))
@pytest.mark.parametrize("axis", sorted(VALUES))
def test_capability_matrix(runner, axis):
    takes = axis in CAPABILITIES[runner]
    assert accepts(runner, axis) is takes
    cells = [_cell(runner)]
    if takes:
        (out,) = apply_axes(cells, "figx", every_cell=True,
                            **{axis: VALUES[axis]})
        assert out.kwargs[axis] == VALUES[axis]
        assert out.token() != cells[0].token()
    else:
        word = AXES[axis][1]
        with pytest.raises(ConfigurationError, match=f"not {word}: k"):
            apply_axes(cells, "figx", every_cell=True,
                       **{axis: VALUES[axis]})


def test_neutral_values_request_nothing():
    cells = [_cell("run_web", tdf=1)]
    out = apply_axes(cells, "figx", every_cell=True, trace=None, shards=1,
                     fidelity="packet", schedule=None, delay_salt=None)
    assert out[0].kwargs == cells[0].kwargs
    assert out[0].token() == cells[0].token()


def test_sweep_policy_refuses_only_an_axis_no_cell_takes():
    cells = [_cell("run_bulk", "bulk"), _cell("run_web", "web")]
    out = apply_axes(cells, "figx", trace=TraceSpec())
    assert out[0].kwargs["trace"] == TraceSpec()
    assert "trace" not in out[1].kwargs
    with pytest.raises(ConfigurationError,
                       match="experiment 'figx' has no fluid-capable cells"):
        apply_axes([cells[1]], "figx", fidelity="hybrid")
    # A figure with no cells at all takes no axis either (table1).
    with pytest.raises(ConfigurationError, match="no schedule-capable"):
        apply_axes([], "table1", schedule=ScheduleSpec(kind="leo"))


def test_refusal_names_every_failing_axis_once():
    with pytest.raises(ConfigurationError) as error:
        apply_axes([_cell("run_starlink", "s")], "figx", every_cell=True,
                   trace=TraceSpec(), fidelity="hybrid",
                   schedule=ScheduleSpec(kind="leo"))
    message = str(error.value)
    assert "not traceable: s" in message
    assert "not fluid-capable: s" in message
    assert "schedule-capable" not in message
    assert "\n" not in message


def test_shards_salt_swarm_cells_by_default_and_explicit_salt_wins():
    swarm = _cell("run_bittorrent", "swarm")
    bulk = _cell("run_bulk", "bulk")
    out_swarm, out_bulk = apply_axes([swarm, bulk], "figx", shards=2)
    assert out_swarm.kwargs["delay_salt"] == DEFAULT_DELAY_SALT
    assert "delay_salt" not in out_bulk.kwargs
    (explicit,) = apply_axes([swarm], "figx", shards=2, delay_salt=0.0)
    assert explicit.kwargs["delay_salt"] == 0.0
    (spec_salt,) = apply_axes([_cell("run_bittorrent", delay_salt=3e-6)],
                              "figx", shards=2)
    assert spec_salt.kwargs["delay_salt"] == 3e-6


def test_axis_overrides_a_value_the_cell_carries():
    baked = ScheduleSpec(kind="leo", period_s=3.0)
    user = ScheduleSpec(kind="leo", period_s=1.0)
    (out,) = apply_axes([_cell("run_starlink", schedule=baked)], "figx",
                        schedule=user)
    assert out.kwargs["schedule"] == user


PROFILE = NetworkProfile.from_rtt(mbps(10), ms(20))
FIDELITY = "unknown fidelity 'fluid': expected 'packet' or 'hybrid'"
REALTIME = "realtime=True requires shards=1"


def _bulk(**kwargs):
    return run_bulk(PROFILE, 1, duration_s=0.1, **kwargs)


def _swarm(**kwargs):
    return run_bittorrent(PROFILE, 1, leechers=2, file_bytes=1 << 16,
                          seed=1, **kwargs)


def _testbed(**kwargs):
    return Scenario(Network(), **kwargs)


@pytest.mark.parametrize(
    "run, kwargs, message",
    [
        (_bulk, {"fidelity": "fluid"}, FIDELITY),
        (_bulk, {"fidelity": "fluid", "shards": 2}, FIDELITY),
        (_swarm, {"fidelity": "fluid"}, FIDELITY),
        (_swarm, {"fidelity": "fluid", "shards": 2}, FIDELITY),
        (_bulk, {"realtime": True, "shards": 2}, REALTIME),
        (_testbed, {"fidelity": "fluid"}, FIDELITY),
    ],
    ids=["bulk-fluid", "bulk-fluid-sharded", "swarm-fluid",
         "swarm-fluid-sharded", "bulk-realtime-sharded", "testbed-fluid"],
)
def test_axis_refused_before_any_worker_starts(monkeypatch, run, kwargs,
                                               message):
    def spawn(*args, **kwargs):
        raise AssertionError("a shard worker was started")

    monkeypatch.setattr(experiments, "run_sharded", spawn)
    with pytest.raises(ConfigurationError, match=message):
        run(**kwargs)
