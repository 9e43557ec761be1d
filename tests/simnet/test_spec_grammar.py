"""The spec grammars refuse bad input with one error type, at parse time.

``--trace``, ``--impair`` and ``--schedule`` specs and CSV schedule
traces either parse or raise :class:`ConfigurationError` naming what was
wrong. The regressions pin values that used to be guessed or to escape
as other exception types; the Hypothesis tests check that no other
exception type escapes any of the four grammars.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.errors import ConfigurationError
from repro.simnet.impairments import ImpairmentSpec
from repro.simnet.schedule import ScheduleSpec, load_trace
from repro.stats.engineprof import profiled
from repro.trace.spec import TraceSpec


def _write(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------- regressions


@pytest.mark.parametrize("text", ["", ":"])
def test_trace_spec_without_a_point_is_refused(text):
    with pytest.raises(ConfigurationError, match="unknown trace point"):
        TraceSpec.parse(text)


def test_trace_spec_flag_accepts_only_known_booleans():
    with pytest.raises(ConfigurationError, match="bad tcp 'maybe'"):
        TraceSpec.parse("receiver:tcp=maybe")
    assert TraceSpec.parse("receiver:tcp=yes,timers=0").tcp is True


def test_schedule_spec_refuses_infinite_period():
    with pytest.raises(ConfigurationError, match="bad period 'inf'"):
        ScheduleSpec.parse("leo:period=inf")


def test_schedule_spec_names_a_non_numeric_value():
    with pytest.raises(ConfigurationError, match="bad period 'abc'"):
        ScheduleSpec.parse("leo:period=abc")


def test_schedule_spec_checks_csv_path_at_parse():
    with pytest.raises(ConfigurationError, match="/nonexistent.csv"):
        ScheduleSpec.parse("csv:path=/nonexistent.csv")
    # The constructor is the check, not parse alone.
    with pytest.raises(ConfigurationError, match="/nonexistent"):
        ScheduleSpec(kind="csv", path="/nonexistent")


@pytest.mark.parametrize("rows, message", [
    ("1.0,0.01\n0.5,0.02\n",
     "schedule times must be strictly increasing: 1.0 then 0.5"),
    ("0.5,0.01\n0.5,0.02\n",
     "schedule times must be strictly increasing: 0.5 then 0.5"),
    ("-1.0,0.01\n", "schedule times must be finite and non-negative"),
    ("0.5,-0.01\n", "scheduled delay must be non-negative: -0.01"),
    ("0.5,0.01,0\n", "scheduled bandwidth must be positive: 0.0"),
], ids=["backwards", "repeated", "negative-time", "negative-delay",
        "zero-bandwidth"])
def test_schedule_spec_checks_csv_rows_when_constructed(tmp_path, rows,
                                                        message):
    """A trace no link could follow is refused where the spec is made,
    by the same check a LinkSchedule applies, not inside a cell."""
    path = _write(tmp_path, rows)
    with pytest.raises(ConfigurationError) as refused:
        ScheduleSpec.parse(f"csv:path={path}")
    assert message in str(refused.value)


def test_impairment_spec_names_a_non_numeric_value():
    with pytest.raises(ConfigurationError, match="bad rate 'abc'"):
        ImpairmentSpec.parse("bernoulli:rate=abc")


@pytest.mark.parametrize("text, message", [
    ("bernoulli:rate=2", "loss rate must be in [0, 1]: 2.0"),
    ("bernoulli:rate=-0.1", "loss rate must be in [0, 1]: -0.1"),
    ("gilbert:rate=1", "loss_rate must be in (0, 1): 1.0"),
    ("gilbert:rate=0.5,burst=0.5", "mean_burst must be >= 1: 0.5"),
    ("reorder:rate=3", "reorder rate must be in [0, 1]: 3.0"),
    ("reorder:rate=0.1,hold=-1", "hold_s must be finite and non-negative"),
    ("duplicate:rate=1.5", "duplicate rate must be in [0, 1]: 1.5"),
    ("corrupt:rate=2", "corrupt rate must be in [0, 1]: 2.0"),
    # Outages and delay steps are link schedules (--schedule), not
    # impairment kinds.
    ("flap:windows=1-2", "unknown impairment kind 'flap'"),
    ("handover:every=1,count=1", "unknown impairment kind 'handover'"),
])
def test_impairment_spec_range_checked_at_parse(text, message):
    with pytest.raises(ConfigurationError) as refused:
        ImpairmentSpec.parse(text)
    assert message in str(refused.value)


@pytest.mark.parametrize("text", [
    "bernoulli:rate=0.01,seed=7",
    "gilbert:rate=0.01,burst=4",
    "reorder:rate=0.05,hold=0.002",
])
def test_impairment_spec_docstring_examples_parse(text):
    with profiled() as profiler:
        ImpairmentSpec.parse(text)
    # The parse-time range check builds no engine an active profiler
    # would count.
    assert profiler.snapshot()["simulators"] == 0


def test_load_trace_refuses_nan_delay(tmp_path):
    path = _write(tmp_path, "0.5,nan\n")
    with pytest.raises(ConfigurationError, match="trace.csv:1: bad delay"):
        load_trace(path)


def test_load_trace_names_line_of_non_numeric_delay(tmp_path):
    path = _write(tmp_path, "0.5,0.03\n1.0,fast\n")
    with pytest.raises(ConfigurationError, match="trace.csv:2: bad delay"):
        load_trace(path)


def test_load_trace_names_line_of_non_numeric_bandwidth(tmp_path):
    path = _write(tmp_path, "0.5,0.03,1e6\n1.0,0.03,lots\n")
    with pytest.raises(ConfigurationError,
                       match="trace.csv:2: bad bandwidth"):
        load_trace(path)


# ------------------------------------------------------------ fuzzing

_VALUES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["0", "1", "-1", "0.5", "2.5", "nan", "inf", "1e400",
                     "yes", "maybe", "", "1-2/3-4", "0.1+0.2", "tx+rx"]),
)


def _specs(kinds, keys):
    """Free text, plus text shaped like ``kind:key=value,...``."""
    item = st.tuples(st.sampled_from(keys) | st.text(max_size=5),
                     _VALUES).map(lambda kv: f"{kv[0]}={kv[1]}")
    shaped = st.tuples(
        st.sampled_from(kinds) | st.text(max_size=6),
        st.lists(item | st.text(max_size=6), max_size=4),
    ).map(lambda parts: f"{parts[0]}:{','.join(parts[1])}")
    return st.one_of(st.text(max_size=40), shaped)


def _parses_or_refuses(parse, text):
    try:
        parse(text)
    except ConfigurationError:
        pass


@settings(max_examples=300, deadline=None)
@given(_specs(["bottleneck", "reverse", "receiver"],
              ["kinds", "capacity", "tcp", "timers"]))
def test_trace_spec_grammar_fuzz(text):
    _parses_or_refuses(TraceSpec.parse, text)


@settings(max_examples=300, deadline=None)
@given(_specs(["bernoulli", "gilbert", "reorder", "duplicate", "corrupt"],
              ["rate", "burst", "hold", "seed"]))
def test_impairment_spec_grammar_fuzz(text):
    _parses_or_refuses(ImpairmentSpec.parse, text)


@settings(max_examples=300, deadline=None)
@given(_specs(["leo", "csv"],
              ["period", "count", "outage", "amp", "dip", "path"]))
def test_schedule_spec_grammar_fuzz(text):
    _parses_or_refuses(ScheduleSpec.parse, text)


_CSV_LINE = st.one_of(
    st.text(max_size=30),
    st.lists(_VALUES, min_size=1, max_size=5).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CSV_LINE, max_size=6))
def test_load_trace_grammar_fuzz(lines):
    handle, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(handle, "w", encoding="utf-8",
                       errors="surrogatepass") as out:
            out.write("\n".join(lines))
        _parses_or_refuses(load_trace, path)
    finally:
        os.unlink(path)
