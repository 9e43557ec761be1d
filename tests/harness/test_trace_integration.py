"""Tracing through the sweep runner and ``repro-figure --trace``."""

import pytest

from repro.core.dilation import NetworkProfile
from repro.harness import cli, figures
from repro.harness.report import FigureResult, Table
from repro.harness.runner import CellSpec, FigureCells, run_sweep
from repro.simnet.units import mbps, ms
from repro.trace.diff import diff_traces
from repro.trace.spec import TraceSpec

PERCEIVED = NetworkProfile.from_rtt(mbps(5), ms(10))


def _tiny_cells():
    return [
        CellSpec("figtest", f"tdf{k}", "run_bulk",
                 {"perceived": PERCEIVED, "tdf": k,
                  "duration_s": 0.6, "warmup_s": 0.1})
        for k in (1, 10)
    ]


def _tiny_assemble(results):
    table = Table(["cell"])
    for key in results:
        table.add_row(key)
    return FigureResult("figtest", "tiny", table)


@pytest.fixture()
def tiny_figure(monkeypatch):
    model = FigureCells(enumerate=_tiny_cells, assemble=_tiny_assemble)
    monkeypatch.setitem(figures.CELL_MODEL, "figtest", model)


def test_sweep_collects_traces_in_spec_order(tiny_figure):
    outcome = run_sweep(["figtest"], jobs=1, cache_dir=None,
                        trace=TraceSpec(tcp=True))
    assert [(fid, key) for fid, key, _ in outcome.traces] == [
        ("figtest", "tdf1"), ("figtest", "tdf10"),
    ]
    for _, _, events in outcome.traces:
        assert events
    # Dilated and baseline cells recorded equivalent streams.
    (_, _, base), (_, _, dilated) = outcome.traces
    assert diff_traces(dilated, base).identical
    # Per-cell recorder accounting rides on the timings.
    assert all(t.recorder_events == len(events)
               for t, (_, _, events) in zip(outcome.timings, outcome.traces))
    assert "recorder" in outcome.timings_table()


def test_traces_are_jobs_invariant(tiny_figure):
    sequential = run_sweep(["figtest"], jobs=1, cache_dir=None,
                           trace=TraceSpec())
    pooled = run_sweep(["figtest"], jobs=2, cache_dir=None,
                       trace=TraceSpec())
    assert len(sequential.traces) == len(pooled.traces) == 2
    for (fid_a, key_a, ev_a), (fid_b, key_b, ev_b) in zip(
        sequential.traces, pooled.traces
    ):
        assert (fid_a, key_a) == (fid_b, key_b)
        # Content-equivalent (uids are process-global and may differ).
        assert diff_traces(ev_a, ev_b).identical


def test_untraced_sweep_unchanged(tiny_figure):
    outcome = run_sweep(["figtest"], jobs=1, cache_dir=None)
    assert outcome.traces == []
    assert all(t.recorder_events is None for t in outcome.timings)
    assert "recorder" not in outcome.timings_table()


def test_traced_cell_is_a_different_cell():
    spec = _tiny_cells()[0]
    kwargs = dict(spec.kwargs)
    kwargs["trace"] = TraceSpec()
    traced = CellSpec(spec.figure_id, spec.key, spec.runner, kwargs)
    assert traced.token() != spec.token()
    # And different trace configurations hash apart too.
    kwargs2 = dict(spec.kwargs)
    kwargs2["trace"] = TraceSpec(point="receiver")
    assert CellSpec(spec.figure_id, spec.key, spec.runner,
                    kwargs2).token() != traced.token()


def test_trace_requires_traceable_cells(monkeypatch):
    cells = [CellSpec("figcpu", "only", "run_cpu_task",
                      {"tdf": 2, "cpu_share": 0.5})]
    monkeypatch.setitem(
        figures.CELL_MODEL, "figcpu",
        FigureCells(enumerate=lambda: cells,
                    assemble=lambda results: _tiny_assemble(results)),
    )
    with pytest.raises(ValueError, match="no traceable cells"):
        run_sweep(["figcpu"], jobs=1, cache_dir=None, trace=TraceSpec())


def test_figure_cli_trace_flag(tiny_figure, tmp_path, capsys):
    rc = cli.main([
        "figtest", "--jobs", "1", "--no-cache",
        "--trace", "bottleneck:tcp=1", "--trace-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    trace_path = tmp_path / "figtest.jsonl"
    assert trace_path.exists()
    assert "trace:" in out
    # Merged recording: every line tagged with its cell, in spec order.
    import json

    cells = [json.loads(line)["cell"]
             for line in trace_path.read_text().splitlines()]
    assert set(cells) == {"tdf1", "tdf10"}
    assert cells == sorted(cells, key=["tdf1", "tdf10"].index)


def test_figure_cli_trace_composes_with_profile_engine(tiny_figure,
                                                       tmp_path, capsys):
    rc = cli.main(["figtest", "--trace", "bottleneck",
                   "--trace-dir", str(tmp_path), "--profile-engine"])
    assert rc == 0
    out = capsys.readouterr().out
    assert (tmp_path / "figtest.jsonl").exists()
    assert out.count("engine profile:") == 1
    assert "trace:" in out


def test_figure_cli_trace_bad_spec(tiny_figure, capsys):
    rc = cli.main(["figtest", "--trace", "holodeck"])
    assert rc == 2
    assert "unknown trace point" in capsys.readouterr().err


def test_fig5_receiver_trace_yields_the_untraced_figure():
    # The interarrival collector and the receiver trace observe the same
    # interface; both must record, and tracing must not move the figure.
    plain = run_sweep(["fig5"], jobs=1, cache_dir=None)
    traced = run_sweep(["fig5"], jobs=1, cache_dir=None,
                       trace=TraceSpec(point="receiver"))
    assert traced.all_passed
    assert ([figure.render() for figure in traced.figures]
            == [figure.render() for figure in plain.figures])
    assert [key for _, key, _ in traced.traces] == ["tdf1", "tdf10", "tdf100"]
    for _, _, events in traced.traces:
        assert events
        assert {event.site for event in events} == {"d0->rR"}
