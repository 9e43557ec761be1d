"""``repro-trace`` CLI: capture -> export -> diff -> summarize."""

import json
import struct

import pytest

from repro.core.dilation import NetworkProfile
from repro.harness import figures
from repro.harness.report import FigureResult, Table
from repro.harness.runner import CellSpec, FigureCells
from repro.simnet.units import mbps, ms
from repro.trace import cli as trace_cli

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
    monkeypatch.setitem(
        figures.CELL_MODEL, "figtest",
        FigureCells(enumerate=_tiny_cells, assemble=_tiny_assemble),
    )


def _tiny_swarm_cells():
    return [
        CellSpec("swarmtest", "n4", "run_bittorrent",
                 {"perceived_leaf": PERCEIVED, "tdf": 1, "leechers": 4,
                  "file_bytes": 64 * 1024, "seed": 99}),
    ]


@pytest.fixture()
def tiny_swarm_figure(monkeypatch):
    monkeypatch.setitem(
        figures.CELL_MODEL, "swarmtest",
        FigureCells(enumerate=_tiny_swarm_cells, assemble=_tiny_assemble),
    )


def test_capture_export_diff_summarize(tmp_path, tiny_figure, capsys):
    rc = trace_cli.main([
        "capture", "figtest", "--out", str(tmp_path),
        "--spec", "bottleneck:tcp=1",
    ])
    assert rc == 0
    baseline = tmp_path / "figtest-tdf1.jsonl"
    dilated = tmp_path / "figtest-tdf10.jsonl"
    assert baseline.exists() and dilated.exists()
    out = capsys.readouterr().out
    assert "figtest-tdf1.jsonl" in out and "events" in out

    # Dilated vs scaled baseline: zero divergences.
    rc = trace_cli.main(["diff", str(dilated), str(baseline)])
    assert rc == 0
    assert "equivalent" in capsys.readouterr().out

    # pcap export, with valid nanosecond magic bytes.
    pcap_path = tmp_path / "dilated.pcap"
    rc = trace_cli.main(["export", str(dilated), "-o", str(pcap_path)])
    assert rc == 0
    with open(pcap_path, "rb") as handle:
        assert struct.unpack("<I", handle.read(4))[0] == 0xA1B23C4D

    # Virtual-time export works (the recorder owned the receiver's clock).
    rc = trace_cli.main(["export", str(dilated), "-o",
                         str(tmp_path / "virtual.pcap"),
                         "--time-base", "virtual"])
    assert rc == 0

    rc = trace_cli.main(["summarize", str(baseline)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "events" in out and "inter-event gaps" in out


def test_diff_detects_doctored_recording(tmp_path, tiny_figure, capsys):
    rc = trace_cli.main([
        "capture", "figtest", "--cells", "tdf1", "--out", str(tmp_path),
    ])
    assert rc == 0
    original = tmp_path / "figtest-tdf1.jsonl"
    doctored = tmp_path / "doctored.jsonl"
    lines = original.read_text().splitlines()
    broken = False
    records = []
    for line in lines:
        record = json.loads(line)
        if not broken and record.get("kind") == "tx":
            record["size_bytes"] = record.get("size_bytes", 0) + 1
            broken = True
        records.append(json.dumps(record))
    doctored.write_text("\n".join(records) + "\n")
    assert broken
    rc = trace_cli.main(["diff", str(original), str(doctored)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "first divergence" in out
    assert "size_bytes" in out


def test_capture_cell_filter(tmp_path, tiny_figure):
    rc = trace_cli.main([
        "capture", "figtest", "--cells", "tdf10", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "figtest-tdf10.jsonl").exists()
    assert not (tmp_path / "figtest-tdf1.jsonl").exists()


def test_capture_error_paths(tmp_path, tiny_figure, capsys):
    assert trace_cli.main(["capture", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown figure" in capsys.readouterr().err
    assert trace_cli.main([
        "capture", "figtest", "--cells", "tdf99", "--out", str(tmp_path),
    ]) == 2
    assert "unknown cell" in capsys.readouterr().err
    assert trace_cli.main([
        "capture", "figtest", "--spec", "warpcore", "--out", str(tmp_path),
    ]) == 2
    assert "unknown trace point" in capsys.readouterr().err


def test_capture_salt_rejected_for_bulk_cells(tmp_path, tiny_figure, capsys):
    assert trace_cli.main([
        "capture", "figtest", "--salt", "1e-6", "--out", str(tmp_path),
    ]) == 2
    assert "not saltable: tdf1, tdf10" in capsys.readouterr().err


def test_capture_fidelity_hybrid_plumbs_through(tmp_path, tiny_figure):
    """``--fidelity hybrid`` reaches the runner. At this tiny scale the
    fluid engine never engages (startup-dominated), so the hybrid capture
    is bit-exact with the packet one — pinning that the flag itself does
    not perturb fallback cells."""
    rc = trace_cli.main([
        "capture", "figtest", "--cells", "tdf1",
        "--out", str(tmp_path / "packet"),
    ])
    assert rc == 0
    rc = trace_cli.main([
        "capture", "figtest", "--cells", "tdf1", "--fidelity", "hybrid",
        "--out", str(tmp_path / "hybrid"),
    ])
    assert rc == 0
    rc = trace_cli.main([
        "diff",
        str(tmp_path / "hybrid" / "figtest-tdf1.jsonl"),
        str(tmp_path / "packet" / "figtest-tdf1.jsonl"),
    ])
    assert rc == 0


def test_capture_fidelity_rejected_for_non_fluid_cells(tmp_path, capsys):
    # A real cell whose runner (run_starlink) takes no fidelity axis.
    assert trace_cli.main([
        "capture", "ext6", "--cells", "swarm-tdf1,stream-dense-tdf1",
        "--fidelity", "hybrid", "--out", str(tmp_path),
    ]) == 2
    assert "not fluid-capable: stream-dense-tdf1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_capture_salted_baseline_matches_sharded_swarm(
    tmp_path, tiny_swarm_figure,
):
    """The CI shard tier's swarm gate: ``--salt`` makes the --shards 1
    baseline the same salted simulation the sharded capture runs, so the
    recordings diff to zero divergence."""
    rc = trace_cli.main([
        "capture", "swarmtest", "--salt", "1e-6",
        "--out", str(tmp_path / "one"),
    ])
    assert rc == 0
    rc = trace_cli.main([
        "capture", "swarmtest", "--salt", "1e-6", "--shards", "2",
        "--out", str(tmp_path / "two"),
    ])
    assert rc == 0
    rc = trace_cli.main([
        "diff",
        str(tmp_path / "two" / "swarmtest-n4.jsonl"),
        str(tmp_path / "one" / "swarmtest-n4.jsonl"),
    ])
    assert rc == 0


def test_capture_schedule_sharded_diff_zero_divergence(
    tmp_path, tiny_figure,
):
    """The CI schedule tier's gate: the same scheduled cell captured at
    --shards 1 and 2 diffs to zero divergence (replicated schedule timers
    step the per-shard link copies in lockstep)."""
    spec = "leo:period=0.2,count=2,outage=0.02"
    rc = trace_cli.main([
        "capture", "figtest", "--cells", "tdf1", "--schedule", spec,
        "--out", str(tmp_path / "one"),
    ])
    assert rc == 0
    rc = trace_cli.main([
        "capture", "figtest", "--cells", "tdf1", "--schedule", spec,
        "--shards", "2", "--out", str(tmp_path / "two"),
    ])
    assert rc == 0
    rc = trace_cli.main([
        "diff",
        str(tmp_path / "two" / "figtest-tdf1.jsonl"),
        str(tmp_path / "one" / "figtest-tdf1.jsonl"),
    ])
    assert rc == 0


def test_capture_schedule_rejects_bad_spec(tmp_path, tiny_figure, capsys):
    assert trace_cli.main([
        "capture", "figtest", "--schedule", "geo", "--out", str(tmp_path),
    ]) == 2
    assert "unknown schedule kind" in capsys.readouterr().err


def test_capture_schedule_rejected_for_incapable_cells(tmp_path, capsys):
    # A real cell whose runner (run_web) takes no schedule axis.
    assert trace_cli.main([
        "capture", "fig7", "--cells", "tdf1-rate5", "--schedule", "leo",
        "--out", str(tmp_path),
    ]) == 2
    assert "not schedule-capable: tdf1-rate5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["capture", "fig7"],
    ["capture", "fig3", "--spec", ":"],
    ["capture", "fig3", "--schedule", "leo:period=inf"],
    ["capture", "fig3", "--schedule", "csv:path=/nonexistent.csv"],
])
def test_capture_refuses_bad_input_before_any_cell(argv, tmp_path, capsys):
    assert trace_cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["capture", "fig9", "--cells", "tdf1", "--salt", "nan"],
     "delay_salt must be finite and >= 0: nan"),
    (["capture", "fig9", "--cells", "tdf1", "--salt", "-1"],
     "delay_salt must be finite and >= 0: -1.0"),
    (["capture", "fig5", "--cells", "tdf1", "--shards", "3"],
     "run_bulk supports exactly 2 shards"),
], ids=["salt-nan", "salt-negative", "bulk-shards-3"])
def test_capture_runner_refusal_is_one_line(argv, message, tmp_path, capsys):
    """A value only the runner can refuse exits 2 with its one line, the
    same as a refusal while the capture is planned."""
    assert trace_cli.main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [err.strip()]
    assert message in err
    assert not list(tmp_path.iterdir())


def test_diff_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    present = tmp_path / "yes.jsonl"
    present.write_text("")
    assert trace_cli.main(["diff", str(missing), str(present)]) == 2
