"""Tests for the figure registry and CLI (cheap figures only)."""

import pytest

from repro.harness import cli
from repro.harness.figures import CELL_MODEL, figure_ids, run_figure


def test_registry_covers_design_doc():
    expected = {
        "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "ablation1", "ablation2", "ext1", "ext2", "ext3",
        "ext4", "ext5", "ext6",
    }
    assert set(figure_ids()) == expected


def test_run_figure_unknown_id():
    with pytest.raises(KeyError):
        run_figure("fig99")


def test_table1_runs_and_passes():
    result = run_figure("table1")
    assert result.all_passed
    assert result.table.rows


def test_table2_runs_and_passes():
    result = run_figure("table2")
    assert result.all_passed


def test_every_figure_has_docstring():
    for figure_id, model in CELL_MODEL.items():
        assert model.description.strip(), f"{figure_id} has no description"


def test_cli_list(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out
    assert "ablation2" in out


def test_cli_no_args_lists(capsys):
    assert cli.main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_cli_unknown_figure(capsys):
    assert cli.main(["nope"]) == 2


def test_cli_runs_table1(capsys):
    assert cli.main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "Perceived resources" in out


def test_cli_impair_rejected_for_figures_without_the_axis(capsys):
    assert cli.main(["fig3", "--impair", "bernoulli:rate=0.01"]) == 2
    assert "no --impair axis" in capsys.readouterr().err


def test_run_figure_impair_rejected_without_axis():
    with pytest.raises(ValueError):
        run_figure("table1", impair="bernoulli:rate=0.01")


def test_cli_csv_export(tmp_path, capsys):
    assert cli.main(["table1", "--csv", str(tmp_path)]) == 0
    csv_file = tmp_path / "table1.csv"
    assert csv_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert "TDF" in header


@pytest.mark.parametrize("argv", [
    ["ext4", "--impair", "bogus:x=1"],
    ["ext4", "--impair", "bernoulli:rate=abc"],
    ["fig3", "--schedule", "leo:period=abc"],
    ["fig9", "--schedule", "csv:path=/nonexistent.csv"],
    ["fig3", "--trace", "receiver:tcp=maybe"],
    ["fig7", "--trace", "bottleneck"],
    ["table1", "--fidelity", "hybrid"],
    ["fig7", "--shards", "2"],
])
def test_cli_refuses_bad_input_before_any_cell_with_one_line(argv, capsys):
    assert cli.main([*argv, "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
