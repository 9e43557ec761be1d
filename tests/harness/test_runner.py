"""The parallel sweep runner: determinism, dedup, caching, CLI surface.

The load-bearing claim is bit-exactness: ``run_sweep(jobs=N)`` must
produce byte-identical figure reports to ``jobs=1`` (which is what
``run_figure`` runs), because cells are pure functions of their spec. The
pinned figures deliberately span the risk surface — fig3 (a wide
multi-TDF bulk sweep), fig9 (the seeded BitTorrent swarm, the most
event-ordering-sensitive experiment), ext4 (the impairment axis).
"""

import dataclasses
import pickle
import re

import pytest

from repro.harness import cli
from repro.harness.figures import CELL_MODEL
from repro.harness.runner import (
    CellSpec,
    ResultCache,
    canonical,
    run_sweep,
)


class TestCanonical:
    def test_primitives(self):
        assert canonical(1) == "1"
        assert canonical(True) == "True"
        assert canonical(None) == "None"
        assert canonical("a") == "'a'"
        assert canonical(0.1) == repr(0.1)

    def test_int_and_float_do_not_collide(self):
        assert canonical(1) != canonical(1.0)

    def test_dict_key_order_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_dataclasses_recurse(self):
        @dataclasses.dataclass(frozen=True)
        class Point:
            x: float
            y: float

        assert canonical(Point(1.0, 2.0)) == canonical(Point(1.0, 2.0))
        assert canonical(Point(1.0, 2.0)) != canonical(Point(2.0, 1.0))

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestTokens:
    def test_token_is_stable(self):
        spec = CellSpec("fig3", "rtt10-tdf1", "run_bulk", {"tdf": 1})
        assert spec.token() == spec.token()
        assert spec.token() == CellSpec(
            "fig3", "rtt10-tdf1", "run_bulk", {"tdf": 1}
        ).token()

    def test_token_ignores_address_but_not_work(self):
        a = CellSpec("fig7", "k", "run_web", {"seed": 1})
        b = CellSpec("fig8", "other", "run_web", {"seed": 1})
        c = CellSpec("fig7", "k", "run_web", {"seed": 2})
        assert a.token() == b.token()
        assert a.token() != c.token()

    def test_fig7_fig8_share_every_cell(self):
        fig7 = [spec.token() for spec in CELL_MODEL["fig7"].cells()]
        fig8 = [spec.token() for spec in CELL_MODEL["fig8"].cells()]
        assert fig7 == fig8

    def test_every_figure_enumerates_picklable_hashable_cells(self):
        seen = {}
        for figure_id, model in CELL_MODEL.items():
            for spec in model.cells():
                pickle.dumps(spec)
                token = spec.token()
                # Same token from different figures must mean same work.
                if token in seen:
                    assert seen[token].runner == spec.runner
                    assert canonical(seen[token].kwargs) == canonical(
                        spec.kwargs
                    )
                seen[token] = spec
                assert spec.figure_id == figure_id


class TestBitExactMerge:
    """jobs=N must be byte-identical to jobs=1 — the tentpole guarantee.

    One figure per cell shape: plain ``run_bulk`` (fig5, three cells),
    impaired ``run_bulk`` (ext4) and ``run_bittorrent`` (fig9). fig3's
    values stay pinned by ``test_determinism_golden.py``.
    """

    IDS = ["fig5", "fig9", "ext4"]

    @pytest.fixture(scope="class")
    def sequential(self):
        return run_sweep(self.IDS, jobs=1, cache_dir=None)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_sweep(self.IDS, jobs=2, cache_dir=None)

    def test_reports_byte_identical(self, sequential, parallel):
        assert [f.figure_id for f in sequential.figures] == self.IDS
        for seq, par in zip(sequential.figures, parallel.figures):
            assert seq.render() == par.render()

    def test_checks_pass_both_ways(self, sequential, parallel):
        assert sequential.all_passed
        assert parallel.all_passed

    def test_merge_is_in_request_order(self):
        out = run_sweep(["table2", "table1"], jobs=1, cache_dir=None)
        assert [f.figure_id for f in out.figures] == ["table2", "table1"]


class TestSweepMechanics:
    def test_table2_dedups_duplicate_cells(self):
        # tdf=1 enumerates share 1.0 twice (full == compensated): 6 cells,
        # 5 unique executions.
        out = run_sweep(["table2"], jobs=1, cache_dir=None)
        assert out.cells_total == 5
        assert out.cells_executed == 5
        assert out.figures[0].all_passed
        # Unprofiled without collect_timings.
        assert out.profiles == {}
        assert all(t.events is None for t in out.timings)

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            run_sweep(["fig99"], jobs=1, cache_dir=None)

    def test_impair_rejected_without_axis(self):
        with pytest.raises(ValueError, match="no --impair axis"):
            run_sweep(["table2"], jobs=1, impair="bernoulli:rate=0.01",
                      cache_dir=None)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(["table2"], jobs=0, cache_dir=None)

    def test_timings_cover_every_unique_cell(self):
        out = run_sweep(["table2", "table1"], jobs=1, cache_dir=None,
                        collect_timings=True)
        assert len(out.timings) == out.cells_total
        assert all(t.events is not None for t in out.timings)
        assert "table2" in out.timings_table()
        # One merged profile per figure; table1 builds no simulator.
        assert list(out.profiles) == ["table2", "table1"]
        assert out.profiles["table2"]["events"] == sum(
            t.events for t in out.timings
        ) > 0
        assert out.profiles["table1"]["events"] == 0


class TestResultCache:
    def test_sweep_is_fully_cached_second_time(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_sweep(["table2"], jobs=1, cache_dir=cache_dir)
        assert first.cells_cached == 0
        second = run_sweep(["table2"], jobs=1, cache_dir=cache_dir,
                           collect_timings=True)
        assert second.cells_cached == second.cells_total
        assert second.cells_executed == 0
        assert "100.0%" in second.cache_summary()
        # Cached cells carry no profile, so the figure's merge is empty.
        assert second.profiles["table2"]["events"] == 0
        assert (
            second.figures[0].render() == first.figures[0].render()
        )

    def test_parallel_run_populates_cache_for_sequential(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(["table2"], jobs=2, cache_dir=cache_dir)
        second = run_sweep(["table2"], jobs=1, cache_dir=cache_dir)
        assert second.cells_executed == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("deadbeef", {"ok": True})
        hit, value = cache.load("deadbeef")
        assert hit and value == {"ok": True}
        (tmp_path / "deadbeef.pkl").write_bytes(b"not a pickle")
        hit, value = cache.load("deadbeef")
        assert not hit and value is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        hit, value = cache.load("0" * 64)
        assert not hit

    def test_no_stray_tmp_files_after_store(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("aa", [1, 2, 3])
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestCliSweep:
    def test_jobs_flag_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli.main(["table2", "--jobs", "2",
                         "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cells: 5 unique, 0 cached" in out
        assert cli.main(["table2", "--jobs", "2",
                         "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "5 cached (100.0%), 0 executed" in out

    def test_stdout_identical_across_jobs(self, capsys):
        assert cli.main(["table2", "table1", "--jobs", "1",
                         "--no-cache"]) == 0
        sequential = capsys.readouterr().out
        assert cli.main(["table2", "table1", "--jobs", "2",
                         "--no-cache"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel

    def test_timings_flag_prints_table(self, capsys):
        assert cli.main(["table2", "--no-cache", "--jobs", "1",
                         "--timings"]) == 0
        out = capsys.readouterr().out
        assert "Per-cell timings" in out
        assert "peak RSS (MiB)" in out

    def test_no_cache_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["table1", "--no-cache"]) == 0
        assert not (tmp_path / ".repro-cache").exists()

    def test_default_cache_dir_is_repro_cache(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["table2", "--jobs", "1"]) == 0
        assert (tmp_path / ".repro-cache").exists()

    def test_impair_misuse_still_exits_2(self, capsys):
        assert cli.main(["fig3", "--impair", "bernoulli:rate=0.01",
                         "--no-cache"]) == 2
        assert "no --impair axis" in capsys.readouterr().err

    def test_profile_engine_composes_with_timings_and_jobs(self, capsys):
        assert cli.main(["table2", "--profile-engine", "--timings",
                         "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Per-cell timings (2 job(s)" in out
        profiled = re.search(r"events executed\s+([\d,]+)", out).group(1)
        timed = re.search(r"([\d,]+) engine events", out).group(1)
        assert profiled == timed != "0"
