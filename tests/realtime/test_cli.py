"""``repro-realtime serve``: a short live run and the bad-input contract.

Bad input exits 2 with one line on stderr and no traceback, the contract
``repro-figure`` and ``repro-trace`` keep.
"""

import socket

import pytest

from repro.realtime.cli import main


def test_serve_runs_for_its_duration_and_reports(capsys):
    code = main(["serve", "--bind", "127.0.0.1:0", "--duration", "0.2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "serving on 127.0.0.1:" in out
    assert "served 0 in / 0 out datagrams" in out


@pytest.mark.parametrize("flag, value, message", [
    ("--tdf", "0", "TDF must be positive, got 0"),
    ("--rtt-ms", "-5", "profile delay must be non-negative"),
    ("--bandwidth-mbps", "0", "profile bandwidth must be positive"),
    ("--miss-ms", "0", "miss_threshold_s must be positive"),
])
def test_serve_bad_knob_exits_2_with_one_line(capsys, flag, value, message):
    code = main(["serve", "--bind", "127.0.0.1:0", "--duration", "0.1",
                 flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_serve_on_a_taken_address_exits_2_with_one_line(capsys):
    taken = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        taken.bind(("127.0.0.1", 0))
        port = taken.getsockname()[1]
        code = main(["serve", "--bind", f"127.0.0.1:{port}",
                     "--duration", "0.1"])
    finally:
        taken.close()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
