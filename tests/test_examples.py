"""Every script under ``examples/`` runs to completion.

The examples are the library's most public callers, and nothing else
imports them: a rename or a deletion in ``src/`` would otherwise break one
silently. Each runs in a fresh interpreter against this checkout's
``src/`` and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: The slowest example (``beyond_gigabit.py``) takes ~10 s on a 2-vCPU box.
TIMEOUT_S = 120


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr[-2000:]
