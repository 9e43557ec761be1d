"""Importing the runners loads only what a run uses.

Time dilation stretches links and CPUs, not memory, so every module a run
imports but never calls is resident cost on each emulated host's box. The
package ``__init__``s re-export only what the runners use; the CLI, the
figure registry, the pool runner, the live UDP gateway and the trace
diff/pcap tools load when something imports them. Checked in a fresh
interpreter, since this test process has long since loaded all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Modules no runner needs: the pool and figure machinery, live sockets,
#: and the trace tools, with the standard-library packages they pull in.
UNUSED_BY_RUNS = (
    "concurrent.futures",
    "multiprocessing",
    "socket",
    "selectors",
    "subprocess",
    "pickle",
    "logging",
    "repro.harness.figures",
    "repro.harness.runner",
    "repro.harness.cli",
    "repro.realtime.ingress",
    "repro.trace.pcap",
    "repro.trace.diff",
)

PROBE = """
import json, sys
import repro.harness.experiments
loaded = [name for name in {names!r} if name in sys.modules]

# The README's quick tour: ``from repro import ...`` imports each submodule.
from repro import simnet, core
sim = simnet.Simulator()
vm = core.Hypervisor(sim).create_vm("guest0", tdf=10)
fired = []
vm.clock.call_in(1.0, lambda: fired.append(sim.now))
sim.run()
print(json.dumps({{"loaded": loaded, "fired": fired}}))
"""


def test_runner_import_loads_no_unused_module():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(names=UNUSED_BY_RUNS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["fired"] == [10.0]  # one virtual second at TDF 10
