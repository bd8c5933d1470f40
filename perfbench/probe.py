"""Set-up probe: a fresh interpreter imports crvanet, loads a scenario file
and constructs a SimulationEngine, then prints ``ready``. Before and after
that it times the calibration kernel, and at the end it prints
``kernel <seconds spent before> <median before> <median after>``.

usage: python3 perfbench/probe.py <checkout root> <scenario file>

run.py times a probe from its start to the ``ready`` line and subtracts
the kernel runs before it; that is the set-up every CLI invocation pays
before the first tick. The kernel times around it scale that time to the
reference host's speed.
"""

import os
import statistics
import sys
from time import perf_counter

if __name__ == "__main__":
    root, scenario = sys.argv[1], sys.argv[2]
    import calibrate  # imports numpy, which crvanet imports first thing anyway

    t0 = perf_counter()
    before = [calibrate.timed() for _ in range(3)]
    spent = perf_counter() - t0

    sys.path.insert(0, os.path.join(root, "src"))
    import crvanet

    crvanet.SimulationEngine(crvanet.load_scenario_file(scenario))
    print("ready", flush=True)

    after = [calibrate.timed() for _ in range(3)]
    print(f"kernel {spent!r} {statistics.median(before)!r} {statistics.median(after)!r}",
          flush=True)
