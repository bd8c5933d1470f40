"""Record or check the counter golden in perfbench/golden.json.

usage: python3 perfbench/golden.py check     # exit 1 on any mismatch
       python3 perfbench/golden.py record    # rewrite golden.json

The golden has two parts:

- ``default_scenario``: ``SimulationReport.counters`` of the default 10 s
  scenario for the three schemes x seeds 1-3, and one sha256 digest over
  all of them. This is the bit-identity gate a change that claims to keep
  behaviour must pass. About a minute on two cores.
- ``workloads``: for each benchmark workload and run seed 1-3, the output
  signature of one op on each of the run's scenarios, which every
  benchmark op on those seeds is compared with.

Record again only for a change that alters behaviour on purpose, and say so.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import crvanet  # noqa: E402

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def dump(golden: dict) -> str:
    """JSON with every innermost list on one line."""
    text = json.dumps(golden, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]",
                  text) + "\n"


def digest(counters: dict) -> str:
    return hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()


def compute() -> dict:
    default = {}
    for scheme in spec.SCHEMES:
        default[scheme] = {}
        for seed in spec.GOLDEN_SEEDS:
            config = replace(crvanet.ScenarioConfig(), scheme=crvanet.Scheme(scheme),
                             seed=seed).validate()
            report = crvanet.run_simulation(config)
            if not report.conservation_holds():
                raise SystemExit(f"{scheme} seed {seed}: conservation_holds() is false")
            default[scheme][str(seed)] = list(report.counters)
            print(f"default {scheme} seed {seed}: {report.counters}", flush=True)

    pinned = {}
    with run.scratch_dir() as tmp:
        for name in spec.WORKLOADS:
            pinned[name] = {}
            for seed in spec.GOLDEN_SEEDS:
                workload = workloads.make(name, seed, tmp)
                workload.golden = None
                workload.prepare()
                for index in range(len(workload.seeds)):
                    out = workload.op(index)
                    try:
                        problems = workload.check(index, out)
                    finally:
                        workload.cleanup(out)
                    if problems:
                        raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
                pinned[name][str(seed)] = workload.first
                print(f"workload {name} seed {seed}: done", flush=True)
    return {"default_scenario": {"digest": digest(default), "counters": default},
            "workloads": pinned}


def main(argv: list[str]) -> int:
    if argv not in (["check"], ["record"]):
        print(__doc__, file=sys.stderr)
        return 2
    fresh = compute()
    if argv == ["record"]:
        workloads.GOLDEN_PATH.write_text(dump(fresh))
        print(f"wrote {workloads.GOLDEN_PATH}; digest {fresh['default_scenario']['digest']}")
        return 0
    recorded = json.loads(workloads.GOLDEN_PATH.read_text())
    if fresh != recorded:
        print("MISMATCH: counters differ from golden.json", file=sys.stderr)
        return 1
    print(f"golden reproduces; digest {fresh['default_scenario']['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
