"""Self-test of the benchmark harness, at a tiny simulated horizon.

usage: python3 perfbench/selftest.py      # about half a minute; exit 1 on failure

Checks that:
1. the tracer patches every lookup site of a wrapped name and restores
   every original afterwards;
2. traced ops produce exactly the outputs of untraced ops, and the layer
   counts show which layers ran (no epoch on standalone, recalibration
   only where proposed runs);
3. the metric names and units the benchmark prints match BENCHMARK.json,
   for both --trace 0 and --trace 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HORIZON = 0.2

# (module, name) lookup sites that import a wrapped function by name
NAMED_IMPORTS = (("engine", "step_pu"), ("engine", "step_su"), ("engine", "record_event"),
                 ("scheduling", "record_event"), ("sensing", "hata_suburban_loss"),
                 ("cli", "load_scenario_file"))


def snapshot() -> dict:
    """Every attribute of every crvanet module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "crvanet" or name.startswith("crvanet."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for member, inner in vars(value).items():
                        seen[(name, attr, member)] = inner
    return seen


def check_restore(failures: list[str]) -> None:
    before = snapshot()
    with Tracer():
        during = snapshot()
        for module, name in NAMED_IMPORTS:
            key = (f"crvanet.{module}", name)
            if during[key] is before[key]:
                failures.append(f"{module}.{name} is not patched")
    changed = [key for key, value in snapshot().items() if before.get(key) is not value]
    if changed:
        failures.append(f"not restored: {changed}")
    if not any(during[key] is not before[key] for key in before):
        failures.append("the tracer patched nothing")


def check_traced_outputs(tmp: str, failures: list[str]) -> None:
    recalibrating = {"proposed", "sweep-vehicles"}
    for name in spec.WORKLOADS:
        workload = workloads.make(name, 7, tmp, HORIZON)
        workload.prepare()
        out = workload.op(0, serial=True)
        try:
            problems = workload.check(0, out)
        finally:
            workload.cleanup(out)
        tracer = Tracer()
        with tracer:
            out = workload.op(0, serial=True)
        try:
            problems += workload.check(0, out)
        finally:
            workload.cleanup(out)
        failures.extend(f"{name}: {p}" for p in problems)
        layer = tracer.layer_metrics()
        if name in ("standalone", "traced-standalone") and (
                layer["coordination.epochs"] or layer["sensing.windows.epoch"]):
            failures.append(f"{name}: epoch work on a scheme without epochs")
        if (layer["sensing.recalibrations"] > 0) != (name in recalibrating):
            failures.append(f"{name}: sensing.recalibrations = {layer['sensing.recalibrations']}")
        if layer["engine.ticks"] == 0 or layer["report.record_event_calls"] == 0:
            failures.append(f"{name}: tracer saw no engine ticks or events")


def check_names(tmp: str, failures: list[str]) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    for m in bench["end_to_end"]:
        if spec.END_TO_END.get(m["name"]) != (m["unit"], m["better"], m["bound"]):
            failures.append(f"BENCHMARK.json {m['name']} differs from spec.END_TO_END")
    for name in ("standalone", "sweep-vehicles"):
        for trace in (0, 1):
            result = run.measure(name, 5, 0, trace, tmp, horizon=HORIZON, probes=1)
            line = run.final_line(result, trace)
            printed = {n: m["unit"] for n, m in line["metrics"].items()}
            if printed != declared[trace]:
                failures.append(f"{name} --trace {trace} prints {printed}, "
                                f"BENCHMARK.json declares {declared[trace]}")
            if not line["correct"]:
                failures.append(f"{name} --trace {trace}: {result['problems']}")


def main() -> int:
    failures: list[str] = []
    check_restore(failures)
    with run.scratch_dir() as tmp:
        check_traced_outputs(tmp, failures)
        check_names(tmp, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
