"""Measurement worker: runs one workload's ops in a fresh interpreter.

run.py starts one worker per measured run, so the peak resident memory it
reports is this workload's alone (``ru_maxrss`` never falls within a
process). Prints one JSON object as its last line.

Op ``i`` runs the workload's scenario ``i % SCENARIOS_PER_RUN``, and every
timed phase ends on a whole cycle of scenarios, so each run weighs its
scenarios equally.

Untraced: one warm-up op, then ops back to back (closed loop, one client)
until ``--seconds`` have passed and at least one cycle ran. The
calibration kernel runs between ops, and each op's wall time is scaled by
the kernel times just before and after it (calibrate.py). ``wall_s`` is
the mean over the scenarios of each scenario's median scaled op time.

Traced: cycles of one untraced op and one op under the tracer, so the
tracing overhead is measured in the same process. The sweep's traced op
runs serially, because spans recorded in forked pool workers never reach
this process; each sweep cycle therefore also runs an untraced serial op,
which the overhead and the parallel efficiency are computed against.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import spec
from tracer import Tracer

class Tally:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, found: list[str]) -> None:
        self.failed += 1
        self.problems.extend(found[:3])

    def run(self, index: int, serial: bool = False, tracer=None):
        """Op ``index``; returns (wall seconds or None if it raised, output)."""
        self.attempted += 1
        wall, out = None, None
        gc.collect()  # every op starts from the same collector state
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                t0 = perf_counter()
                out = self.workload.op(index, serial)
                wall = perf_counter() - t0
            found = self.workload.check(index, out)
        except Exception as exc:  # an op that raises is a failed op
            found = [f"{type(exc).__name__}: {exc}"]
        finally:
            if out is not None:
                self.workload.cleanup(out)
        if found:
            self.fail(found)
        return wall, out


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for
    (the sweep's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float) -> dict:
    tally = Tally(workload)
    cycle = len(workload.seeds)
    tally.run(0)  # warm-up: lazy imports and first-call set-up, untimed
    walls, kernel = [], [calibrate.timed()]
    scaled: dict[int, list[float]] = {}   # scenario -> scaled op times
    deadline = perf_counter() + seconds
    index = 0
    while index < cycle or index % cycle or perf_counter() < deadline:
        wall, _ = tally.run(index)
        kernel.append(calibrate.timed())
        if wall is not None:
            walls.append(wall)
            scaled.setdefault(workload.scenario(index), []).append(
                calibrate.scaled(wall, kernel[-2], kernel[-1]))
        index += 1
    if len(scaled) < cycle:
        raise SystemExit("no op completed on some scenario: " + "; ".join(tally.problems[:5]))
    # the median per scenario is robust to the host; the mean over the
    # scenarios weighs each of them equally
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "walls": walls,
        "kernel": kernel,
        "metrics": {
            "wall_s": statistics.fmean(statistics.median(ops) for ops in scaled.values()),
            "sim_s_per_host_s": statistics.fmean(
                statistics.median(workload.sim_seconds / w for w in ops)
                for ops in scaled.values()),
            "peak_rss_mb": peak_rss_mb(),
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        },
    }


def measure_traced(workload, seconds: float) -> dict:
    is_sweep = workload.name == "sweep-vehicles"
    tally = Tally(workload)
    cycle = len(workload.seeds)
    plain, serial, traced = [], [], []
    sweep_parallel, sweep_serial = [], []
    layers: dict[int, list[dict]] = {}   # scenario -> layer metrics of its traced ops
    missing: list[str] = []
    deadline = perf_counter() + seconds
    index = 0
    while index < cycle or index % cycle or perf_counter() < deadline:
        wall, out = tally.run(index)
        if wall is not None:
            plain.append(wall)
            if is_sweep:
                sweep_parallel.append(out["sweep_s"])
        if is_sweep:
            wall, out = tally.run(index, serial=True)
            if wall is not None:
                serial.append(wall)
                sweep_serial.append(out["sweep_s"])
        tracer = Tracer()
        wall, _ = tally.run(index, serial=True, tracer=tracer)
        missing = tracer.missing
        if wall is not None:
            traced.append(wall)
            layers.setdefault(workload.scenario(index), []).append(tracer.layer_metrics())
        index += 1
    if len(layers) < cycle or not (serial if is_sweep else plain):
        raise SystemExit("no traced op completed on some scenario: "
                         + "; ".join(tally.problems[:5]))

    every = [layer for ops in layers.values() for layer in ops]
    metrics = {name: statistics.median(layer[name] for layer in every) for name in every[0]}
    for name, unit in spec.PER_LAYER.items():
        if unit in ("count", "bytes") and name in every[0]:
            # a count repeats exactly on a scenario; report its mean per op
            # over the run's scenarios
            if any(len({layer[name] for layer in ops}) > 1 for ops in layers.values()):
                tally.fail([f"{name} differs between traced ops on one scenario"])
            metrics[name] = statistics.fmean(ops[0][name] for ops in layers.values())
    untraced = serial if is_sweep else plain
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["sweep.parallel_efficiency"] = (
        statistics.median(sweep_serial) / (workload.workers * statistics.median(sweep_parallel))
        if is_sweep and sweep_parallel else 0.0
    )
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "walls": traced,
        "missing": missing,
        "metrics": {name: metrics[name] for name in spec.PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for op outputs")
    parser.add_argument("--horizon", type=float, help="simulated seconds per run "
                        "instead of the workload's own (self-test only)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy
    import scipy

    import workloads

    workload = workloads.make(args.workload, args.seed, args.tmp, args.horizon)
    workload.prepare()
    result = (measure_traced if args.trace else measure)(workload, args.seconds)
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
