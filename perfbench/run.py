"""crvanet benchmark: one workload, one seed, one measured run.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout; it measures the crvanet source
under the checkout's ``src/``. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The lines before it are a readable summary and
a ``provenance`` record. See perfbench/README.md for what each metric and
workload means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 2                # set-up probes per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
TAIL_SAMPLES = 10         # a percentile is reported only with this many samples beyond it


class BenchError(Exception):
    pass


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_tmp/ in the checkout, removed on exit
    together with .bench_tmp/ itself once it is empty."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, tmp: str,
               horizon: float | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", tmp]
    if horizon is not None:
        cmd += ["--horizon", repr(horizon)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def probe_setup(scenario: str) -> tuple[float, float, float]:
    """Seconds from starting a fresh interpreter to a constructed engine,
    without the probe's own kernel runs, and the calibration kernel's
    median time in that interpreter before and after."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(ROOT), scenario],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line, rest = "", ""
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        if ready:
            line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        if line.strip() == "ready":
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            if ready:
                rest = proc.stdout.readline()
    finally:
        proc.stdout.close()
        if proc.poll() is None and not rest:
            proc.kill()
        proc.wait()
    fields = rest.split()
    if line.strip() != "ready" or fields[:1] != ["kernel"] or len(fields) != 4 \
            or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    spent, before, after = map(float, fields[1:])
    return elapsed - spent, before, after


def measure(workload: str, seed: int, seconds: float, trace: int, tmp: str,
            horizon: float | None = None, probes: int = PROBES) -> dict:
    """One measured run; returns the worker's result plus set-up times."""
    result = run_worker(workload, seed, seconds, trace, tmp, horizon)
    if not trace:
        scenario = os.path.join(tmp, "probe-scenario.txt")
        with open(scenario, "w", encoding="utf-8") as fh:
            fh.write(spec.scenario_text(workload, spec.scenario_seeds(workload, seed)[0], horizon))
        result["setup"] = [probe_setup(scenario) for _ in range(probes)]
        result["metrics"]["setup_s"] = statistics.median(
            calibrate.scaled(*probe) for probe in result["setup"])
        result["metrics"] = {name: result["metrics"][name] for name in spec.END_TO_END}
    return result


def tail_percentile(values: list[float]):
    """(p, value) for the highest of p99/p90 with at least TAIL_SAMPLES
    samples beyond it, or None."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= TAIL_SAMPLES:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def provenance(result: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "crvanet").rglob("*.py")))
    return {"python": platform.python_version(), **result.get("versions", {}),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_lines": src_lines}


def final_line(result: dict, trace: int) -> dict:
    """The result object the benchmark prints last."""
    units = spec.PER_LAYER if trace else {n: u for n, (u, _, _) in spec.END_TO_END.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crvanet benchmark")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to run ops (at least a few ops always run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crvanet" / "__init__.py").is_file():
        print(f"error: no crvanet package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        with scratch_dir() as tmp:
            result = measure(args.workload, args.seed, args.seconds, args.trace, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = result["walls"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name in result.get("missing", []):
        print(f"  not traced (not found): {name}")
    tail = tail_percentile(walls)
    print(f"  {'traced ' if args.trace else ''}op wall, unscaled: median "
          f"{statistics.median(walls):.4f} s over {len(walls)} ops"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else
             f", max {max(walls):.4f} s (too few ops for a tail percentile)"))
    if "kernel" in result:
        print(f"  calibration kernel: median {statistics.median(result['kernel']):.4f} s "
              f"over {len(result['kernel'])} runs, reference {calibrate.REFERENCE_S} s")
    if "setup" in result:
        print("  setup probes, unscaled (kernel before, after): " + ", ".join(
            f"{setup:.4f} ({before:.4f}, {after:.4f})"
            for setup, before, after in result["setup"]) + " s")
    line = final_line(result, args.trace)
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"provenance": provenance(result)}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
