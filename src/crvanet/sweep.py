"""Parameter sweeps across schemes and seeds, with CSV output.

A sweep varies one axis of AXES (vehicle count, channel count, or average
speed, in km/h as a scenario file reads it) over a value grid, runs every
(value, scheme, seed) combination, and collects the per-run counters into
a table ordered by (value, scheme, seed) regardless of execution order.
Runs share nothing, so sweep points may execute in parallel; the
CRVANET_PARALLEL environment variable sets the worker count (default and
ceiling: one worker per usable core). The calling process is one of the
workers: it forks workers - 1 helpers, each of which runs an interleaved
share of the points and pipes its rows back, and runs share 0 itself; one
worker, or a platform without os.fork, forks nothing.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, make_dataclass, replace
from typing import NamedTuple

from .config import KMH, ScenarioConfig, ScenarioError, Scheme
from .engine import run_simulation
from .report import COUNTERS

PARALLEL_ENV = "CRVANET_PARALLEL"


class Axis(NamedTuple):
    field: str             # the ScenarioConfig field a value sets
    factor: float | None   # from the unit values are quoted in; None for a whole count
    label: str             # the charts' axis label


AXES = {"vehicles": Axis("n_vehicles", None, "number of vehicles"),
        "channels": Axis("n_channels", None, "number of channels"),
        "speed": Axis("avg_speed", KMH, "average speed (km/h)")}

CSV_HEADER = ",".join(("axis_value", "scheme", "seed") + COUNTERS)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    seeds: tuple[int, ...]
    base_config: ScenarioConfig

    def validate(self) -> "SweepSpec":
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {tuple(AXES)}, got {self.axis!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if not self.schemes or not self.seeds:
            raise ValueError("schemes and seeds must be nonempty")
        # a repeat would run every one of its points twice and write each row twice
        for kind, entries in (("scheme", [s.value for s in self.schemes]), ("seed", self.seeds)):
            repeated = [entry for i, entry in enumerate(entries) if entry in entries[:i]]
            if repeated:
                raise ValueError(f"{kind} {repeated[0]} is repeated")
        # every point's config is checked here, so a bad value fails before any run
        for value in self.values:
            if AXES[self.axis].factor is None and not float(value).is_integer():
                raise ValueError(f"{self.axis} value {value} is not a whole count")
            try:
                apply_axis(self.base_config, self.axis, value, self.schemes[0], self.seeds[0])
            except ScenarioError as exc:
                raise ValueError(f"{self.axis} value {format_axis_value(value)}: {exc}") from exc
        return self


# One run of a sweep: one attribute per CSV column, the counters in COUNTERS
# order. Its module is named so that forked helpers can pickle rows.
SweepRow = make_dataclass("SweepRow", [("axis_value", float), ("scheme", Scheme), ("seed", int)]
                          + [(name, int, 0) for name in COUNTERS],
                          frozen=True, namespace={"__module__": __name__})


@dataclass(frozen=True)
class SweepTable:
    spec_axis: str
    rows: tuple[SweepRow, ...]


def apply_axis(config: ScenarioConfig, axis: str, value: float,
               scheme: Scheme, seed: int) -> ScenarioConfig:
    """Clone the base config with one axis value, scheme and seed applied.

    AXES names the field the value sets: a whole count as an int, else the
    value times the factor from its unit, as a scenario file converts it
    (speeds are quoted in km/h).
    """
    field, factor, _ = AXES[axis]
    value = int(value) if factor is None else value * factor
    return replace(config, scheme=scheme, seed=seed, **{field: value}).validate()


def _run_point(args: tuple) -> SweepRow:
    """One sweep run; a failure is raised as a RuntimeError naming its
    (value, scheme, seed)."""
    config, value, scheme, seed = args
    try:
        return SweepRow(value, scheme, seed, *run_simulation(config).counters)
    except Exception as exc:
        raise RuntimeError(
            f"sweep run failed at (value={format_axis_value(value)}, "
            f"scheme={scheme.value}, seed={seed}): {exc}"
        ) from exc


def resolve_workers(workers: int | None, n_jobs: int) -> int:
    """Worker processes for n_jobs sweep runs: `workers` if given, else
    CRVANET_PARALLEL if set, else one per usable core, rejected by name
    below one; at most one per usable core and one per run, at least one."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    source, given = "workers", workers
    if workers is None:
        source, given = PARALLEL_ENV, os.environ.get(PARALLEL_ENV, "").strip()
        try:
            workers = int(given) if given else cores
        except ValueError:
            workers = 0
    if workers < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {given!r}")
    return max(1, min(workers, cores, n_jobs))


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepTable:
    """Run every (value, scheme, seed) combination, rows in that order.

    Every sweep runs through _fan_out, with one worker (no helper) where
    os.fork is missing; the result is identical at any worker count. A run
    failure aborts the sweep naming the offending triple, the first one in
    sweep order.
    """
    spec.validate()
    jobs = []
    for value in spec.values:
        for scheme in spec.schemes:
            for seed in spec.seeds:
                config = apply_axis(spec.base_config, spec.axis, value, scheme, seed)
                jobs.append((config, value, scheme, seed))

    workers = resolve_workers(workers, len(jobs))
    rows = _fan_out(jobs, workers if hasattr(os, "fork") else 1)
    return SweepTable(spec_axis=spec.axis, rows=rows)


def _run_share(jobs: list, start: int, step: int) -> tuple:
    """The rows of jobs[start::step] in order, stopping at the first failure;
    with that failure as (job index, error), or None."""
    rows = []
    for index in range(start, len(jobs), step):
        try:
            rows.append(_run_point(jobs[index]))
        except RuntimeError as exc:
            return rows, (index, exc)
    return rows, None


def _fan_out(jobs: list, workers: int) -> tuple[SweepRow, ...]:
    """Run jobs[k::workers] in forked helper k for k >= 1, and share 0 here;
    one worker forks nothing.

    Each helper sends its _run_share result as one pickled message over its
    own pipe and leaves through os._exit. Every helper is reaped before this
    returns or raises; one still running when this process's own share
    raises, or is interrupted, is killed first.
    """
    helpers = []  # (pid, read end, share) of each helper not yet reaped
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the helper: leaves only through os._exit
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(_run_share(jobs, share, workers), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            helpers.append((pid, open(read_fd, "rb"), share))
        shares = {0: _run_share(jobs, 0, workers)}
        while helpers:
            pid, pipe, share = helpers[0]
            with pipe:
                message = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del helpers[0]
            if status or not message:
                raise RuntimeError(f"sweep worker {pid} exited with status {status} "
                                   "before sending its results")
            shares[share] = pickle.loads(message)
    finally:
        for pid, pipe, _ in helpers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    failures = [failure for _, failure in shares.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = [None] * len(jobs)
    for share, (share_rows, _) in shares.items():
        rows[share::workers] = share_rows
    return tuple(rows)


def format_axis_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def write_csv(table: SweepTable, path: str) -> None:
    """ASCII CSV with LF line endings, one row per table row."""
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(",".join([format_axis_value(r.axis_value), r.scheme.value, str(r.seed)]
                              + [str(getattr(r, name)) for name in COUNTERS]))
    data = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
