"""Parameter sweeps across schemes and seeds, with CSV output.

A sweep varies one axis (vehicle count, channel count, or average speed)
over a value grid, runs every (value, scheme, seed) combination, and
collects the per-run counters into a table ordered by (value, scheme,
seed) regardless of execution order. Runs share nothing, so sweep points
may execute in parallel; the CRVANET_PARALLEL environment variable sets
the worker count (default and ceiling: one worker per usable core, 1
forces in-process serial execution).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .config import ScenarioConfig, ScenarioError, Scheme
from .engine import run_simulation
from .report import COUNTERS

PARALLEL_ENV = "CRVANET_PARALLEL"

AXES = ("vehicles", "channels", "speed")

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
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
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
            if self.axis != "speed" and not float(value).is_integer():
                raise ValueError(f"{self.axis} value {value} is not a whole count")
            try:
                apply_axis(self.base_config, self.axis, value, self.schemes[0], self.seeds[0])
            except ScenarioError as exc:
                raise ValueError(f"{self.axis} value {format_axis_value(value)}: {exc}") from exc
        return self


@dataclass(frozen=True)
class SweepRow:
    """One run of a sweep: one attribute per CSV column, the counters in
    report.COUNTERS order."""

    axis_value: float
    scheme: Scheme
    seed: int
    allocations: int = 0
    false_alarms: int = 0
    misdetections: int = 0
    correct_detections: int = 0
    sensing_events: int = 0
    harmful_occupations: int = 0
    preemptions: int = 0
    backoffs: int = 0


@dataclass(frozen=True)
class SweepTable:
    spec_axis: str
    rows: tuple[SweepRow, ...]


def apply_axis(config: ScenarioConfig, axis: str, value: float,
               scheme: Scheme, seed: int) -> ScenarioConfig:
    """Clone the base config with one axis value, scheme and seed applied.

    Speed values are given in km/h, matching how the sweep grids are
    quoted; they are converted on application.
    """
    if axis == "vehicles":
        fields = {"n_vehicles": int(value)}
    elif axis == "channels":
        fields = {"n_channels": int(value)}
    else:
        fields = {"avg_speed": value / 3.6}
    return replace(config, scheme=scheme, seed=seed, **fields).validate()


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
    CRVANET_PARALLEL if set, else one per usable core; at most one per
    usable core and one per run, and at least one."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get(PARALLEL_ENV, "").strip()
        try:
            workers = int(env) if env else cores
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{PARALLEL_ENV} must be an integer >= 1, got {env!r}")
    return max(1, min(workers, cores, n_jobs))


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepTable:
    """Run every (value, scheme, seed) combination, rows in that order.

    Execution may be parallel; the result is identical either way. A run
    failure aborts the sweep naming the offending triple.
    """
    spec.validate()
    jobs = []
    for value in spec.values:
        for scheme in spec.schemes:
            for seed in spec.seeds:
                config = apply_axis(spec.base_config, spec.axis, value, scheme, seed)
                jobs.append((config, value, scheme, seed))

    workers = resolve_workers(workers, len(jobs))
    if workers == 1:
        rows = tuple(map(_run_point, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_run_point, jobs))
    return SweepTable(spec_axis=spec.axis, rows=rows)


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
