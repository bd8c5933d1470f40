"""What the benchmark measures: workloads, their scenarios and the metrics.

This module imports nothing from crvanet, so the orchestrator can use it
before it knows whether the package is present.
"""

from __future__ import annotations

# Simulated horizon of one simulation run. The default scenario runs 10 s;
# the benchmark shortens it so that an op is short next to the host's slow
# phases, which calibrate.py corrects for, and one measured run holds a few
# dozen ops. Steady-state cost per simulated second is the same, so the
# per-layer proportions hold.
HORIZON_S = 0.5
# A sweep op runs nine points on two cores; a shorter horizon gives a run
# more sweep ops.
SWEEP_HORIZON_S = 0.25

# Each run cycles its ops through this many scenarios, derived from the
# run's seed, so that the work in a run varies less from seed to seed. A
# sweep op already runs nine points, so the sweep uses the first two only
# and has more ops per scenario.
SCENARIOS_PER_RUN = 8
SWEEP_SCENARIOS_PER_RUN = 2

SWEEP_AXIS = "vehicles"
SWEEP_VALUES = (10.0, 30.0, 50.0)
SCHEMES = ("standalone", "cooperative", "proposed")

# Run seeds whose per-operation outputs are pinned in golden.json.
GOLDEN_SEEDS = (1, 2, 3)

WORKLOADS = {
    "standalone": "full-band sensing per attempt; the coordination epoch never runs, "
                  "so it bypasses every epoch change",
    "proposed": "epoch sensing by three coordinators plus a 2-block re-check per attempt; "
                "the only path that recalibrates the detector",
    "cooperative": "many narrow sense_block calls (5-channel votes, 3-channel shortlists), "
                   "so per-call overhead dominates",
    "traced-standalone": "standalone through the CLI with --trace: the only workload where "
                         "report holds a trace and cli writes it",
    "sweep-vehicles": "run_sweep over 10/30/50 vehicles x 3 schemes, CSV and SVG plots; "
                      "small fleets expose per-tick fixed cost and the process pool",
}

# name -> (unit, better, bound). Host times are in reference seconds (see
# calibrate.py). Their bounds are the largest allowed, because the
# correction for the host's speed is not exact.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "sim_s_per_host_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "ok_ratio": ("ratio", "higher", 0.01),
}

# name -> unit; every one is reported on every workload, 0 where the layer
# does not run.
PER_LAYER = {
    "engine.init_s": "s",
    "engine.self_s": "s",
    "engine.ticks": "count",
    "mobility.decide_s": "s",
    "mobility.advance_s": "s",
    "mobility.advance_calls": "count",
    "scheduling.step_pu_s": "s",
    "scheduling.step_pu_calls": "count",
    "scheduling.step_su_self_s": "s",
    "scheduling.step_su_calls": "count",
    "coordination.epoch_s": "s",
    "coordination.epoch_self_s": "s",
    "coordination.epochs": "count",
    "coordination.attempt_s": "s",
    "coordination.attempt_self_s": "s",
    "coordination.attempts": "count",
    "coordination.allocations_per_attempt": "ratio",
    "sensing.calls.attempt": "count",
    "sensing.calls.epoch": "count",
    "sensing.windows.attempt": "count",
    "sensing.windows.epoch": "count",
    "sensing.attempt_s": "s",
    "sensing.epoch_s": "s",
    "sensing.us_per_window": "us",
    "sensing.recalibrations": "count",
    "sensing.recalibrate_s": "s",
    "sensing.windows_per_allocation": "ratio",
    "propagation.hata_calls": "count",
    "propagation.hata_s": "s",
    "report.record_event_calls": "count",
    "report.record_event_s": "s",
    "report.trace_events": "count",
    "streams.generators": "count",
    "config.load_s": "s",
    "cli.trace_write_s": "s",
    "cli.trace_bytes": "bytes",
    "sweep.points": "count",
    "sweep.point_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.csv_s": "s",
    "plots.render_s": "s",
    "tracing.overhead_s": "s",
}


def scenario_seeds(workload: str, seed: int) -> tuple[int, ...]:
    """The scenario seeds a run of ``workload`` with seed ``seed`` cycles
    through."""
    count = SWEEP_SCENARIOS_PER_RUN if workload == "sweep-vehicles" else SCENARIOS_PER_RUN
    return tuple(seed * SCENARIOS_PER_RUN + i for i in range(count))


def scenario_text(workload: str, seed: int, horizon: float | None = None) -> str:
    """The scenario file of one of a workload's scenarios: the default
    scenario with a shortened horizon, the workload's scheme and the given
    scenario seed. The sweep sets the scheme per point."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if horizon is None:
        horizon = SWEEP_HORIZON_S if workload == "sweep-vehicles" else HORIZON_S
    lines = [f"runningTime = {horizon!r} s", f"seed = {seed}"]
    if workload != "sweep-vehicles":
        scheme = "standalone" if workload == "traced-standalone" else workload
        lines.append(f"scheme = {scheme}")
    return "\n".join(lines) + "\n"
