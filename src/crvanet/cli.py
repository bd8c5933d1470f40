"""Command-line front end.

crvanet simulate --config scenario.txt [--seed N] [--trace out.csv]
crvanet sweep --config scenario.txt --axis vehicles --values 10,20,30
              --schemes standalone,proposed --seeds 5 --out results/

simulate prints the run's counters; sweep writes sweep.csv plus one SVG
chart per metric into the output directory. Exit code 0 on success,
nonzero with a message naming the failed stage.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import ScenarioConfig, Scheme, ScenarioError, load_scenario_file
from .engine import run_simulation
from .plots import render_plots
from .report import COUNTERS, SimulationReport
from .sweep import SweepSpec, run_sweep, write_csv


def _load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig().validate()
    return load_scenario_file(path)


def _write_trace(report: SimulationReport, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("tick,time,event,channel,actor,detail\n")
        for e in report.trace or ():
            fh.write(f"{e.tick},{e.time:.6f},{e.event},{e.channel_id},{e.actor_id},{e.detail}\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed).validate()
    except (ScenarioError, OSError) as exc:
        print(f"error: scenario loading failed: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_simulation(config, collect_trace=args.trace is not None,
                                trace_mobility=args.trace_mobility)
    except Exception as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return 1

    if args.trace is not None:
        try:
            _write_trace(report, args.trace)
        except OSError as exc:
            print(f"error: trace writing failed: {exc}", file=sys.stderr)
            return 1

    print(f"scheme                {config.scheme.value}")
    print(f"seed                  {config.seed}")
    for name, value in zip(COUNTERS, report.counters):
        print(f"{name.replace('_', ' '):<22}{value}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args.config)
        values = tuple(float(v) for v in args.values.split(","))
        schemes = tuple(Scheme(s.strip().lower()) for s in args.schemes.split(","))
        seeds = tuple(range(1, args.seeds + 1))
        spec = SweepSpec(axis=args.axis, values=values, schemes=schemes,
                         seeds=seeds, base_config=config).validate()
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: sweep specification invalid: {exc}", file=sys.stderr)
        return 2

    try:
        table = run_sweep(spec)
    except Exception as exc:
        print(f"error: sweep execution failed: {exc}", file=sys.stderr)
        return 1

    try:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, "sweep.csv")
        write_csv(table, csv_path)
        paths = render_plots(table, args.out)
    except Exception as exc:
        print(f"error: output writing failed: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {csv_path}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crvanet",
        description="Discrete-time CR-VANET spectrum sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and print its counters")
    sim.add_argument("--config", help="scenario file (key = value lines); defaults if omitted")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--trace", help="write the event trace CSV here")
    sim.add_argument("--trace-mobility", action="store_true",
                     help="include per-tick vehicle position/speed rows in the trace")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="run a parameter sweep and write CSV + charts")
    swp.add_argument("--config", help="base scenario file; defaults if omitted")
    swp.add_argument("--axis", required=True, choices=("vehicles", "channels", "speed"))
    swp.add_argument("--values", required=True, help="comma-separated axis values "
                     "(speed values in km/h)")
    swp.add_argument("--schemes", default="standalone,cooperative,proposed")
    swp.add_argument("--seeds", type=int, default=5, help="number of seeds (1..N)")
    swp.add_argument("--out", required=True, help="output directory")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = (parser := build_parser()).parse_args(argv)
    if args.command == "simulate" and args.trace_mobility and args.trace is None:
        parser.error("--trace-mobility needs --trace")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
