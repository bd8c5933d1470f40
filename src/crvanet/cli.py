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
import contextlib
import os
import sys
from dataclasses import replace

from .config import ScenarioConfig, Scheme, ScenarioError, load_scenario_file
from .engine import run_simulation
from .plots import render_plots
from .report import COUNTERS, SENSE, SenseRows, TraceEvent
from .sensing import CLASSES
from .sweep import AXES, SweepSpec, run_sweep, write_csv


def _load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig().validate()
    return load_scenario_file(path)


class _ChannelText(dict):   # channel id -> its decimal text, made on first use
    def __missing__(self, channel: int) -> str:
        text = self[channel] = "%d" % channel
        return text


class _TraceWriter:
    """The --trace sink: writes each event as the CSV row "%d,%.6f,%s,%d,%d,%s\n" % event
    as it arrives, a single event through append() and a sensing block
    through extend() in one write; len() counts rows. Events come grouped
    by tick, so append() formats the "tick,time," prefix once per pair."""

    def __init__(self, path: str):
        self.file = open(path, "w", encoding="ascii", newline="")
        self.write, self.rows, self.channels = self.file.write, 0, _ChannelText()
        self.tick = self.time = self.prefix = None
        self.write("tick,time,event,channel,actor,detail\n")

    def append(self, event: TraceEvent) -> None:
        tick, time, kind, channel, actor, detail = event
        if tick != self.tick or time != self.time:
            self.tick, self.time, self.prefix = tick, time, "%d,%.6f," % (tick, time)
        self.write("%s%s,%d,%d,%s\n" % (self.prefix, kind, channel, actor, detail))
        self.rows += 1

    def extend(self, rows: SenseRows) -> None:
        """One SenseRows block: "tick,time,sense," and the actor's class tails
        are formatted once, each row joins its channel's text and its tail."""
        head, channels = "%d,%.6f,%s," % (rows.tick, rows.time, SENSE), self.channels
        tails = [",%d,%s\n" % (rows.actor_id, detail) for detail in CLASSES]
        self.write("".join([head + channels[c] + tails[k]
                            for c, k in zip(rows.channel_ids, rows.classes)]))
        self.rows += len(rows.classes)

    def __len__(self) -> int:
        return self.rows


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed).validate()
    except (ScenarioError, OSError) as exc:
        print(f"error: scenario loading failed: {exc}", file=sys.stderr)
        return 2

    trace = None
    try:
        if args.trace is not None:
            trace = _TraceWriter(args.trace)
        with contextlib.nullcontext() if trace is None else trace.file:
            report = run_simulation(config, trace=trace, trace_mobility=args.trace_mobility)
    except Exception as exc:
        stage = "trace writing" if isinstance(exc, OSError) else "simulation"   # run does no I/O
        with contextlib.suppress(OSError):   # leave no partial trace; never a device or link
            if trace is not None and os.path.isfile(args.trace) and not os.path.islink(args.trace):
                os.remove(args.trace)
        print(f"error: {stage} failed: {exc}", file=sys.stderr)
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
        if len(values) < 2:   # every chart needs two; caught here, before any point runs
            raise ValueError(f"the charts need at least 2 axis values, got {len(values)}")
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
    swp.add_argument("--axis", required=True, choices=AXES)
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
