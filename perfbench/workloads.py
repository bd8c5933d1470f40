"""The benchmark's workloads: one timed operation each, plus its output check.

An operation (op) is one workload iteration. A workload holds a few
scenarios derived from the run's seed (spec.scenario_seeds), and op
``index`` runs scenario ``index`` modulo their number. ``op`` is the timed
part; ``check`` and ``cleanup`` run after the clock stops. ``check``
returns the problems it found, and an op with any problem counts as
failed. Every op is compared with the first op of its run on the same
scenario (a run must repeat itself exactly) and, on a golden seed, with
the output pinned in golden.json.

Import this module only after the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

import crvanet
import crvanet.cli
import crvanet.sweep

import spec
from tracer import Tracer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

COUNTER_NAMES = ("allocations", "false_alarms", "misdetections", "correct_detections",
                 "sensing_events", "harmful_occupations", "preemptions", "backoffs")

# trace event type -> the report counter that counts its rows
TRACE_COUNTED = {"sense": "sensing_events", "su-occupied": "allocations",
                 "su-backoff": "backoffs", "su-preempted": "preemptions",
                 "su-interference": "harmful_occupations"}
# sense-row detail -> classification counter
TRACE_CLASSES = {"falseAlarm": "false_alarms", "misdetection": "misdetections",
                 "correctDetection": "correct_detections"}


def sweep_workers() -> int:
    """Workers for the sweep: two, never more than the usable cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def load_golden(workload: str) -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text())["workloads"].get(workload, {})


class Workload:
    """One workload at one run seed. ``sim_seconds`` is the simulated time
    an op advances, summed over its simulation runs."""

    def __init__(self, name: str, seed: int, tmp_dir: str, horizon: float | None = None):
        self.name = name
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.seeds = spec.scenario_seeds(name, seed)
        self.scenario_paths = []
        for scenario_seed in self.seeds:
            path = os.path.join(tmp_dir, f"scenario-{scenario_seed}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec.scenario_text(name, scenario_seed, horizon))
            self.scenario_paths.append(path)
        # golden.json pins the workload's own horizon only
        self.golden = load_golden(name).get(str(seed)) if horizon is None else None
        self.first = [None] * len(self.seeds)
        self.sim_seconds = 0.0

    def scenario(self, index: int) -> int:
        """Which of the run's scenarios op ``index`` runs."""
        return index % len(self.seeds)

    def prepare(self) -> None:
        """Untimed set-up before the first op."""

    def op(self, index: int, serial: bool = False):
        raise NotImplementedError

    def signature(self, index: int, out) -> list:
        """The op's output in the JSON form golden.json pins."""
        raise NotImplementedError

    def problems(self, index: int, out) -> list[str]:
        return []

    def check(self, index: int, out) -> list[str]:
        found = self.problems(index, out)
        if found:
            return found
        sig = self.signature(index, out)
        i = self.scenario(index)
        if self.golden is not None and sig != self.golden[i]:
            found.append(f"output differs from golden.json for seed {self.seed}, "
                         f"scenario seed {self.seeds[i]}")
        if self.first[i] is None:
            self.first[i] = sig
        elif sig != self.first[i]:
            found.append("output differs from the first op of this run "
                         f"on scenario seed {self.seeds[i]}")
        return found

    def cleanup(self, out) -> None:
        pass


class RunWorkload(Workload):
    """``run_simulation`` on one of the workload's scenarios, trace off."""

    def prepare(self):
        self.configs = [crvanet.load_scenario_file(p) for p in self.scenario_paths]
        self.sim_seconds = self.configs[0].running_time

    def op(self, index, serial=False):
        return crvanet.run_simulation(self.configs[self.scenario(index)])

    def signature(self, index, report):
        return list(report.counters)

    def problems(self, index, report):
        if not report.conservation_holds():
            return ["conservation_holds() is false"]
        return []


class CliWorkload(Workload):
    """``crvanet simulate --config <file> --seed <n> --trace <file>``,
    checked against an untraced ``run_simulation`` of the same scenario:
    the same counters, and one trace row per recorded event."""

    def prepare(self):
        self.references, self.events = [], []
        for path in self.scenario_paths:
            config = crvanet.load_scenario_file(path)
            self.sim_seconds = config.running_time
            # the tracer counts the events the reference run records
            with Tracer() as tracer:
                reference = crvanet.run_simulation(config)
            if not reference.conservation_holds():
                raise RuntimeError("reference run: conservation_holds() is false")
            self.references.append({name: getattr(reference, name) for name in COUNTER_NAMES})
            self.events.append(tracer.calls("report.record_event"))

    def op(self, index, serial=False):
        i = self.scenario(index)
        out_dir = tempfile.mkdtemp(dir=self.tmp_dir)
        trace_path = os.path.join(out_dir, "trace.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = crvanet.cli.main(["simulate", "--config", self.scenario_paths[i],
                                     "--seed", str(self.seeds[i]), "--trace", trace_path])
        return {"code": code, "stdout": stdout.getvalue(), "dir": out_dir,
                "trace": trace_path}

    def problems(self, index, out):
        if out["code"] != 0:
            return [f"crvanet simulate exited with {out['code']}"]
        reference = self.references[self.scenario(index)]
        events = self.events[self.scenario(index)]
        printed = {}
        for line in out["stdout"].splitlines():
            label, _, value = line.rpartition(" ")
            printed[label.strip().replace(" ", "_")] = value
        found = []
        for name in COUNTER_NAMES:
            if printed.get(name) != str(reference[name]):
                found.append(f"printed {name} {printed.get(name)!r}, "
                             f"untraced run has {reference[name]}")
        rows, by_event, by_class = self._trace_counts(out["trace"])
        out["rows"] = rows
        if rows != events:
            found.append(f"trace has {rows} rows, the untraced run recorded {events} events")
        for event, name in TRACE_COUNTED.items():
            if by_event.get(event, 0) != reference[name]:
                found.append(f"trace has {by_event.get(event, 0)} {event} rows, "
                             f"{name} is {reference[name]}")
        for detail, name in TRACE_CLASSES.items():
            if by_class.get(detail, 0) != reference[name]:
                found.append(f"trace has {by_class.get(detail, 0)} {detail} rows, "
                             f"{name} is {reference[name]}")
        return found

    @staticmethod
    def _trace_counts(path):
        by_event: dict[str, int] = {}
        by_class: dict[str, int] = {}
        rows = 0
        with open(path, newline="", encoding="ascii") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            event_col, detail_col = header.index("event"), header.index("detail")
            for row in reader:
                rows += 1
                event = row[event_col]
                by_event[event] = by_event.get(event, 0) + 1
                if event == "sense":
                    by_class[row[detail_col]] = by_class.get(row[detail_col], 0) + 1
        return rows, by_event, by_class

    def signature(self, index, out):
        reference = self.references[self.scenario(index)]
        return [reference[name] for name in COUNTER_NAMES] + [out["rows"]]

    def cleanup(self, out):
        shutil.rmtree(out["dir"])


class SweepWorkload(Workload):
    """What ``crvanet sweep`` does: ``run_sweep``, ``write_csv``, then
    ``render_plots``, over the vehicles axis x all schemes x the op's
    scenario seed."""

    def prepare(self):
        self.sweep_specs = []
        for path, scenario_seed in zip(self.scenario_paths, self.seeds):
            base = crvanet.load_scenario_file(path)
            self.sweep_specs.append(crvanet.SweepSpec(
                axis=spec.SWEEP_AXIS, values=spec.SWEEP_VALUES,
                schemes=tuple(crvanet.Scheme(s) for s in spec.SCHEMES),
                seeds=(scenario_seed,), base_config=base,
            ).validate())
            self.sim_seconds = base.running_time * len(spec.SWEEP_VALUES) * len(spec.SCHEMES)
        self.workers = sweep_workers()

    def op(self, index, serial=False):
        out_dir = tempfile.mkdtemp(dir=self.tmp_dir)
        csv_path = os.path.join(out_dir, "sweep.csv")
        t0 = perf_counter()
        table = crvanet.run_sweep(self.sweep_specs[self.scenario(index)],
                                  workers=1 if serial else self.workers)
        sweep_s = perf_counter() - t0
        crvanet.write_csv(table, csv_path)
        plots = crvanet.render_plots(table, out_dir)
        return {"table": table, "dir": out_dir, "csv": csv_path, "plots": plots,
                "sweep_s": sweep_s}

    def problems(self, index, out):
        rows = out["table"].rows
        expected = len(spec.SWEEP_VALUES) * len(spec.SCHEMES)
        if len(rows) != expected:
            return [f"sweep table has {len(rows)} rows, expected {expected}"]
        found = []
        with open(out["csv"], newline="", encoding="ascii") as fh:
            written = list(csv.DictReader(fh))
        if len(written) != len(rows):
            found.append(f"CSV has {len(written)} rows, table has {len(rows)}")
        for line, (csv_row, row) in enumerate(zip(written, rows), start=2):
            for column, text in csv_row.items():
                if text != self._cell(row, column):
                    found.append(f"CSV line {line} {column}={text!r}, "
                                 f"table has {self._cell(row, column)!r}")
        for path in out["plots"]:
            if os.path.getsize(path) == 0:
                found.append(f"empty plot {os.path.basename(path)}")
        return found

    @staticmethod
    def _cell(row, column):
        if column == "axis_value":
            return crvanet.sweep.format_axis_value(row.axis_value)
        value = getattr(row, column, None)
        if value is None:
            return None
        return value.value if isinstance(value, crvanet.Scheme) else str(value)

    def signature(self, index, out):
        return [[r.axis_value, r.scheme.value, r.seed, r.allocations, r.false_alarms,
                 r.misdetections, r.sensing_events, r.harmful_occupations]
                for r in out["table"].rows]

    def cleanup(self, out):
        shutil.rmtree(out["dir"])


KINDS = {"standalone": RunWorkload, "proposed": RunWorkload, "cooperative": RunWorkload,
         "traced-standalone": CliWorkload, "sweep-vehicles": SweepWorkload}


def make(name: str, seed: int, tmp_dir: str, horizon: float | None = None) -> Workload:
    return KINDS[name](name, seed, tmp_dir, horizon)
