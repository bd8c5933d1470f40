"""Outside-in per-layer tracing of crvanet.

The tracer wraps public functions and methods of each crvanet module with a
span recorder and restores the originals afterwards; it changes nothing in
the package's source. A module that imports a function by name (engine
imports ``step_pu``, ``step_su`` and ``record_event``; scheduling imports
``record_event``; sensing imports ``hata_suburban_loss``; cli imports
``load_scenario_file``) looks it up in its own namespace, so every crvanet
module attribute bound to the original function is patched, not just the
defining one.

Spans are aggregated as they close rather than stored one by one, keyed by
(span name, parent span name): call count, total time and self time (total
minus the time covered by child spans). ``record_event`` alone closes
about 120k spans in a 2 s standalone run.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

EPOCH = "coordination.on_epoch"
ATTEMPT = "coordination.attempt"


def _arg(args, kwargs, index, name, default=None):
    """A call argument by position (counting ``self``) or keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_run(tracer, parent, args, kwargs, result, dt):
    tracer.counts["ticks"] += getattr(args[0], "n_ticks", 0)
    tracer.counts["allocations"] += result.allocations
    if result.trace is not None:
        tracer.counts["trace_events"] += len(result.trace)


def _observe_sense(tracer, parent, args, kwargs, result, dt):
    channels = _arg(args, kwargs, 3, "channel_ids")
    blocks = _arg(args, kwargs, 7, "blocks", 1)
    where = {EPOCH: "epoch", ATTEMPT: "attempt"}.get(parent, "other")
    tracer.counts[f"windows.{where}"] += len(channels) * blocks


def _observe_threshold(tracer, parent, args, kwargs, result, dt):
    if _arg(args, kwargs, 1, "blocks") > 1:
        tracer.counts["recalibrations"] += 1
        tracer.times["recalibrate"] += dt


def _observe_write_trace(tracer, parent, args, kwargs, result, dt):
    tracer.counts["trace_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


# (module, function, span name, observer)
FUNCTIONS = (
    ("streams", "substream", "streams.substream", None),
    ("propagation", "hata_suburban_loss", "propagation.hata", None),
    ("report", "record_event", "report.record_event", None),
    ("scheduling", "step_pu", "scheduling.step_pu", None),
    ("scheduling", "step_su", "scheduling.step_su", None),
    ("config", "load_scenario_file", "config.load_scenario_file", None),
    ("cli", "_write_trace", "cli.write_trace", _observe_write_trace),
    ("sweep", "run_sweep", "sweep.run_sweep", None),
    ("sweep", "_run_point", "sweep.point", None),
    ("sweep", "write_csv", "sweep.write_csv", None),
    ("plots", "render_plots", "plots.render_plots", None),
)

# (module, class, method, span name, observer); subclasses that define the
# method themselves are patched too.
METHODS = (
    ("engine", "SimulationEngine", "__init__", "engine.init", None),
    ("engine", "SimulationEngine", "run", "engine.run", _observe_run),
    ("mobility", "Fleet", "decide", "mobility.decide", None),
    ("mobility", "Fleet", "advance", "mobility.advance", None),
    ("coordination", "Strategy", "on_epoch", EPOCH, None),
    ("coordination", "Strategy", "attempt", ATTEMPT, None),
    ("sensing", "ChannelSensor", "sense_block", "sensing.sense_block", _observe_sense),
    ("sensing", "ChannelSensor", "threshold_for", "sensing.threshold_for", _observe_threshold),
)


def _with_subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


class Tracer:
    """Records spans while installed; one instance per traced operation."""

    def __init__(self):
        self.stack: list[list] = []          # open spans: [name, child time]
        self.spans: dict[tuple[str, str], list] = {}   # -> [calls, total, self]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.times: defaultdict[str, float] = defaultdict(float)
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, fn, name, observe=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if observe is not None:
                observe(self, parent, args, kwargs, result, dt)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "crvanet" or n.startswith("crvanet.")]
        for module_name, func_name, span, observe in FUNCTIONS:
            module = sys.modules.get(f"crvanet.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self.wrap(original, span, observe)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        for module_name, class_name, method, span, observe in METHODS:
            cls = getattr(sys.modules.get(f"crvanet.{module_name}"), class_name, None)
            if cls is None or not hasattr(cls, method):
                self.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            for c in _with_subclasses(cls):
                if method in vars(c):
                    self._patch(c, method, self.wrap(vars(c)[method], span, observe))

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -----------------------------------------------------

    def _sum(self, name, field, parent=None):
        return sum(rec[field] for (n, p), rec in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def calls(self, name, parent=None) -> int:
        return self._sum(name, 0, parent)

    def total(self, name, parent=None) -> float:
        return self._sum(name, 1, parent)

    def self_time(self, name) -> float:
        return self._sum(name, 2)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans of one operation give; the
        worker adds sweep.parallel_efficiency and tracing.overhead_s."""
        c, t = self.counts, self.total
        windows = c["windows.attempt"] + c["windows.epoch"] + c["windows.other"]
        sensing_s = t("sensing.sense_block")
        attempts = self.calls(ATTEMPT)
        points = self.calls("sweep.point")
        return {
            "engine.init_s": t("engine.init"),
            "engine.self_s": self.self_time("engine.run"),
            "engine.ticks": c["ticks"],
            "mobility.decide_s": t("mobility.decide"),
            "mobility.advance_s": t("mobility.advance"),
            "mobility.advance_calls": self.calls("mobility.advance"),
            "scheduling.step_pu_s": t("scheduling.step_pu"),
            "scheduling.step_pu_calls": self.calls("scheduling.step_pu"),
            "scheduling.step_su_self_s": self.self_time("scheduling.step_su"),
            "scheduling.step_su_calls": self.calls("scheduling.step_su"),
            "coordination.epoch_s": t(EPOCH),
            "coordination.epoch_self_s": self.self_time(EPOCH),
            "coordination.epochs": self.calls(EPOCH),
            "coordination.attempt_s": t(ATTEMPT),
            "coordination.attempt_self_s": self.self_time(ATTEMPT),
            "coordination.attempts": attempts,
            "coordination.allocations_per_attempt": c["allocations"] / attempts if attempts else 0.0,
            "sensing.calls.attempt": self.calls("sensing.sense_block", ATTEMPT),
            "sensing.calls.epoch": self.calls("sensing.sense_block", EPOCH),
            "sensing.windows.attempt": c["windows.attempt"],
            "sensing.windows.epoch": c["windows.epoch"],
            "sensing.attempt_s": t("sensing.sense_block", ATTEMPT),
            "sensing.epoch_s": t("sensing.sense_block", EPOCH),
            "sensing.us_per_window": sensing_s / windows * 1e6 if windows else 0.0,
            "sensing.recalibrations": c["recalibrations"],
            "sensing.recalibrate_s": self.times["recalibrate"],
            "sensing.windows_per_allocation": (windows / c["allocations"]
                                               if c["allocations"] else 0.0),
            "propagation.hata_calls": self.calls("propagation.hata"),
            "propagation.hata_s": t("propagation.hata"),
            "report.record_event_calls": self.calls("report.record_event"),
            "report.record_event_s": t("report.record_event"),
            "report.trace_events": c["trace_events"],
            "streams.generators": self.calls("streams.substream"),
            "config.load_s": t("config.load_scenario_file"),
            "cli.trace_write_s": t("cli.write_trace"),
            "cli.trace_bytes": c["trace_bytes"],
            "sweep.points": points,
            "sweep.point_s": t("sweep.point") / points if points else 0.0,
            "sweep.csv_s": t("sweep.write_csv"),
            "plots.render_s": t("plots.render_plots"),
        }
