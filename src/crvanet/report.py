"""Run outcomes: the event trace and the counter report.

Counters track the three recorded quantities — successful allocations,
false alarms, misdetections — plus correct detections so that the three
sensing classes always sum to the number of counted sensing events.
Sense events are counted when a vehicle senses in the course of an
allocation attempt; infrastructure sensing (coordinator scans, shared
cooperative votes) informs decisions but is not a recorded outcome.

``harmful_occupations`` counts SU occupation attempts that landed on a
PU-active channel — the interference events the proposed scheme is meant
to eliminate. They are not successful allocations: the transmission
collides immediately and the vehicle backs off.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

from .sensing import CLASSES

# trace event types
PU_OCCUPIED = "pu-occupied"
PU_VACATED = "pu-vacated"
SU_OCCUPIED = "su-occupied"
SU_VACATED = "su-vacated"
SU_PREEMPTED = "su-preempted"
SU_BACKOFF = "su-backoff"
SU_INTERFERENCE = "su-interference"
SENSE = "sense"
MOVE = "move"


class TraceEvent(NamedTuple):
    tick: int
    time: float
    event: str
    channel_id: int = -1
    actor_id: int = -1
    detail: str = ""


# builds a TraceEvent from its six fields in C; TraceEvent(...) goes through
# NamedTuple's __new__, a Python function, at about twice the cost per event
_tuple_new = tuple.__new__


@dataclass
class SimulationReport:
    allocations: int = 0
    false_alarms: int = 0
    misdetections: int = 0
    correct_detections: int = 0
    sensing_events: int = 0
    harmful_occupations: int = 0
    preemptions: int = 0
    backoffs: int = 0
    # or any sink with a list's append(event) and extend(events): SU events come
    # through append(), blocks (SenseRows, PuRows, MoveRows) through extend()
    trace: list[TraceEvent] | None = None

    @property
    def counters(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in COUNTERS)

    def conservation_holds(self) -> bool:
        return (self.false_alarms + self.misdetections + self.correct_detections
                == self.sensing_events)


# the run counters, in the order every output lists them: the report's fields but its trace
COUNTERS = tuple(f.name for f in fields(SimulationReport) if f.name != "trace")


def record_event(report: SimulationReport, kind: str, tick: int, time: float,
                 channel_id: int = -1, actor_id: int = -1, detail: str = "") -> None:
    """Fold one event into the report counters, and append it to the trace
    sink when the report holds one; the TraceEvent is built only then.

    su-occupied bumps allocations; a sense event, whose detail is one of
    the sensing CLASSES, bumps exactly one of the three classification
    counters plus the sensing-event total; all other event types touch
    only their bookkeeping counter or the trace.
    """
    if kind == SENSE:
        correct, false_alarm, misdetection = CLASSES
        if detail == correct:
            report.correct_detections += 1
        elif detail == false_alarm:
            report.false_alarms += 1
        elif detail == misdetection:
            report.misdetections += 1
        else:
            raise ValueError(f"sense events need a classification, got detail {detail!r}")
        report.sensing_events += 1
    elif kind == SU_OCCUPIED:
        report.allocations += 1
    elif kind == SU_INTERFERENCE:
        report.harmful_occupations += 1
    elif kind == SU_PREEMPTED:
        report.preemptions += 1
    elif kind == SU_BACKOFF:
        report.backoffs += 1
    if report.trace is not None:
        report.trace.append(_tuple_new(TraceEvent, (tick, time, kind, channel_id, actor_id,
                                                    detail)))


class SenseRows:
    """One actor's sense events at one (tick, time), by column; `classes`
    index CLASSES. Iterates as the TraceEvents record_event would build."""

    def __init__(self, tick: int, time: float, channel_ids: list[int] | range, actor_id: int,
                 classes: list[int]):
        self.tick, self.time, self.channel_ids = tick, time, channel_ids
        self.actor_id, self.classes = actor_id, classes

    def __iter__(self):
        head = (self.tick, self.time, SENSE)
        for channel, cls in zip(self.channel_ids, self.classes):
            yield _tuple_new(TraceEvent, head + (channel, self.actor_id, CLASSES[cls]))


def record_senses(report: SimulationReport, tick: int, time: float,
                  channel_ids: list[int] | range, actor_id: int, classes: list[int]) -> None:
    """Record one sensing block as one sense record_event per channel would.
    Untraced it makes those calls through this module's global name, which
    perfbench patches to count them; traced it folds the counters in one
    step and extends the sink by one SenseRows."""
    if report.trace is None:
        for channel, cls in zip(channel_ids, classes):
            record_event(report, SENSE, tick, time, channel, actor_id, CLASSES[cls])
        return
    report.correct_detections += classes.count(0)   # in the CLASSES order
    report.false_alarms += classes.count(1)
    report.misdetections += classes.count(2)
    report.sensing_events += len(classes)
    report.trace.extend(SenseRows(tick, time, channel_ids, actor_id, classes))


class PuRows:
    """One tick's PU events in step_pu's order, flat: event, channel, actor
    per row. Iterates as the TraceEvents record_event would build."""

    def __init__(self, tick: int, time: float, events: list):
        self.tick, self.time, self.events = tick, time, events

    def __iter__(self):
        events = iter(self.events)
        for row in zip(events, events, events):
            yield _tuple_new(TraceEvent, (self.tick, self.time, *row, ""))


class MoveRows:
    """The fleet's position and speed arrays, by vehicle id, at one tick.
    Iterates as the TraceEvents one move record_event per vehicle would build."""

    def __init__(self, tick: int, time: float, positions, speeds):
        self.tick, self.time, self.positions, self.speeds = tick, time, positions, speeds

    def __iter__(self):
        for i, (x, v) in enumerate(zip(self.positions.tolist(), self.speeds.tolist())):
            yield _tuple_new(TraceEvent, (self.tick, self.time, MOVE, -1, i, f"{x:.3f},{v:.3f}"))
