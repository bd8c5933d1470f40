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

from dataclasses import dataclass

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

# the run counters, in the order every output lists them
COUNTERS = ("allocations", "false_alarms", "misdetections", "correct_detections",
            "sensing_events", "harmful_occupations", "preemptions", "backoffs")


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    time: float
    event: str
    channel_id: int = -1
    actor_id: int = -1
    detail: str = ""


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
    trace: list[TraceEvent] | None = None

    @property
    def counters(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in COUNTERS)

    def conservation_holds(self) -> bool:
        return (self.false_alarms + self.misdetections + self.correct_detections
                == self.sensing_events)


def record_event(report: SimulationReport, kind: str, tick: int, time: float,
                 channel_id: int = -1, actor_id: int = -1, detail: str = "") -> None:
    """Fold one event into the report counters, and into the trace when
    the report holds one; the TraceEvent is built only then.

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
        report.trace.append(TraceEvent(tick, time, kind, channel_id, actor_id, detail))
