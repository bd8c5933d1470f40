"""Vehicle mobility: Gipps car-following with a minimum-speed floor.

Vehicles drive a straight two-direction road. Every reaction time tau a
driver picks a new speed as the minimum of the acceleration-limited
free-flow term and the collision-avoiding safe term, randomized downward
by the human-error factor and floored at the vehicle's minimum speed:

    v = max(v_min, Uniform[v_des - eps*a, v_des]),  v_des = min(free, safe)

The chosen speed is held constant across the intermediate simulation
ticks; positions wrap at the road ends so density stays constant. The
floor makes this a highway model: a vehicle never drops below v_min, and
when following would demand less than that the vehicle pulls out to pass,
so overtaking shows up as positions crossing rather than as a queue.

Braking rates are positive magnitudes here, so the safe-speed closed form
reads  -b*tau + sqrt(b^2 tau^2 + b*(2*gap - v*tau + v_leader^2/b_hat)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .config import ScenarioConfig

if TYPE_CHECKING:  # radio state is owned by the scheduling module
    from .scheduling import SuRadioState

DEFAULT_MAX_ACCEL = 1.7        # m/s^2
DEFAULT_DECEL = 3.0            # m/s^2, comfortable braking, used for b and b_hat
DEFAULT_EFFECTIVE_LENGTH = 5.0  # m

FORWARD = 1
BACKWARD = -1


@dataclass
class GippsParams:
    max_accel: float            # a, m/s^2
    desired_speed: float        # V, m/s, the vehicle's drawn average speed
    reaction_time: float        # tau, s
    decel: float                # b, m/s^2 (positive magnitude)
    leader_decel_estimate: float  # b_hat, m/s^2 (positive magnitude)
    effective_length: float     # s, m
    human_error: float          # theta, dimensionless
    v_min: float                # m/s
    epsilon: float              # randomization width factor; eps = theta


@dataclass
class VehicleState:
    vehicle_id: int
    position: float             # m along road
    direction: int              # FORWARD or BACKWARD
    speed: float                # m/s
    gipps: GippsParams
    radio: Optional["SuRadioState"] = field(default=None, repr=False)


def gipps_free_speed(v: VehicleState, dt: float) -> float:
    """Acceleration-limited free-flow speed over one reaction interval,
    never exceeding the desired speed."""
    g = v.gipps
    ratio = v.speed / g.desired_speed
    free = v.speed + 2.5 * g.max_accel * dt * (1.0 - ratio) * math.sqrt(0.025 + ratio)
    return min(free, g.desired_speed)


def gipps_safe_speed(v: VehicleState, leader: Optional[VehicleState]) -> float:
    """Speed at which the follower can still stop behind its leader.

    Returns +inf with no leader so the free term dominates. A negative
    discriminant means no safe speed exists (unavoidable-collision
    regime); the follower then takes its floor speed and is treated as
    overtaking.
    """
    if leader is None:
        return math.inf
    g = v.gipps
    b, bhat, tau = g.decel, g.leader_decel_estimate, g.reaction_time
    gap = leader.position - g.effective_length - v.position
    disc = b * b * tau * tau + b * (2.0 * gap - v.speed * tau + leader.speed ** 2 / bhat)
    if disc < 0.0:
        return g.v_min
    return -b * tau + math.sqrt(disc)


def decide_speed(v: VehicleState, leader: Optional[VehicleState],
                 rng: np.random.Generator) -> float:
    """One Gipps decision: candidate speed, randomized draw, floor."""
    g = v.gipps
    v_des = min(gipps_free_speed(v, g.reaction_time), gipps_safe_speed(v, leader))
    draw = rng.uniform(v_des - g.epsilon * g.max_accel, v_des)
    return max(g.v_min, draw)


def update_vehicle(v: VehicleState, leader: Optional[VehicleState], dt: float,
                   rng: np.random.Generator,
                   road_length: float | None = None) -> VehicleState:
    """Refresh the Gipps decision and advance position by one step of dt."""
    v.speed = decide_speed(v, leader, rng)
    v.position += v.speed * dt * v.direction
    if road_length is not None:
        v.position %= road_length
    return v


class Fleet:
    """All vehicles of a run: per-vehicle Gipps parameters plus authoritative
    position/speed arrays for the per-tick advance.

    Decisions happen every reaction time from the previous tick's snapshot
    (synchronous update); between decisions speeds stay fixed, so the
    per-tick work is a single vectorized position update.
    """

    def __init__(self, config: ScenarioConfig, streams):
        self.config = config
        n = config.n_vehicles
        self.vehicles: list[VehicleState] = []
        n_forward = (n + 1) // 2
        n_backward = n - n_forward
        for i in range(n):
            rng = streams.init_stream(i)
            drawn_avg = config.avg_speed * rng.uniform(
                1.0 - config.fleet_speed_spread, 1.0 + config.fleet_speed_spread
            )
            theta = rng.uniform(config.human_error_min, config.human_error_max)
            gipps = GippsParams(
                max_accel=DEFAULT_MAX_ACCEL,
                desired_speed=drawn_avg,
                reaction_time=config.reaction_time,
                decel=DEFAULT_DECEL,
                leader_decel_estimate=DEFAULT_DECEL,
                effective_length=DEFAULT_EFFECTIVE_LENGTH,
                human_error=theta,
                v_min=(1.0 - config.per_vehicle_speed_deviation) * drawn_avg,
                epsilon=theta,
            )
            if i < n_forward:
                direction = FORWARD
                position = config.road_length * i / max(n_forward, 1)
            else:
                direction = BACKWARD
                k = i - n_forward
                position = config.road_length * (k + 0.5) / max(n_backward, 1)
            self.vehicles.append(VehicleState(
                vehicle_id=i, position=position, direction=direction,
                speed=drawn_avg, gipps=gipps,
            ))
        self.positions = np.array([v.position for v in self.vehicles], dtype=float)
        self.speeds = np.array([v.speed for v in self.vehicles], dtype=float)
        self.directions = np.array([v.direction for v in self.vehicles], dtype=int)
        self._streams = streams

    def __len__(self) -> int:
        return len(self.vehicles)

    def decide(self) -> None:
        """Run one synchronous Gipps decision for every vehicle."""
        road = self.config.road_length
        snapshot_pos = self.positions.copy()
        snapshot_speed = self.speeds.copy()
        for direction in (FORWARD, BACKWARD):
            ids = [i for i in range(len(self.vehicles)) if self.directions[i] == direction]
            if not ids:
                continue
            # ring order along the travel direction; leader of each vehicle is
            # the next one ahead, a full lap ahead for the front vehicle
            ids.sort(key=lambda i: snapshot_pos[i] * direction)
            m = len(ids)
            for k, i in enumerate(ids):
                # probe/leader pair rebuilt in an unwrapped forward frame so
                # the braking formula sees a plain positive gap
                probe = VehicleState(
                    vehicle_id=i, position=snapshot_pos[i], direction=direction,
                    speed=snapshot_speed[i], gipps=self.vehicles[i].gipps,
                )
                leader = None
                if m > 1:
                    j = ids[(k + 1) % m]
                    ahead = (snapshot_pos[j] - snapshot_pos[i]) * direction % road
                    if ahead == 0.0:
                        ahead = road
                    leader = VehicleState(
                        vehicle_id=j, position=snapshot_pos[i] + ahead,
                        direction=direction, speed=snapshot_speed[j],
                        gipps=self.vehicles[j].gipps,
                    )
                    # a follower forced down to its floor speed pulls out to
                    # pass: the overtaken vehicle stops constraining it and
                    # the overtake completes by position crossing
                    if gipps_safe_speed(probe, leader) <= probe.gipps.v_min:
                        leader = None
                self.speeds[i] = decide_speed(probe, leader, self._streams.mobility_stream(i))

    def advance(self, dt: float) -> None:
        """Move every vehicle by one tick at its held speed, wrapping."""
        if len(self.vehicles) == 0:
            return
        self.positions = (self.positions + self.speeds * self.directions * dt) % self.config.road_length
