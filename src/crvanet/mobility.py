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

import numpy as np

from .config import ScenarioConfig

DEFAULT_MAX_ACCEL = 1.7        # m/s^2
DEFAULT_DECEL = 3.0            # m/s^2, comfortable braking, used for b and b_hat
DEFAULT_EFFECTIVE_LENGTH = 5.0  # m

FORWARD = 1
BACKWARD = -1


def gipps_free_speed(speed, desired_speed, max_accel, dt):
    """Acceleration-limited free-flow speed over one reaction interval,
    never exceeding the desired speed; numbers or arrays."""
    ratio = speed / desired_speed
    free = speed + 2.5 * max_accel * dt * (1.0 - ratio) * np.sqrt(0.025 + ratio)
    return np.minimum(free, desired_speed)[()]


def gipps_safe_speed(speed, gap, leader_speed, v_min, decel, leader_decel, tau):
    """Speed at which a follower can still stop `gap` metres behind its
    leader; numbers or arrays.

    A negative discriminant means no safe speed exists (unavoidable-
    collision regime); the follower then takes its floor speed and is
    treated as overtaking.
    """
    # x ** 2 of a Python float goes through libm pow; NumPy's array x ** 2
    # is x * x, which differs from it in the last bit for some speeds
    leader_sq = np.reshape([s ** 2 for s in np.ravel(leader_speed).tolist()],
                           np.shape(leader_speed))
    disc = decel * decel * tau * tau + decel * (2.0 * gap - speed * tau + leader_sq / leader_decel)
    return np.where(disc < 0.0, v_min, -decel * tau + np.sqrt(np.maximum(disc, 0.0)))[()]


class Fleet:
    """All vehicles of a run as arrays: position, speed and direction, plus
    each vehicle's drawn desired speed, floor speed and human-error factor
    (which is also its randomization width).

    Decisions happen every reaction time from the previous decision's
    snapshot (synchronous update); between decisions speeds stay fixed, so
    the positions of many ticks come from one vectorized pass (``advance``).
    """

    def __init__(self, config: ScenarioConfig, streams):
        self.config = config
        n = config.n_vehicles
        self._mobility = streams.mobility
        spread = config.fleet_speed_spread
        draws = np.array([
            (rng.uniform(1.0 - spread, 1.0 + spread),
             rng.uniform(config.human_error_min, config.human_error_max))
            for rng in streams.init
        ]).reshape(n, 2)
        self.desired_speed = config.avg_speed * draws[:, 0]
        self.human_error = draws[:, 1]
        self.v_min = (1.0 - config.per_vehicle_speed_deviation) * self.desired_speed
        n_forward = (n + 1) // 2
        n_backward = n - n_forward
        road = config.road_length
        self.positions = np.concatenate([
            road * np.arange(n_forward) / max(n_forward, 1),
            road * (np.arange(n_backward) + 0.5) / max(n_backward, 1),
        ])
        self.speeds = self.desired_speed.copy()
        self.directions = np.repeat([FORWARD, BACKWARD], [n_forward, n_backward])

    def __len__(self) -> int:
        return len(self.positions)

    def decide(self) -> None:
        """Run one synchronous Gipps decision for every vehicle."""
        pos, speed, directions = self.positions, self.speeds, self.directions
        road = self.config.road_length
        tau = self.config.reaction_time
        ids = np.arange(len(self))
        # ring order along the travel direction; the leader of each vehicle
        # is the next one ahead, a full lap ahead for the front vehicle
        leader = ids.copy()
        for direction in (FORWARD, BACKWARD):
            ring = ids[directions == direction]
            ring = ring[np.argsort(pos[ring] * direction, kind="stable")]
            leader[ring] = np.roll(ring, -1)
        # the leader sits at pos + ahead in an unwrapped forward frame, so
        # the braking formula sees a plain positive gap; the gap is formed
        # from that position, whose rounding is part of the motion
        ahead = (pos[leader] - pos) * directions % road
        ahead[ahead == 0.0] = road
        gap = pos + ahead - DEFAULT_EFFECTIVE_LENGTH - pos
        safe = gipps_safe_speed(speed, gap, speed[leader], self.v_min,
                                DEFAULT_DECEL, DEFAULT_DECEL, tau)
        # a vehicle alone in its direction has no leader; a follower forced
        # down to its floor speed pulls out to pass: the overtaken vehicle
        # stops constraining it and the overtake completes by position
        # crossing
        safe[(leader == ids) | (safe <= self.v_min)] = np.inf
        v_des = np.minimum(gipps_free_speed(speed, self.desired_speed, DEFAULT_MAX_ACCEL, tau),
                           safe)
        # one Uniform[low, v_des] draw per vehicle from its own stream,
        # low + (v_des - low) * u exactly as Generator.uniform forms it
        u = np.array([rng.random() for rng in self._mobility])
        low = v_des - self.human_error * DEFAULT_MAX_ACCEL
        self.speeds = np.maximum(self.v_min, low + (v_des - low) * u)

    def advance(self, dt: float, ticks: int = 1) -> np.ndarray:
        """Move every vehicle `ticks` ticks at its held speed, wrapping at the
        road ends; returns the positions after each tick, one row per tick,
        each (previous row + step) % road bit for bit: cumsum adds left to
        right and x % road is x on [0, road), so only an entry that leaves
        the road is reduced, and its column's sum restarts from there."""
        road, step = self.config.road_length, self.speeds * self.directions * dt
        rows = np.vstack([self.positions, np.tile(step, (ticks, 1))]).cumsum(axis=0)[1:]
        off = np.signbit(rows) | (rows >= road)  # -0.0 % road is 0.0
        while (cols := np.flatnonzero(off.any(axis=0))).size:
            t, first = np.arange(ticks)[:, None], off[:, cols].argmax(axis=0)
            sub = np.where(t < first, 0.0, step[cols])  # 0.0 + x is x
            sub[first, range(cols.size)] = rows[first, cols] % road
            rows[:, cols] = sub = np.where(t < first, rows[:, cols], sub.cumsum(axis=0))
            off[:, cols] = (np.signbit(sub) | (sub >= road)) & (t > first)  # -tiny % road is road
        self.positions = rows[-1]
        return rows
