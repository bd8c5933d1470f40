import math
from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig, ScenarioValidationError
from crvanet.coordination import VOTE_OCCUPIED, VOTE_VACANT, CooperativeStrategy
from crvanet.mobility import (
    BACKWARD,
    FORWARD,
    Fleet,
    GippsParams,
    VehicleState,
    gipps_free_speed,
    gipps_safe_speed,
    update_vehicle,
)
from crvanet.sensing import ChannelSensor
from crvanet.streams import StreamBundle


def make_vehicle(speed=25.0, position=0.0, desired=27.78, v_min=0.0,
                 epsilon=0.3, a=1.7, b=3.0, tau=1.0, s=5.0, vehicle_id=0):
    gipps = GippsParams(
        max_accel=a, desired_speed=desired, reaction_time=tau, decel=b,
        leader_decel_estimate=b, effective_length=s, human_error=epsilon,
        v_min=v_min, epsilon=epsilon,
    )
    return VehicleState(vehicle_id=vehicle_id, position=position,
                        direction=FORWARD, speed=speed, gipps=gipps)


class TestFreeSpeed:
    def test_no_acceleration_at_desired_speed(self):
        v = make_vehicle(speed=27.78, desired=27.78)
        assert gipps_free_speed(v, 1.0) == pytest.approx(27.78)

    def test_standing_start(self):
        # 2.5 * 1.7 * 1 * 1 * sqrt(0.025) = 0.672, hand-evaluated
        v = make_vehicle(speed=0.0, desired=27.78, a=1.7, tau=1.0)
        assert gipps_free_speed(v, 1.0) == pytest.approx(0.6720, abs=1e-3)

    def test_never_exceeds_desired_speed(self):
        for frac in np.linspace(0.0, 1.0, 21):
            v = make_vehicle(speed=frac * 27.78, desired=27.78)
            assert gipps_free_speed(v, 1.0) <= 27.78 + 1e-12


class TestSafeSpeed:
    def test_no_leader_is_unconstrained(self):
        assert gipps_safe_speed(make_vehicle(), None) == math.inf

    def test_hand_computed_braking_value(self):
        # gap=50, v=25, leader 25 m/s, b=bhat=3, tau=1:
        # -3 + sqrt(9 + 3*(100 - 25 + 625/3)) = -3 + sqrt(859)
        follower = make_vehicle(speed=25.0, position=0.0)
        leader = make_vehicle(speed=25.0, position=55.0, vehicle_id=1)
        expected = -3.0 + math.sqrt(859.0)
        assert gipps_safe_speed(follower, leader) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_stopped_pair_gives_zero(self):
        # gap=0 (leader at the effective length), both stopped
        follower = make_vehicle(speed=0.0, position=0.0, v_min=0.0)
        leader = make_vehicle(speed=0.0, position=5.0, vehicle_id=1)
        assert gipps_safe_speed(follower, leader) == pytest.approx(0.0, abs=1e-12)

    def test_negative_discriminant_returns_floor(self):
        # follower far too fast, leader stopped right ahead
        follower = make_vehicle(speed=60.0, position=0.0, v_min=12.0)
        leader = make_vehicle(speed=0.0, position=6.0, vehicle_id=1)
        assert gipps_safe_speed(follower, leader) == 12.0


class TestUpdateVehicle:
    def test_speed_in_draw_interval_when_floor_inactive(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = make_vehicle(speed=25.0, desired=27.78, v_min=0.0)
            update_vehicle(v, None, 0.001, rng)
            v_des = min(gipps_free_speed(make_vehicle(speed=25.0), 1.0), math.inf)
            assert v_des - v.gipps.epsilon * v.gipps.max_accel - 1e-9 <= v.speed <= v_des + 1e-9

    def test_floor_clamps_low_draws(self):
        rng = np.random.default_rng(1)
        # v_min just below v_des forces the max() branch often
        hits = 0
        for _ in range(300):
            v = make_vehicle(speed=25.0, desired=25.2, v_min=25.1)
            update_vehicle(v, None, 0.001, rng)
            assert v.speed >= 25.1 - 1e-12
            hits += v.speed == 25.1
        assert hits > 0

    def test_zero_epsilon_is_deterministic(self):
        rng = np.random.default_rng(2)
        speeds = set()
        for _ in range(10):
            v = make_vehicle(speed=20.0, epsilon=0.0)
            update_vehicle(v, None, 0.001, rng)
            speeds.add(round(v.speed, 12))
        assert len(speeds) == 1

    def test_position_advances_and_wraps(self):
        rng = np.random.default_rng(3)
        v = make_vehicle(speed=27.0, desired=27.0, position=1999.99, epsilon=0.0)
        update_vehicle(v, None, 0.001, rng, road_length=2000.0)
        assert 0.0 <= v.position < 2000.0


class TestNeighbors:
    """The comm-range neighbourhood as CooperativeStrategy.shortlist fuses
    it: the requester's own votes plus those of every vehicle within
    commRange, boundary inclusive, either travel direction."""

    @staticmethod
    def _strategy(n_vehicles):
        config = replace(ScenarioConfig(), n_vehicles=n_vehicles, comm_range=240.0).validate()
        return CooperativeStrategy(config, ChannelSensor(config))

    def _hears(self, positions, origin, other):
        """Whether origin's shortlist fuses other's votes: other alone votes
        channels 40-42 vacant, origin votes every channel occupied."""
        strategy = self._strategy(len(positions))
        strategy.votes[origin] = VOTE_OCCUPIED
        strategy.votes[other, 40:43] = VOTE_VACANT
        short = strategy.shortlist(origin, positions, np.random.default_rng(0))
        return short.tolist() == [40, 41, 42]

    def test_single_vehicle_has_no_neighbors(self):
        strategy = self._strategy(1)
        strategy.votes[0, 40:43] = VOTE_VACANT
        short = strategy.shortlist(0, np.array([100.0]), np.random.default_rng(0))
        assert short.tolist() == [40, 41, 42]

    def test_boundary_inclusive(self):
        positions = np.array([0.0, 240.0])
        assert self._hears(positions, 0, 1)
        assert self._hears(positions, 1, 0)
        assert not self._hears(np.array([0.0, 240.5]), 0, 1)

    def test_uniform_fleet_interior_count(self):
        # 80 m spacing, 240 m range: three on each side; vehicle j votes
        # channel j vacant, so the vacant group is the neighbourhood
        positions = np.arange(0.0, 2000.0, 80.0)
        strategy = self._strategy(len(positions))
        for j in range(len(positions)):
            strategy.votes[j, j] = VOTE_VACANT
        rng = np.random.default_rng(0)
        heard = set()
        for _ in range(50):
            heard.update(strategy.shortlist(10, positions, rng).tolist())
        assert heard == set(range(7, 14))
        assert len(heard - {10}) == 6

    def test_rejects_bad_range(self):
        with pytest.raises(ScenarioValidationError):
            replace(ScenarioConfig(), comm_range=0.0).validate()


class TestFleet:
    def _fleet(self, seed=1, **overrides):
        from dataclasses import replace
        config = replace(ScenarioConfig(), seed=seed, **overrides).validate()
        return Fleet(config, StreamBundle(config.seed)), config

    def test_split_across_directions(self):
        fleet, _ = self._fleet()
        forward = sum(1 for v in fleet.vehicles if v.direction == FORWARD)
        backward = sum(1 for v in fleet.vehicles if v.direction == BACKWARD)
        assert forward == 25 and backward == 25

    def test_drawn_speeds_within_fleet_spread(self):
        fleet, config = self._fleet()
        for v in fleet.vehicles:
            assert config.avg_speed * 0.8 <= v.gipps.desired_speed <= config.avg_speed * 1.2
            assert v.gipps.v_min == pytest.approx(0.9 * v.gipps.desired_speed)
            assert 0.25 <= v.gipps.human_error <= 0.4

    def test_long_run_respects_speed_band_and_mean(self):
        fleet, config = self._fleet(seed=3)
        dt = config.time_step
        sums = np.zeros(len(fleet))
        ticks = 60_000  # 60 s
        for tick in range(ticks):
            if tick % 1000 == 0:
                fleet.decide()
            fleet.advance(dt)
            sums += fleet.speeds
            if tick % 1000 == 0:
                for i, v in enumerate(fleet.vehicles):
                    assert v.gipps.v_min - 1e-9 <= fleet.speeds[i] <= v.gipps.desired_speed + 1e-9
        means = sums / ticks
        for i, v in enumerate(fleet.vehicles):
            assert abs(means[i] - v.gipps.desired_speed) <= 0.1 * v.gipps.desired_speed
        assert np.all(np.isfinite(fleet.positions))
        assert np.all((0.0 <= fleet.positions) & (fleet.positions <= config.road_length))

    def test_every_vehicle_advances(self):
        fleet, config = self._fleet(seed=4)
        fleet.decide()
        before = fleet.positions.copy()
        fleet.advance(config.time_step)
        moved = np.abs(fleet.positions - before)
        moved = np.minimum(moved, config.road_length - moved)  # unwrap
        assert np.all(moved > 0.0)

    def test_empty_fleet(self):
        fleet, config = self._fleet(n_vehicles=0)
        fleet.decide()
        fleet.advance(config.time_step)
        assert len(fleet) == 0
