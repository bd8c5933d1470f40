"""Acceptance suite: one test per release criterion, printed pass lines.

Criteria 4-6 share a single three-axis comparative study (15 sweep points
x 3 schemes x 5 seeds at a 10 s horizon), built once per session; expect
the full module to take a few minutes.
"""

import math
import os
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig, Scheme
from crvanet.engine import run_simulation
from crvanet.mobility import Fleet
from crvanet.propagation import HataModel, hata_suburban_loss, thermal_noise_power
from crvanet.report import (
    PU_OCCUPIED,
    PU_VACATED,
    SENSE,
    SU_BACKOFF,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
)
from crvanet.streams import StreamBundle
from crvanet.sweep import SweepSpec, SweepTable, apply_axis, resolve_workers, run_sweep, write_csv

VEHICLE_GRID = (10, 20, 30, 40, 50)
CHANNEL_GRID = (20, 40, 60, 80, 100)
SPEED_GRID = (60, 80, 100, 120, 140)  # km/h
SEEDS = (1, 2, 3, 4, 5)
SCHEMES = (Scheme.STANDALONE, Scheme.COOPERATIVE, Scheme.PROPOSED)
DEFAULT_POINT = {"vehicles": 50, "channels": 100, "speed": 100}  # the default config

# hand-evaluated golden values (pre-build)
URBAN_GOLDEN_DB = 136.8227
SUBURBAN_GOLDEN_DB = 130.3600


def _report(criterion: int, text: str) -> None:
    print(f"CRITERION {criterion}: PASS - {text}")


@pytest.fixture(scope="session")
def study_tables():
    """The shared comparative study for criteria 4-6.

    The default configuration lies on all three axes (50 vehicles, 100
    channels, 100 km/h), so its runs are made once, on the vehicles axis,
    and their rows are reused at that point of the other two axes."""
    base = ScenarioConfig().validate()
    assert base.running_time == 10.0
    workers = max(1, min(os.cpu_count() or 1, 8))
    tables = {}
    default_rows = ()
    for axis, values in (
        ("vehicles", VEHICLE_GRID),
        ("channels", CHANNEL_GRID),
        ("speed", SPEED_GRID),
    ):
        default = float(DEFAULT_POINT[axis])
        for scheme in SCHEMES:
            for seed in SEEDS:
                assert apply_axis(base, axis, default, scheme, seed) == replace(
                    base, scheme=scheme, seed=seed)
        run_values = values if not default_rows else tuple(v for v in values if v != default)
        spec = SweepSpec(axis=axis, values=tuple(float(v) for v in run_values),
                         schemes=SCHEMES, seeds=SEEDS, base_config=base)
        rows = run_sweep(spec, workers=workers).rows
        if default_rows:
            rows += tuple(replace(row, axis_value=default) for row in default_rows)
        else:
            default_rows = tuple(row for row in rows if row.axis_value == default)
        tables[axis] = SweepTable(spec_axis=axis, rows=tuple(sorted(
            rows, key=lambda r: (r.axis_value, SCHEMES.index(r.scheme), r.seed))))
    return tables


def _seed_means(table, metric):
    """-> {(axis_value, scheme): mean over seeds}"""
    sums = defaultdict(list)
    for row in table.rows:
        sums[(row.axis_value, row.scheme)].append(getattr(row, metric))
    return {key: sum(v) / len(v) for key, v in sums.items()}


def test_criterion_1_noise_power():
    value = thermal_noise_power(500.0, 7e6)
    assert value == pytest.approx(-133.16, abs=0.01)
    _report(1, f"thermal noise (500 K, 7 MHz) = {value:.4f} dBW within +/-0.01 of -133.16")


def test_criterion_2_hata_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        f = rng.uniform(150, 1500)
        hb = rng.uniform(30, 200)
        hm = rng.uniform(1, 10)
        d = rng.uniform(1, 20)
        expected = -2.0 * math.log10(f / 28.0) ** 2 - 5.4
        diff = hata_suburban_loss(f, hb, hm, d) - HataModel(f, hb, hm).urban_loss(d)
        worst = max(worst, abs(diff - expected))
        assert abs(diff - expected) <= 1e-9
    golden = hata_suburban_loss(150, 50, 1.5, 10)
    assert golden == pytest.approx(SUBURBAN_GOLDEN_DB, abs=0.1)
    assert HataModel(150, 50, 1.5).urban_loss(10) == pytest.approx(URBAN_GOLDEN_DB, abs=0.1)
    _report(2, f"suburban-urban identity holds to {worst:.1e} dB over 100 points; "
               f"golden suburban loss {golden:.4f} dB")


def test_criterion_3_detector_calibration(sense_everywhere):
    """The simulator's own detector: noise-only ChannelSensor.sense_block
    windows (no PU or SU transmits), 40 calls x 50 vehicles x 100
    channels."""
    config = ScenarioConfig().validate()
    _, _, blocks = sense_everywhere(config, 40, 31)
    decisions = np.concatenate([b.occupied for b in blocks], axis=None)
    windows = decisions.size
    assert windows == 200_000
    empirical = float(np.mean(decisions))
    assert empirical == pytest.approx(config.target_pfa, abs=0.01)
    _report(3, f"noise-only false-alarm rate {empirical:.4f} over {windows} windows "
               f"(target {config.target_pfa})")


def test_criterion_4_misdetection_elimination(study_tables):
    checked = 0
    for axis, table in study_tables.items():
        for row in table.rows:
            if row.scheme is Scheme.PROPOSED:
                assert row.harmful_occupations == 0, (
                    f"harmful occupation under proposed at {axis}={row.axis_value} "
                    f"seed={row.seed}"
                )
                checked += 1
    assert checked == 15 * len(SEEDS)
    _report(4, f"0 misdetection-driven occupations of PU-active channels in all "
               f"{checked} proposed runs (15 sweep points x 5 seeds, 10 s each)")


def test_criterion_5_false_alarm_reduction(study_tables):
    for axis, table in study_tables.items():
        means = _seed_means(table, "false_alarms")
        values = sorted({row.axis_value for row in table.rows})
        for value in values:
            prop = means[(value, Scheme.PROPOSED)]
            coop = means[(value, Scheme.COOPERATIVE)]
            stand = means[(value, Scheme.STANDALONE)]
            assert prop < coop, f"{axis}={value}: proposed {prop} !< cooperative {coop}"
            assert prop < stand, f"{axis}={value}: proposed {prop} !< standalone {stand}"
    default_means = _seed_means(study_tables["vehicles"], "false_alarms")
    prop_default = default_means[(50.0, Scheme.PROPOSED)]
    stand_default = default_means[(50.0, Scheme.STANDALONE)]
    assert prop_default <= 0.5 * stand_default
    _report(5, f"proposed < cooperative and < standalone at all 15 points; at the "
               f"default point proposed/standalone = {prop_default / stand_default:.3f} <= 0.5")


def test_criterion_6_allocation_ordering(study_tables):
    worst_ratio = math.inf
    for axis, table in study_tables.items():
        means = _seed_means(table, "allocations")
        values = sorted({row.axis_value for row in table.rows})
        for value in values:
            prop = means[(value, Scheme.PROPOSED)]
            stand = means[(value, Scheme.STANDALONE)]
            assert stand >= prop > 0, f"{axis}={value}: standalone {stand}, proposed {prop}"
            worst_ratio = min(worst_ratio, stand / prop)
    _report(6, f"standalone >= proposed > 0 at all 15 points "
               f"(min standalone/proposed ratio {worst_ratio:.3f})")


def test_criterion_7_mobility_properties():
    config = replace(ScenarioConfig(), running_time=60.0, seed=1).validate()
    fleet = Fleet(config, StreamBundle(config.seed, config.n_vehicles, 0, 0))
    dt = config.time_step
    ticks = 60_000
    decision_period = max(1, round(config.reaction_time / dt))
    sums = np.zeros(len(fleet))
    for tick in range(ticks):
        if tick % decision_period == 0:
            fleet.decide()
            for i in range(len(fleet)):
                assert fleet.v_min[i] - 1e-9 <= fleet.speeds[i] <= fleet.desired_speed[i] + 1e-9
        fleet.advance(dt)
        sums += fleet.speeds
    assert np.all(np.isfinite(fleet.positions)) and np.all(np.isfinite(fleet.speeds))
    assert np.all(fleet.speeds > 0)
    assert np.all((0.0 <= fleet.positions) & (fleet.positions <= config.road_length))
    means = sums / ticks
    worst = 0.0
    for i in range(len(fleet)):
        rel = abs(means[i] - fleet.desired_speed[i]) / fleet.desired_speed[i]
        worst = max(worst, rel)
        assert rel <= 0.10
    _report(7, f"60 s run: speeds within [vMin, V], worst time-mean deviation "
               f"{worst * 100:.2f}% of drawn average (limit 10%), kinematics finite")


def test_criterion_8_state_machine_properties():
    config = ScenarioConfig().validate()  # 10 s default, proposed
    report = run_simulation(config, trace=[])
    trace = report.trace

    # PU occupy/vacate alternation per channel
    per_channel = defaultdict(list)
    for e in trace:
        if e.event in (PU_OCCUPIED, PU_VACATED):
            per_channel[e.channel_id].append(e.event)
    assert len(per_channel) == config.n_channels
    for channel, events in per_channel.items():
        assert events[0] == PU_OCCUPIED
        for a, b in zip(events, events[1:]):
            assert a != b, f"channel {channel} broke occupy/vacate alternation"

    # at most one SU holder per channel at any instant
    holder = {}
    for e in trace:
        if e.event == SU_OCCUPIED:
            assert e.channel_id not in holder
            holder[e.channel_id] = e.actor_id
        elif e.event in (SU_VACATED, SU_PREEMPTED):
            assert holder.pop(e.channel_id, None) == e.actor_id

    # every failed attempt backs off by exactly backOffTime
    next_action_after = {}
    backoffs = 0
    for e in trace:
        if e.actor_id in next_action_after and e.event in (SENSE, SU_OCCUPIED, SU_BACKOFF):
            expected = next_action_after.pop(e.actor_id)
            assert e.time == pytest.approx(expected, abs=1e-9)
        if e.event == SU_BACKOFF:
            backoffs += 1
            next_action_after[e.actor_id] = e.time + config.back_off_time
    assert backoffs > 0

    # preemption always paired with a same-tick PU occupation
    preemptions = 0
    for i, e in enumerate(trace):
        if e.event == SU_PREEMPTED:
            preemptions += 1
            follow = trace[i + 1]
            assert follow.event == PU_OCCUPIED
            assert (follow.tick, follow.channel_id) == (e.tick, e.channel_id)
    assert preemptions > 0
    _report(8, f"alternation, single-holder, exact {config.back_off_time * 1000:.0f} ms "
               f"back-offs ({backoffs} checked) and preemption pairing "
               f"({preemptions} checked) hold over a full default trace")


def test_criterion_9_sweep_determinism(tmp_path):
    base = replace(ScenarioConfig(), running_time=2.0).validate()
    spec = SweepSpec(axis="vehicles", values=(10.0, 30.0), schemes=SCHEMES,
                     seeds=(1, 2), base_config=base)
    n_jobs = len(spec.values) * len(spec.schemes) * len(spec.seeds)
    serial = run_sweep(spec, workers=1)
    # maximum parallelism: n_jobs workers asked for, one per usable core given
    parallel = run_sweep(spec, workers=n_jobs)
    path_a = tmp_path / "serial.csv"
    path_b = tmp_path / "parallel.csv"
    write_csv(serial, str(path_a))
    write_csv(parallel, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    _report(9, f"two full sweep invocations ({n_jobs} runs each, serial vs "
               f"{resolve_workers(n_jobs, n_jobs)}-way parallel) produced byte-identical CSV")


def test_criterion_10_rayleigh_statistics(applied_fading_gains):
    """The fading gains ChannelSensor.sense_block applied, recovered from
    its statistics on PU-active channels (see conftest)."""
    gains = applied_fading_gains
    assert gains.size == 1_000_000
    mean = float(gains.mean())
    cdf = float(np.mean(gains < 0.105))
    target_cdf = 1.0 - math.exp(-0.105)
    assert mean == pytest.approx(1.0, abs=0.01)
    assert cdf == pytest.approx(target_cdf, abs=0.003)
    _report(10, f"10^6 fading gains: mean {mean:.4f} (1 +/- 0.01), "
                f"CDF(0.105) = {cdf:.4f} vs {target_cdf:.4f} (+/- 0.003)")
