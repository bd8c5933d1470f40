"""A closed-form oracle for the PU occupancy layer: pu_timeline alone, plain math.

A PU interval fires at the first tick whose time reaches its due instant,
so an interval drawn Exp(mean) lasts max(1, ceil(X / dt)) ticks: geometric
on {1, 2, ...} with P(L >= l) = q^(l - 1), q = exp(-dt / mean), mean
1 / (1 - q) and variance q / (1 - q)^2. Equivalently, each tick flips an
idle channel with probability 1 - q_gap and a busy one with probability
1 - q_hold, every channel starting idle at tick 0. That two-state chain
gives the exact expected flips and busy ticks of a run. Their spreads come
from alternating-renewal moments (Cox, Renewal Theory, 1962; Ross,
Stochastic Processes): over a horizon of t ticks, with cycle mean
mu = mu_gap + mu_hold and cycle variance s2 = s2_gap + s2_hold,
Var(flips) ~ 4 t s2 / mu^3 and Var(busy ticks) ~
t (mu_gap^2 s2_hold + mu_hold^2 s2_gap) / mu^3.

Preemptions per allocation need engine runs and are not checked here.
"""

import math

import pytest

from crvanet.scheduling import pu_timeline
from crvanet.streams import StreamBundle

CHANNELS, TICKS, DT, SEEDS = 100, 10_000, 0.001, range(1, 6)


def _geometric(mean_s: float) -> tuple[float, float]:
    """Mean and variance, in ticks, of an Exp(mean_s) interval as ticks."""
    q = math.exp(-DT / mean_s)
    return 1.0 / (1.0 - q), q / (1.0 - q) ** 2


def _expected(hold_s: float, gap_s: float) -> tuple[float, float, float, float]:
    """Per channel: expected flips and busy ticks over the run, exactly, and
    their renewal-asymptotic variances."""
    (mu_h, s2_h), (mu_g, s2_g) = _geometric(hold_s), _geometric(gap_s)
    p_occupy, p_vacate = 1.0 / mu_g, 1.0 / mu_h
    busy = flips = busy_ticks = 0.0   # busy: P(channel busy at the tick)
    for _ in range(1, TICKS):   # tick 0 never flips: a draw is > 0
        rate = (1.0 - busy) * p_occupy + busy * p_vacate
        busy += (1.0 - busy) * p_occupy - busy * p_vacate
        flips += rate
        busy_ticks += busy
    mu = mu_g + mu_h
    return (flips, busy_ticks, 4.0 * TICKS * (s2_g + s2_h) / mu ** 3,
            TICKS * (mu_g ** 2 * s2_h + mu_h ** 2 * s2_g) / mu ** 3)


def _run(seed: int, hold_s: float, gap_s: float) -> tuple[int, int]:
    """Flips and busy channel-ticks of one run's timeline: a channel is busy
    from its occupying flip's tick up to its vacating flip's tick."""
    streams = StreamBundle(seed, 50, CHANNELS, 2)
    flips, busy_ticks, since = 0, 0, [None] * CHANNELS
    for tick, channels in enumerate(pu_timeline(streams.pu, TICKS, DT, hold_s, gap_s)):
        flips += len(channels)
        for c in channels:
            if since[c] is None:
                since[c] = tick
            else:
                busy_ticks += tick - since[c]
                since[c] = None
    return flips, busy_ticks + sum(TICKS - s for s in since if s is not None)


@pytest.mark.parametrize("hold_ms, gap_ms", [(25, 25), (5, 5), (100, 100), (5, 100)])
def test_flips_and_duty_cycle_match_the_renewal_oracle(hold_ms, gap_ms):
    """Over seeds 1-5, the total PU flips and busy channel-ticks each lie
    within 4 SE of the oracle's expectation."""
    flips, busy_ticks, var_flips, var_busy = _expected(hold_ms / 1000, gap_ms / 1000)
    runs = [_run(seed, hold_ms / 1000, gap_ms / 1000) for seed in SEEDS]
    n = CHANNELS * len(SEEDS)   # independent channels over all runs
    z_flips = (sum(r[0] for r in runs) - n * flips) / math.sqrt(n * var_flips)
    z_busy = (sum(r[1] for r in runs) - n * busy_ticks) / math.sqrt(n * var_busy)
    assert abs(z_flips) < 4.0, (z_flips, [r[0] for r in runs], CHANNELS * flips)
    assert abs(z_busy) < 4.0, (z_busy, busy_ticks / TICKS)


def test_oracle_matches_the_renewal_rates():
    """The chain's expectations are the renewal rates up to a start-up
    transient: flips 100 x 10,000 / mean interval per run (39,211 at the
    default 25/25 ms), and a duty cycle of mean hold / mean cycle."""
    for hold_s, gap_s, per_run in ((0.025, 0.025, 39_211), (0.005, 0.005, 181_269),
                                   (0.1, 0.1, 9_950), (0.005, 0.1, 18_865)):
        (mu_h, _), (mu_g, _) = _geometric(hold_s), _geometric(gap_s)
        flips, busy_ticks, var_flips, _ = _expected(hold_s, gap_s)
        assert round(CHANNELS * 2 * TICKS / (mu_h + mu_g)) == per_run
        assert abs(CHANNELS * flips - per_run) < 0.2 * math.sqrt(CHANNELS * var_flips)
        assert busy_ticks / TICKS == pytest.approx(mu_h / (mu_h + mu_g), abs=3e-3)
