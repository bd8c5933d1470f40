import math

import numpy as np
import pytest

from crvanet.config import ScenarioConfig
from crvanet.propagation import (
    HataModel,
    PropagationDomainError,
    hata_suburban_loss,
    thermal_noise_power,
)
from crvanet.sensing import ChannelSensor
from crvanet.streams import FADING, StreamBundle

# hand-evaluated before implementation; defaults geometry f=150, hb=50,
# hm=1.5, d=10
URBAN_GOLDEN = 136.8227
SUBURBAN_CORRECTION_150 = -6.4627


def urban_loss(f, hb, hm, d):
    """Median urban Hata loss through HataModel."""
    return HataModel(f, hb, hm).urban_loss(d)


def test_urban_golden_value():
    assert urban_loss(150, 50, 1.5, 10) == pytest.approx(URBAN_GOLDEN, abs=0.05)


def test_suburban_golden_value():
    expected = URBAN_GOLDEN + SUBURBAN_CORRECTION_150
    assert hata_suburban_loss(150, 50, 1.5, 10) == pytest.approx(expected, abs=0.1)


def test_distance_slope_term():
    # d=1 -> d=10 adds exactly (44.9 - 6.55*log10 hb) dB
    slope = urban_loss(150, 50, 1.5, 10) - urban_loss(150, 50, 1.5, 1)
    assert slope == pytest.approx(44.9 - 6.55 * math.log10(50), abs=1e-9)


def test_suburban_correction_identity_on_grid():
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = rng.uniform(150, 1500)
        hb = rng.uniform(30, 200)
        hm = rng.uniform(1, 10)
        d = rng.uniform(1, 20)
        expected = -2.0 * math.log10(f / 28.0) ** 2 - 5.4
        diff = hata_suburban_loss(f, hb, hm, d) - urban_loss(f, hb, hm, d)
        assert diff == pytest.approx(expected, abs=1e-9)


def test_suburban_below_urban_everywhere():
    for f in (150, 400, 900, 1500):
        assert hata_suburban_loss(f, 50, 1.5, 10) < urban_loss(f, 50, 1.5, 10)


def test_correction_at_28mhz_would_be_minus_5_4():
    # f=28 is outside Hata validity, but the correction formula itself
    # degenerates to exactly -5.4 there
    assert -2.0 * math.log10(28 / 28.0) ** 2 - 5.4 == pytest.approx(-5.4)


@pytest.mark.parametrize("kwargs", [
    dict(f=100, hb=50, hm=1.5, d=10),
    dict(f=2000, hb=50, hm=1.5, d=10),
    dict(f=150, hb=20, hm=1.5, d=10),
    dict(f=150, hb=50, hm=0.5, d=10),
    dict(f=150, hb=50, hm=1.5, d=25),
    dict(f=150, hb=50, hm=1.5, d=0.5),
    dict(f=150, hb=50, hm=1.5, d=math.nextafter(1.0, 0.0)),
    dict(f=150, hb=50, hm=1.5, d=math.nextafter(20.0, 21.0)),
])
def test_out_of_domain_inputs_are_errors(kwargs):
    with pytest.raises(PropagationDomainError):
        urban_loss(**kwargs)
    with pytest.raises(PropagationDomainError):
        hata_suburban_loss(**kwargs)


def test_loss_monotone_in_distance_and_height():
    ds = np.linspace(1, 20, 25)
    losses = [urban_loss(150, 50, 1.5, d) for d in ds]
    assert all(b > a for a, b in zip(losses, losses[1:]))
    hbs = np.linspace(30, 200, 25)
    losses = [urban_loss(150, hb, 1.5, 10) for hb in hbs]
    assert all(b < a for a, b in zip(losses, losses[1:]))


class TestThermalNoise:
    def test_paper_stated_value(self):
        assert thermal_noise_power(500, 7e6) == pytest.approx(-133.16, abs=0.01)

    def test_reference_kt(self):
        assert thermal_noise_power(290, 1.0) == pytest.approx(-203.98, abs=0.01)

    def test_doubling_bandwidth_adds_3db(self):
        delta = thermal_noise_power(500, 14e6) - thermal_noise_power(500, 7e6)
        assert delta == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            thermal_noise_power(0, 1e6)


class TestRayleighGain:
    """The 10^6 fading gains ChannelSensor.sense_block applied (conftest)."""

    def test_mean_is_unity(self, applied_fading_gains):
        assert applied_fading_gains.size == 1_000_000
        assert applied_fading_gains.mean() == pytest.approx(1.0, abs=0.01)

    def test_cdf_matches_exponential(self, applied_fading_gains):
        empirical = np.mean(applied_fading_gains < 0.105)
        assert empirical == pytest.approx(1 - math.exp(-0.105), abs=0.003)

    def test_all_draws_positive(self, applied_fading_gains):
        assert np.all(applied_fading_gains > 0)


def test_fading_stream_independent_of_mobility_draws():
    # draining the mobility stream must not shift the fading sequence
    seed = 123
    reference = np.random.default_rng(np.random.SeedSequence((seed, FADING, 0, 5)))
    streams = StreamBundle(seed, n_vehicles=6, n_channels=0, n_towers=2)
    streams.mobility[5].uniform(size=10_000)
    np.testing.assert_array_equal(streams.fading[0][5].exponential(1.0, size=50),
                                  reference.exponential(1.0, size=50))


def test_tower_layout_matches_default_geometry():
    # every tower stands 10 km off the midpoint of the 2 km road: the link
    # is 10 km there and 10.05 km at either end, inside Hata validity
    sensor = ChannelSensor(ScenarioConfig())

    def snr_at(d_km):
        loss = sensor.hata.suburban_loss(d_km)
        return 10.0 ** ((sensor.config.tx_power_pu - loss - sensor.noise_dbw) / 10.0)

    assert sensor.median_pu_snr(1000.0) == snr_at(10.0)
    for end in (0.0, 2000.0):
        assert sensor.median_pu_snr(end) == pytest.approx(snr_at(math.hypot(1.0, 10.0)))
    # tower 0 owns channels 0-49, tower 1 owns 50-99
    assert sensor.per_tower == 50
