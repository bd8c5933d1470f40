"""Bit-identity guard: the run counters of short default scenarios.

Each entry is ``SimulationReport.counters`` of the default scenario with
the given scheme and seed and a 0.5 s horizon. A change that claims to keep
behaviour must reproduce every entry exactly; a change that alters
behaviour on purpose re-records them and says so.
"""

from dataclasses import replace

import pytest

from crvanet import ScenarioConfig, Scheme, run_simulation

HORIZON = 0.5

# (allocations, false_alarms, misdetections, correct_detections,
#  sensing_events, harmful_occupations, preemptions, backoffs)
GOLDEN = {
    ("standalone", 1): (290, 1673, 5, 32022, 33700, 0, 183, 47),
    ("standalone", 2): (248, 1263, 2, 26435, 27700, 0, 157, 29),
    ("standalone", 3): (263, 1476, 4, 28020, 29500, 0, 165, 32),
    ("cooperative", 1): (263, 50, 0, 1051, 1101, 0, 153, 104),
    ("cooperative", 2): (254, 44, 0, 1000, 1044, 0, 152, 94),
    ("cooperative", 3): (262, 60, 0, 1017, 1077, 0, 152, 97),
    ("proposed", 1): (260, 37, 0, 457, 494, 0, 163, 234),
    ("proposed", 2): (235, 33, 0, 379, 412, 0, 151, 177),
    ("proposed", 3): (254, 32, 0, 405, 437, 0, 161, 183),
}


@pytest.mark.parametrize("scheme, seed", sorted(GOLDEN))
def test_counters_match_golden(scheme, seed):
    config = replace(ScenarioConfig(), scheme=Scheme(scheme), seed=seed,
                     running_time=HORIZON).validate()
    assert run_simulation(config).counters == GOLDEN[(scheme, seed)]
