"""Deterministic discrete-time simulator for CR-VANET spectrum sharing.

Vehicles (secondary users) opportunistically use licensed channels owned
by fixed transmission towers (primary users) on a straight two-direction
road. The simulator ties together Gipps car-following mobility, Hata
suburban path loss with Rayleigh fading, an energy-detection sensing
front end, PU/SU occupy-vacate state machines and three pluggable
sensing/coordination schemes, and records allocations, false alarms and
misdetections for scheme comparison under identical conditions.
"""

from .config import (
    ScenarioConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    Scheme,
    load_scenario,
    load_scenario_file,
    num_time_slices,
)
from .engine import SimulationEngine, run_simulation
from .report import SimulationReport, TraceEvent, record_event
from .sweep import SweepRow, SweepSpec, SweepTable, run_sweep, write_csv
from .plots import render_plots

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "Scheme",
    "SimulationEngine",
    "SimulationReport",
    "SweepRow",
    "SweepSpec",
    "SweepTable",
    "TraceEvent",
    "load_scenario",
    "load_scenario_file",
    "num_time_slices",
    "record_event",
    "render_plots",
    "run_simulation",
    "run_sweep",
    "write_csv",
]

__version__ = "0.1.0"
