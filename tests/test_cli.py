import os

import pytest

from crvanet.cli import main

SMALL_SCENARIO = """\
# scaled-down scenario for CLI checks
runningTime = 0.2 s
nVehicles = 6
nChannels = 10
channelsPerTower = 5
seed = 3
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SMALL_SCENARIO)
    return str(path)


def test_simulate_prints_counters(scenario_file, capsys):
    assert main(["simulate", "--config", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "allocations" in out
    assert "misdetections" in out


def test_simulate_seed_override_changes_nothing_but_seed(scenario_file, capsys):
    assert main(["simulate", "--config", scenario_file, "--seed", "9"]) == 0
    assert "seed                  9" in capsys.readouterr().out


def test_simulate_writes_trace(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", scenario_file, "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "tick,time,event,channel,actor,detail"
    assert len(lines) > 10


def test_trace_mobility_needs_trace(scenario_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", scenario_file, "--trace-mobility"])
    assert exc.value.code == 2
    assert "--trace-mobility needs --trace" in capsys.readouterr().err


def test_simulate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nChannels = 99\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "scenario loading failed" in err


def test_simulate_rejects_short_sensing_window(tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text(SMALL_SCENARIO + "sensingSamples = 20\n")
    assert main(["simulate", "--config", str(short)]) == 2
    err = capsys.readouterr().err
    assert "scenario loading failed" in err
    assert "sensingSamples >= 50" in err


def test_simulate_rejects_negative_seed(scenario_file, capsys):
    assert main(["simulate", "--config", scenario_file, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "scenario loading failed" in err
    assert "seed >= 0" in err


def test_sweep_writes_csv_and_charts(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    code = main([
        "sweep", "--config", scenario_file, "--axis", "vehicles",
        "--values", "2,4", "--schemes", "standalone,proposed",
        "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    files = sorted(os.listdir(out))
    assert files == [
        "fig_vehicles_allocations.svg",
        "fig_vehicles_false_alarms.svg",
        "fig_vehicles_misdetections.svg",
        "sweep.csv",
    ]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2


def test_sweep_rejects_bad_axis_values(scenario_file, tmp_path, capsys):
    code = main([
        "sweep", "--config", scenario_file, "--axis", "vehicles",
        "--values", "4,2", "--seeds", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "sweep specification invalid" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values, named", [
    ("speed", "-10,20", "speed value -10"),
    ("channels", "0,20", "channels value 0"),
    ("vehicles", "10.2,10.7", "vehicles value 10.2"),
])
def test_sweep_rejects_every_bad_point_before_running(scenario_file, tmp_path, capsys,
                                                      axis, values, named):
    code = main([
        "sweep", "--config", scenario_file, "--axis", axis, f"--values={values}",
        "--seeds", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "sweep specification invalid" in err and named in err
    assert not (tmp_path / "x").exists()
