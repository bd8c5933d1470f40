import errno
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import crvanet.cli
import crvanet.engine
from crvanet.cli import _TraceWriter, main
from crvanet.report import (
    MOVE,
    PU_OCCUPIED,
    PU_VACATED,
    SENSE,
    SU_BACKOFF,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
    MoveRows,
    PuRows,
    SenseRows,
    TraceEvent,
)

SMALL_SCENARIO = """\
# scaled-down scenario for CLI checks
runningTime = 0.2 s
nVehicles = 6
nChannels = 10
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


def test_simulate_writes_trace(scenario_file, tmp_path, capsys, monkeypatch):
    run, reports = crvanet.cli.run_simulation, []

    def keeps_report(*args, **kwargs):
        reports.append(run(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(crvanet.cli, "run_simulation", keeps_report)
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", scenario_file, "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "tick,time,event,channel,actor,detail"
    assert len(lines) > 10
    # the report's trace is the writer, and len() counts the rows it wrote
    assert len(reports[0].trace) == len(lines) - 1


def test_trace_writer_rows_match_the_reference_format(tmp_path):
    """The writer writes each block (SenseRows, PuRows, MoveRows) in one go,
    formatting its (tick, time) prefix once and a fleet's speed texts once
    per speed array; every row must still read as the one-format row of its
    event: one tick at two times, a tick that returns after another, -1 ids,
    a move detail with a comma, an empty detail, blocks of each kind at a new
    tick, after an append at the same (tick, time) and before an append,
    channel ids the writer has not seen and seen ones, empty and one-row
    blocks, 0.0 and -0.0 at one tick, and moves at held and at new speeds."""
    speeds = np.array([27.7775, 0.0625, 33.3333])
    items = [
        TraceEvent(3, 0.003, PU_VACATED, 7, 2),
        TraceEvent(3, 0.003, SENSE, 7, 11, "falseAlarm"),
        TraceEvent(3, 0.0035, SU_BACKOFF, -1, 11),
        TraceEvent(4, 0.004, MOVE, -1, 0, "12.345,27.778"),
        TraceEvent(3, 0.003, SU_OCCUPIED, 7, 11),
        TraceEvent(4, 0.003, SU_OCCUPIED, 8, 12),
        TraceEvent(4, 0.003, SENSE, 8, -1, "misdetection"),
        SenseRows(5, 0.005, [0, 9, 10, 99], 4, [0, 1, 2, 0]),
        TraceEvent(5, 0.005, SU_BACKOFF, -1, 4),
        TraceEvent(6, 0.006, PU_OCCUPIED, 9, 1),
        SenseRows(6, 0.006, [9, 123, 0], 12, [2, 2, 1]),
        SenseRows(6, 0.006, [], 13, []),
        SenseRows(7, 0.007, [], 13, []),
        TraceEvent(7, 0.007, SU_OCCUPIED, 123, 12),
        SenseRows(7, 0.0075, [5], 1000, [1]),
        PuRows(7, 0.0075, []),
        PuRows(8, 0.008, [PU_VACATED, 5, 0]),
        TraceEvent(8, 0.008, SU_OCCUPIED, 5, 3),
        PuRows(8, 0.008, [SU_PREEMPTED, 4321, 3, PU_OCCUPIED, 4321, 43, PU_OCCUPIED, 9, 0]),
        TraceEvent(8, 0.008, SU_BACKOFF, -1, 7),
        SenseRows(9, 0.0, [77], 2, [0]),
        PuRows(9, -0.0, [PU_VACATED, 77, 7]),
        MoveRows(9, -0.0, np.array([]), np.array([])),
        MoveRows(10, 0.01, np.array([12.3456]), speeds[:1]),
        TraceEvent(10, 0.01, SU_VACATED, 8, 0),
        MoveRows(10, 0.01, np.array([0.0, 1999.9996, 1e-4]), speeds),
        MoveRows(11, 0.011, np.array([0.0005, 2.5, 1e300]), speeds),
        MoveRows(12, 0.012, np.array([3.0, 4.0, 5.0]), speeds + 1.0),
    ]
    events = [e for item in items for e in ([item] if isinstance(item, TraceEvent) else item)]
    path = tmp_path / "trace.csv"
    writer = _TraceWriter(str(path))
    with writer.file:
        for item in items:
            if isinstance(item, TraceEvent):
                writer.append(item)
            else:
                writer.extend(item)
    assert path.read_text(encoding="ascii") == "tick,time,event,channel,actor,detail\n" + "".join(
        "%d,%.6f,%s,%d,%d,%s\n" % event for event in events)
    assert len(writer) == len(events) == 37


# sha256 of `crvanet simulate --trace` output for each scheme at a 0.3 s
# horizon, seed 1, default scenario otherwise: (plain, with --trace-mobility).
# Recorded when the CLI still held every event and wrote the file after the
# run, so streaming rows must keep the trace bytes unchanged.
TRACE_SHA256 = {
    "standalone": ("02eef10df3784a42ce3aec885ee0c2d98b8b4503f00b7ee8fbd3bf6dfb71dd16",
                   "9ecfa47053fd81ad17650d5538451e143b0f451ee4f4a2445909ae24e5e96d67"),
    "cooperative": ("452373ee0870871d1a140eca711649495f5b149029850e0158356276e100beaf",
                    "5267a7a9a957e72811e519d81c90e09d2d5e5576f9e8062b48bad6856734ee2e"),
    "proposed": ("91fb9678c0a71146f38322dd51a5d6a428eafe5b262e7fd8b7145b2fc7e99ada",
                 "c3af70fbe21387c947e5c86bbea767233188fb5d58391bb6dbfb5758976dada1"),
}


@pytest.mark.parametrize("mobility", [False, True], ids=["plain", "mobility"])
@pytest.mark.parametrize("scheme", sorted(TRACE_SHA256))
def test_trace_bytes_pinned(tmp_path, capsys, scheme, mobility):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(f"scheme = {scheme}\nrunningTime = 0.3 s\n")
    trace = tmp_path / "trace.csv"
    argv = ["simulate", "--config", str(scenario), "--seed", "1", "--trace", str(trace)]
    assert main(argv + ["--trace-mobility"] * mobility) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_SHA256[scheme][mobility]


def test_unwritable_trace_fails_before_the_run(scenario_file, tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(crvanet.cli, "run_simulation", lambda *a, **k: runs.append(a))
    trace = tmp_path / "missing-dir" / "trace.csv"
    assert main(["simulate", "--config", scenario_file, "--trace", str(trace)]) == 1
    assert "trace writing failed" in capsys.readouterr().err
    assert runs == [] and not trace.exists()


class _FillsUp:
    """A trace file whose writes fail once `room` rows are written, like a full disk."""

    def __init__(self, path, *args, **kwargs):
        self.file, self.room = open(path, *args, **kwargs), 40

    def write(self, text):
        if not self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return self.file.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def test_write_error_during_run_is_a_trace_failure(scenario_file, tmp_path, capsys,
                                                   monkeypatch):
    """A write that fails part-way, through a block or a single event, with
    and without the move rows, fails the run as trace writing and leaves no
    file."""
    fills_up = []

    def open_fills_up(*args, **kwargs):
        fills_up.append(_FillsUp(*args, **kwargs))
        return fills_up[-1]

    monkeypatch.setattr(crvanet.cli, "open", open_fills_up, raising=False)
    trace = tmp_path / "trace.csv"
    argv = ["simulate", "--config", scenario_file, "--trace", str(trace)]
    for mobility in (False, True):
        assert main(argv + ["--trace-mobility"] * mobility) == 1
        err = capsys.readouterr().err
        assert "trace writing failed" in err and os.strerror(errno.ENOSPC) in err
        assert "simulation failed" not in err
        assert fills_up[-1].room == 0 and fills_up[-1].file.closed
        assert not trace.exists()
    assert len(fills_up) == 2


def test_failed_run_leaves_no_partial_trace(scenario_file, tmp_path, capsys, monkeypatch):
    step_su, trace, existed = crvanet.engine.step_su, tmp_path / "trace.csv", []

    def fails_part_way(*args):
        existed.append(trace.exists())
        if len(existed) == 5:
            raise RuntimeError("injected failure")
        return step_su(*args)

    monkeypatch.setattr(crvanet.engine, "step_su", fails_part_way)
    assert main(["simulate", "--config", scenario_file, "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "simulation failed: injected failure" in err and "trace writing" not in err
    assert existed == [True] * 5 and not trace.exists()


def _peak_traced_bytes(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_run_memory_stays_flat(tmp_path, capsys):
    """Trace rows go to the file as they happen: a traced 1 s standalone run
    (about 70k rows, 50k more with the moves) peaks within 2 MB of the
    untraced run, where holding every event until the end took about 9.5 MB
    more; each block's text and the 64 KiB write buffer stay small."""
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("scheme = standalone\nrunningTime = 1 s\n")
    argv = ["simulate", "--config", str(scenario), "--seed", "1"]
    assert main(argv) == 0   # warm lazy state outside the measurement
    untraced = _peak_traced_bytes(argv)
    trace = tmp_path / "trace.csv"
    for mobility in (False, True):
        traced = _peak_traced_bytes(argv + ["--trace", str(trace)]
                                    + ["--trace-mobility"] * mobility)
        assert len(trace.read_text().splitlines()) > 50_000 + 50_000 * mobility
        assert traced - untraced < 2_000_000


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


@pytest.mark.parametrize("content, named", [
    (b"nVehicles =\n", "line 1: missing value"),
    (b"seed = 3\n# caf\xe9\n", "not UTF-8 text at byte 14"),
    (b"nChannels = 100\nchannelsPerTower = 50\n", "line 2: unknown key 'channelsPerTower'"),
    (b"towerOffset = 500 m\nroadLength = 60 km\n", "at towerOffset = 500 m, roadLength = 60000 m"),
], ids=["empty-value", "not-utf8", "channels-per-tower", "outside-hata"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_bad_scenario_text_is_named(tmp_path, capsys, command, content, named):
    """A scenario with an empty value, bytes that are not UTF-8, the
    retired channelsPerTower key or towers outside Hata's distance range
    fails scenario loading with exit 2 and a named cause, under both
    commands, before any run."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    argv = [command, "--config", str(bad)]
    if command == "sweep":
        argv += ["--axis", "vehicles", "--values", "2,4", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "x").exists()


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


def test_simulate_rejects_non_finite_seed(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(SMALL_SCENARIO.replace("seed = 3", "seed = inf"))
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "scenario loading failed" in err
    assert "line 5: 'inf' is not a finite number" in err


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


def test_sweep_rejects_repeated_scheme(scenario_file, tmp_path, capsys):
    code = main([
        "sweep", "--config", scenario_file, "--axis", "vehicles", "--values", "2,4",
        "--schemes", "standalone,standalone", "--seeds", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "sweep specification invalid" in err and "scheme standalone is repeated" in err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_a_single_value(scenario_file, tmp_path, monkeypatch, capsys):
    """One axis value cannot be charted: the sweep is refused before any
    point runs and writes nothing."""
    def no_run(spec):
        raise AssertionError("a one-value sweep ran")

    monkeypatch.setattr(crvanet.cli, "run_sweep", no_run)
    code = main([
        "sweep", "--config", scenario_file, "--axis", "vehicles", "--values", "10",
        "--seeds", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "sweep specification invalid" in err and "at least 2 axis values, got 1" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("axis, values, named", [
    ("speed", "-10,20", "speed value -10"),
    ("channels", "0,20", "channels value 0"),
    ("channels", "100,101", "channels value 101"),
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
