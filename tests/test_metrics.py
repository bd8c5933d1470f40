import os
import signal
import sys
import time
from dataclasses import fields, replace

import pytest

from crvanet.config import ScenarioConfig, Scheme, load_scenario
import crvanet.engine
from crvanet.engine import run_simulation
from crvanet.plots import PlotDataError, render_chart, render_plots
from crvanet.propagation import PropagationDomainError
import crvanet.report
from crvanet.report import (
    COUNTERS,
    PU_VACATED,
    SENSE,
    SU_BACKOFF,
    SU_OCCUPIED,
    SimulationReport,
    TraceEvent,
    record_event,
    record_senses,
)
from crvanet.sensing import CLASSES, ChannelSensor
import crvanet.sweep as sweep_module
from crvanet.sweep import (
    CSV_HEADER,
    PARALLEL_ENV,
    SweepRow,
    SweepSpec,
    SweepTable,
    apply_axis,
    resolve_workers,
    run_sweep,
    write_csv,
)


def small_base():
    """Scaled-down scenario so sweep tests stay fast."""
    return replace(ScenarioConfig(), running_time=0.2, n_vehicles=6, n_channels=10).validate()


class TestRecordEvent:
    def test_su_occupied_counts_allocation(self):
        report = SimulationReport()
        record_event(report, SU_OCCUPIED, 0, 0.0, 3, 1)
        assert report.allocations == 1

    def test_sense_counts_exactly_one_class(self):
        report = SimulationReport()
        record_event(report, SENSE, 0, 0.0, 3, 1, "misdetection")
        assert report.misdetections == 1
        assert report.sensing_events == 1
        assert report.false_alarms == 0 and report.correct_detections == 0

    def test_sense_requires_classification(self):
        with pytest.raises(ValueError):
            record_event(SimulationReport(), SENSE, 0, 0.0, 3, 1)

    def test_pu_vacated_touches_nothing(self):
        report = SimulationReport()
        record_event(report, PU_VACATED, 0, 0.0, 3, 0)
        assert report.counters == SimulationReport().counters

    def test_trace_appended_when_collecting(self):
        report = SimulationReport(trace=[])
        record_event(report, SU_OCCUPIED, 0, 0.0, 3, 1)
        assert report.trace == [TraceEvent(0, 0.0, SU_OCCUPIED, 3, 1)]

    def test_list_sink_receives_trace_events(self):
        report = SimulationReport(trace=[])
        record_event(report, PU_VACATED, 4, 0.004, 3, 0)
        record_event(report, SENSE, 5, 0.005, 3, 1, "falseAlarm")
        assert [type(e) for e in report.trace] == [TraceEvent, TraceEvent]
        assert report.trace == [
            TraceEvent(tick=4, time=0.004, event=PU_VACATED, channel_id=3, actor_id=0),
            TraceEvent(tick=5, time=0.005, event=SENSE, channel_id=3, actor_id=1,
                       detail="falseAlarm"),
        ]
        vacated, sensed = report.trace
        assert (vacated.tick, vacated.time, vacated.event) == (4, 0.004, PU_VACATED)
        assert (vacated.channel_id, vacated.actor_id, vacated.detail) == (3, 0, "")
        assert (sensed.event, sensed.actor_id, sensed.detail) == (SENSE, 1, "falseAlarm")


class TestRecordSenses:
    """record_senses must leave the counters and the trace exactly as one
    sense record_event per channel would."""

    BLOCKS = [([4, 0, 9, 2, 7, 1], [0, 1, 2, 0, 0, 1]), ([], []), ([3], [2])]

    @staticmethod
    def _per_event(report, tick, time, channel_ids, actor_id, classes):
        for channel, cls in zip(channel_ids, classes):
            record_event(report, SENSE, tick, time, channel, actor_id, CLASSES[cls])

    @pytest.mark.parametrize("channel_ids, classes", BLOCKS, ids=["mixed", "empty", "one"])
    def test_untraced_counters_equal_per_event_calls(self, channel_ids, classes):
        block, events = SimulationReport(), SimulationReport()
        record_senses(block, 5, 0.005, channel_ids, 3, classes)
        self._per_event(events, 5, 0.005, channel_ids, 3, classes)
        assert block.counters == events.counters
        assert block.sensing_events == len(classes) and block.conservation_holds()

    def test_untraced_calls_record_event_by_module_name(self, monkeypatch):
        """perfbench counts untraced sense events by patching record_event
        on the module, so each channel must still be one such call."""
        calls = []
        monkeypatch.setattr(crvanet.report, "record_event",
                            lambda *args: calls.append(args[1:]))
        record_senses(SimulationReport(), 5, 0.005, [4, 0], 3, [1, 0])
        assert calls == [(SENSE, 5, 0.005, 4, 3, "falseAlarm"),
                         (SENSE, 5, 0.005, 0, 3, "correctDetection")]

    def test_list_sink_collects_the_per_event_trace(self):
        """Mixed classes, an empty block, and blocks between single events
        of the same tick: the same TraceEvents, in the same order."""
        def run(record):
            report = SimulationReport(trace=[])
            record_event(report, PU_VACATED, 5, 0.005, 4, 0)
            for channel_ids, classes in self.BLOCKS:
                record(report, 5, 0.005, channel_ids, 3, classes)
                record_event(report, SU_BACKOFF, 5, 0.005, -1, 3)
            record(report, 6, 0.006, [8, 9], 2, [2, 0])
            return report

        block, events = run(record_senses), run(self._per_event)
        assert block.trace == events.trace and len(block.trace) == 13
        assert [type(e) for e in block.trace] == [TraceEvent] * 13
        assert block.counters == events.counters


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
def test_untraced_record_event_calls_equal_trace_rows(monkeypatch, scheme):
    """perfbench checks a traced run against the untraced run's
    record_event calls, counted by patching every crvanet module name bound
    to it: a run of each scheme must make one such call per trace row, with
    that row's fields, in the row's order."""
    config = replace(ScenarioConfig(), running_time=0.5, seed=5, scheme=scheme).validate()
    calls = []

    def counted(report, kind, tick, time, channel_id=-1, actor_id=-1, detail=""):
        calls.append(TraceEvent(tick, time, kind, channel_id, actor_id, detail))
        original(report, kind, tick, time, channel_id, actor_id, detail)

    original = crvanet.report.record_event
    for name, module in list(sys.modules.items()):
        if name == "crvanet" or name.startswith("crvanet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    untraced = run_simulation(config)
    monkeypatch.undo()
    trace = []
    traced = run_simulation(config, trace=trace)
    assert untraced.counters == traced.counters
    assert untraced.sensing_events > 0 and untraced.allocations > 0
    assert len(trace) == len(calls) and trace == calls


class TestSweepSpec:
    def test_values_must_increase(self):
        with pytest.raises(ValueError):
            SweepSpec("vehicles", (10, 10), (Scheme.PROPOSED,), (1,), small_base()).validate()

    def test_axis_checked(self):
        with pytest.raises(ValueError):
            SweepSpec("towers", (1, 2), (Scheme.PROPOSED,), (1,), small_base()).validate()

    def test_channel_values_must_divide(self):
        with pytest.raises(ValueError):
            SweepSpec("channels", (9,), (Scheme.PROPOSED,), (1,), small_base()).validate()

    @pytest.mark.parametrize("axis, values, named", [
        ("speed", (-10.0, 20.0), "speed value -10: avgSpeed > 0 violated"),
        ("channels", (0.0, 20.0), "channels value 0: nChannels >= nPuTowers violated"),
        ("vehicles", (4.0, 10.2), "vehicles value 10.2 is not a whole count"),
        ("channels", (10.0, 12.5), "channels value 12.5 is not a whole count"),
    ])
    def test_every_point_is_checked_before_any_run(self, monkeypatch, axis, values, named):
        def no_run(config):
            raise AssertionError("a sweep point ran before its spec was rejected")

        monkeypatch.setattr(sweep_module, "run_simulation", no_run)
        spec = SweepSpec(axis, values, (Scheme.PROPOSED,), (1,), small_base())
        with pytest.raises(ValueError, match=named):
            run_sweep(spec, workers=1)

    @pytest.mark.parametrize("schemes, seeds, named", [
        ((Scheme.STANDALONE, Scheme.STANDALONE), (1,), "scheme standalone is repeated"),
        ((Scheme.PROPOSED, Scheme.STANDALONE, Scheme.PROPOSED), (1,),
         "scheme proposed is repeated"),
        ((Scheme.PROPOSED,), (1, 2, 1), "seed 1 is repeated"),
    ])
    def test_repeated_schemes_and_seeds_rejected(self, schemes, seeds, named):
        with pytest.raises(ValueError, match=named):
            SweepSpec("vehicles", (4,), schemes, seeds, small_base()).validate()

    def test_fractional_speed_is_valid(self):
        SweepSpec("speed", (50.5, 80.25), (Scheme.PROPOSED,), (1,), small_base()).validate()


class TestApplyAxis:
    def test_vehicles(self):
        cfg = apply_axis(small_base(), "vehicles", 4, Scheme.STANDALONE, 7)
        assert cfg.n_vehicles == 4 and cfg.seed == 7
        assert cfg.scheme is Scheme.STANDALONE

    def test_channels_keep_tower_split(self):
        cfg = apply_axis(small_base(), "channels", 8, Scheme.PROPOSED, 1)
        assert cfg.n_channels == 8 and cfg.n_pu_towers == 2
        assert ChannelSensor(cfg).per_tower == 4

    def test_speed_converts_kmh(self):
        cfg = apply_axis(small_base(), "speed", 120, Scheme.PROPOSED, 1)
        assert cfg.avg_speed == load_scenario("avgSpeed = 120 km/h").avg_speed

    def test_a_point_is_the_scenario_its_file_names(self):
        # every axis, by its file key and unit: test_acceptance's grids, and on
        # the speed axis every whole km/h from 1 to 399 and a fractional one
        points = {"vehicles": ("nVehicles", "", (10, 20, 30, 40, 50)),
                  "channels": ("nChannels", "", (20, 40, 60, 80, 100)),
                  "speed": ("avgSpeed", "km/h", (*range(1, 400), 80.25))}
        base = ScenarioConfig().validate()
        for axis, (key, unit, values) in points.items():
            for v in map(float, values):
                named = load_scenario(f"{key} = {v} {unit}")
                assert apply_axis(base, axis, v, Scheme.COOPERATIVE, 3) == replace(
                    named, scheme=Scheme.COOPERATIVE, seed=3), (axis, v)


@pytest.mark.usefixtures("deadline")
class TestRunSweep:
    def test_cardinality_and_order(self):
        spec = SweepSpec("vehicles", (2, 4), (Scheme.STANDALONE, Scheme.PROPOSED),
                         (1, 2), small_base())
        table = run_sweep(spec, workers=1)
        assert len(table.rows) == 8
        keys = [(r.axis_value, r.scheme.value, r.seed) for r in table.rows]
        assert keys == sorted(keys, key=lambda k: (k[0], _scheme_rank(k[1]), k[2]))

    def test_serial_and_parallel_agree(self, tmp_path, monkeypatch):
        # 1-7 jobs split into 2 and 3 interleaved shares, uneven splits
        # included; four usable cores, so only the job count caps the workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        for n_jobs in range(1, 8):
            schemes = (Scheme.STANDALONE, Scheme.PROPOSED) if n_jobs % 2 == 0 else (Scheme.PROPOSED,)
            seeds = (1, 2) if n_jobs % 4 == 0 else (1,)
            values = tuple(range(2, 2 + n_jobs // (len(schemes) * len(seeds))))
            spec = SweepSpec("vehicles", values, schemes, seeds, small_base())
            serial = run_sweep(spec, workers=1)
            assert len(serial.rows) == n_jobs
            write_csv(serial, str(tmp_path / "serial.csv"))
            for workers in (2, 3):
                parallel = run_sweep(spec, workers=workers)
                assert serial == parallel, (n_jobs, workers)
                write_csv(parallel, str(tmp_path / "parallel.csv"))
                assert ((tmp_path / "serial.csv").read_bytes()
                        == (tmp_path / "parallel.csv").read_bytes()), (n_jobs, workers)
        _assert_no_child_left()
        monkeypatch.delattr(os, "fork")  # where fork is missing, the sweep runs in process
        assert run_sweep(spec, workers=3) == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_failure_names_value_scheme_and_seed(self, monkeypatch, workers):
        # every run fails as its engine builds the sensor (patched before the
        # sweep forks, so helpers fail too); the first in sweep order is named
        def failing_sensor(config):
            raise PropagationDomainError(f"injected at nVehicles = {config.n_vehicles}")
        monkeypatch.setattr(crvanet.engine, "ChannelSensor", failing_sensor)
        spec = SweepSpec("vehicles", (10.0, 20.0), (Scheme.STANDALONE,), (1,), small_base())
        with pytest.raises(RuntimeError) as err:
            run_sweep(spec, workers=workers)
        message = str(err.value)
        assert "value=10," in message and "scheme=standalone" in message
        assert "seed=1)" in message and "injected at nVehicles = 10" in message
        _assert_no_child_left()

    def test_failure_names_the_triple(self):
        # running_time below time_step fails validation inside apply_axis
        bad = replace(small_base(), running_time=0.2)
        spec = SweepSpec("vehicles", (2,), (Scheme.PROPOSED,), (1,),
                         replace(bad, time_step=0.5))
        with pytest.raises(Exception) as err:
            run_sweep(spec, workers=1)
        assert "seed" in str(err.value) or "runningTime" in str(err.value)

    @pytest.mark.parametrize("failing, named", [((3, 4), 3), ((2, 5), 2)])
    def test_lowest_failure_in_either_share_is_named(self, monkeypatch, failing, named):
        # at 2 workers the caller runs values 2 and 4, the forked helper 3 and 5;
        # at 1 the caller runs them all and forks nothing
        def fail():
            raise ValueError("injected")
        _fail_runs_at(monkeypatch, failing, fail)
        spec = SweepSpec("vehicles", (2, 3, 4, 5), (Scheme.PROPOSED,), (1,), small_base())
        for workers in (1, 2):
            with pytest.raises(RuntimeError) as err:
                run_sweep(spec, workers=workers)
            assert f"value={named}, scheme=proposed, seed=1)" in str(err.value), workers
            assert "injected" in str(err.value)
            _assert_no_child_left()

    def test_helper_that_dies_is_a_failure_not_a_hang(self, monkeypatch):
        caller = os.getpid()

        def die():
            if os.getpid() != caller:
                os._exit(3)
        _fail_runs_at(monkeypatch, (3,), die)
        spec = SweepSpec("vehicles", (2, 3), (Scheme.PROPOSED,), (1,), small_base())
        with pytest.raises(RuntimeError) as err:
            run_sweep(spec, workers=2)
        assert "status 3" in str(err.value)
        _assert_no_child_left()

    def test_interrupted_caller_kills_its_helpers(self, monkeypatch):
        # the helper would run for a minute; the interrupt must not wait for it
        caller = os.getpid()

        def interrupt_or_stall():
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)
        _fail_runs_at(monkeypatch, (2, 3), interrupt_or_stall)
        spec = SweepSpec("vehicles", (2, 3), (Scheme.PROPOSED,), (1,), small_base())
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=2)
        assert time.monotonic() - start < 30
        _assert_no_child_left()


@pytest.fixture
def deadline():
    """Fails a test that runs past 60 s instead of letting a sweep hang."""
    def expire(signum, frame):
        raise TimeoutError("sweep still running after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _fail_runs_at(monkeypatch, vehicles, action):
    """Runs at these vehicle counts call `action` first; it is patched before
    the sweep forks, so forked helpers see it too."""
    real = sweep_module.run_simulation

    def run(config):
        if config.n_vehicles in vehicles:
            action()
        return real(config)
    monkeypatch.setattr(sweep_module, "run_simulation", run)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestResolveWorkers:
    """A pure function of the argument, the environment and the usable
    cores, which are monkeypatched here; no process is started."""

    @pytest.fixture
    def cores(self, monkeypatch):
        def set_cores(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                                raising=False)
        set_cores(4)
        return set_cores

    def test_default_is_one_per_usable_core(self, monkeypatch, cores):
        monkeypatch.delenv(PARALLEL_ENV, raising=False)
        assert resolve_workers(None, 75) == 4
        assert resolve_workers(None, 3) == 3
        assert resolve_workers(None, 1) == 1
        cores(1)
        assert resolve_workers(None, 75) == 1

    def test_env_sets_the_count_capped_at_jobs(self, monkeypatch, cores):
        monkeypatch.setenv(PARALLEL_ENV, "3")
        assert resolve_workers(None, 10) == 3
        assert resolve_workers(None, 2) == 2
        monkeypatch.setenv(PARALLEL_ENV, " 1 ")
        assert resolve_workers(None, 10) == 1

    def test_explicit_count_wins_over_env(self, monkeypatch, cores):
        monkeypatch.setenv(PARALLEL_ENV, "junk")
        assert resolve_workers(2, 10) == 2

    @pytest.mark.parametrize("source", ["argument", "env"])
    def test_every_count_is_capped_at_the_usable_cores(self, monkeypatch, cores, source):
        # a 4,500-run sweep asking for 5,000 workers gets one per core
        if source == "env":
            monkeypatch.setenv(PARALLEL_ENV, "5000")
            workers = None
        else:
            monkeypatch.setenv(PARALLEL_ENV, "junk")  # never read
            workers = 5000
        assert resolve_workers(workers, 4500) == 4
        cores(2)
        assert resolve_workers(workers, 4500) == 2
        assert resolve_workers(workers, 1) == 1

    @pytest.mark.parametrize("source, value", [
        ("env", "two"), ("env", "1.5"), ("env", "0"), ("env", "-3"),
        ("argument", 0), ("argument", -3)],
        ids=["two", "1.5", "0", "-3", "argument-0", "argument--3"])
    def test_bad_env_value_names_variable_and_value(self, monkeypatch, source, value):
        """A count below one, or not an integer, is rejected naming its
        source and the value, whether it came from CRVANET_PARALLEL or
        from the workers argument."""
        if source == "env":
            monkeypatch.setenv(PARALLEL_ENV, value)
            name, workers = PARALLEL_ENV, None
        else:
            monkeypatch.setenv(PARALLEL_ENV, "3")  # never read
            name, workers = "workers", value
        with pytest.raises(ValueError) as err:
            resolve_workers(workers, 10)
        assert name in str(err.value) and repr(value) in str(err.value)


def _scheme_rank(name):
    order = [s.value for s in (Scheme.STANDALONE, Scheme.PROPOSED)]
    return order.index(name) if name in order else 99


class TestCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepTable("vehicles", ()), str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_header_lists_every_counter(self):
        assert CSV_HEADER.split(",") == ["axis_value", "scheme", "seed", *COUNTERS]
        assert [f.name for f in fields(SweepRow)] == CSV_HEADER.split(",")

    def test_report_fields_are_the_counters(self):
        """SimulationReport's counters are COUNTERS, in order: a counter field
        missing from COUNTERS would never reach the CLI or the CSV."""
        assert [f.name for f in fields(SimulationReport) if f.name != "trace"] == list(COUNTERS)

    def test_single_row_format(self, tmp_path):
        row = SweepRow(50, Scheme.PROPOSED, 7, allocations=120, false_alarms=3,
                       misdetections=0, correct_detections=797, sensing_events=800,
                       harmful_occupations=0, preemptions=2, backoffs=9)
        path = tmp_path / "one.csv"
        write_csv(SweepTable("vehicles", (row,)), str(path))
        lines = path.read_text().splitlines()
        assert lines == [CSV_HEADER, "50,proposed,7,120,3,0,797,800,0,2,9"]

    def test_lf_line_endings_and_ascii(self, tmp_path):
        row = SweepRow(50, Scheme.PROPOSED, 7, allocations=120, false_alarms=3,
                       sensing_events=800)
        path = tmp_path / "lf.csv"
        write_csv(SweepTable("vehicles", (row,)), str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        data.decode("ascii")

    def test_round_trip(self, tmp_path):
        # every counter distinct, so a swapped column shows
        rows = (
            SweepRow(10, Scheme.STANDALONE, 1, *range(11, 19)),
            SweepRow(20.5, Scheme.PROPOSED, 2, *range(21, 29)),
        )
        path = tmp_path / "rt.csv"
        write_csv(SweepTable("vehicles", rows), str(path))
        assert path.read_text().splitlines() == [
            CSV_HEADER,
            "10,standalone,1,11,12,13,14,15,16,17,18",
            "20.5,proposed,2,21,22,23,24,25,26,27,28",
        ]

    def test_unwritable_path_surfaces(self):
        with pytest.raises(OSError) as err:
            write_csv(SweepTable("vehicles", ()), "/nonexistent-dir/x.csv")
        assert "/nonexistent-dir/x.csv" in str(err.value)


def _toy_table():
    rows = []
    for value in (10, 20, 30):
        for scheme, base in ((Scheme.STANDALONE, 40), (Scheme.PROPOSED, 30)):
            for seed in (1, 2):
                rows.append(SweepRow(value, scheme, seed, allocations=base + value + seed,
                                     false_alarms=5 + seed, sensing_events=100))
    return SweepTable("vehicles", tuple(rows))


class TestPlots:
    def test_writes_three_charts(self, tmp_path):
        paths = render_plots(_toy_table(), str(tmp_path))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == [
            "fig_vehicles_allocations.svg",
            "fig_vehicles_false_alarms.svg",
            "fig_vehicles_misdetections.svg",
        ]
        for p in paths:
            text = open(p).read()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")

    def test_one_polyline_per_scheme(self, tmp_path):
        doc = render_chart(_toy_table(), "allocations")
        assert ">number of vehicles vs successful allocations</text>" in doc
        assert doc.count("<polyline") == 2
        assert "standalone" in doc and "proposed" in doc

    def test_single_axis_value_is_an_error(self):
        rows = (SweepRow(10, Scheme.PROPOSED, 1, allocations=5, false_alarms=1,
                         sensing_events=10),)
        with pytest.raises(PlotDataError) as err:
            render_chart(SweepTable("vehicles", rows), "allocations")
        assert "2 axis values" in str(err.value)

    def test_empty_table_is_an_error(self, tmp_path):
        with pytest.raises(PlotDataError):
            render_plots(SweepTable("vehicles", ()), str(tmp_path))

    @pytest.mark.parametrize("axis", ["", "pfa"])
    def test_unknown_axis_is_an_error(self, tmp_path, axis):
        """An axis outside sweep.AXES has no chart label: both renderers
        name it, and render_plots makes no directory."""
        table = SweepTable(axis, _toy_table().rows)
        with pytest.raises(PlotDataError, match=f"sweep axis {axis!r}"):
            render_chart(table, "allocations")
        with pytest.raises(PlotDataError, match=f"sweep axis {axis!r}"):
            render_plots(table, str(tmp_path / "plots"))
        assert not (tmp_path / "plots").exists()

    def test_flat_zero_series_renders(self, tmp_path):
        doc = render_chart(_toy_table(), "misdetections")
        assert "<polyline" in doc

    def test_deterministic_bytes(self, tmp_path):
        a = render_chart(_toy_table(), "allocations")
        b = render_chart(_toy_table(), "allocations")
        assert a == b

    def test_means_within_min_max(self):
        from crvanet.plots import _series
        series = _series(_toy_table(), "allocations")
        for points in series.values():
            for _, mean, lo, hi in points:
                assert lo <= mean <= hi
