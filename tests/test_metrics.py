import os
from dataclasses import fields, replace

import pytest

from crvanet.config import ScenarioConfig, Scheme
from crvanet.plots import PlotDataError, render_chart, render_plots
from crvanet.report import (
    COUNTERS,
    PU_VACATED,
    SENSE,
    SU_OCCUPIED,
    SimulationReport,
    TraceEvent,
    record_event,
)
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
    return replace(
        ScenarioConfig(), running_time=0.2, n_vehicles=6,
        n_channels=10, channels_per_tower=5,
    ).validate()


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
        ("channels", (0.0, 20.0), "channels value 0: nPuTowers >= 1"),
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
        assert cfg.n_channels == 8 and cfg.channels_per_tower == 4

    def test_speed_converts_kmh(self):
        cfg = apply_axis(small_base(), "speed", 120, Scheme.PROPOSED, 1)
        assert cfg.avg_speed == pytest.approx(120 / 3.6)


class TestRunSweep:
    def test_cardinality_and_order(self):
        spec = SweepSpec("vehicles", (2, 4), (Scheme.STANDALONE, Scheme.PROPOSED),
                         (1, 2), small_base())
        table = run_sweep(spec, workers=1)
        assert len(table.rows) == 8
        keys = [(r.axis_value, r.scheme.value, r.seed) for r in table.rows]
        assert keys == sorted(keys, key=lambda k: (k[0], _scheme_rank(k[1]), k[2]))

    def test_serial_and_parallel_agree(self, tmp_path):
        spec = SweepSpec("vehicles", (2, 4), (Scheme.PROPOSED,), (1, 2), small_base())
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=4)
        assert serial == parallel
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(serial, str(p1))
        write_csv(parallel, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_failure_names_value_scheme_and_seed(self, workers):
        # 100 MHz passes validate() but is outside Hata's range, so every run
        # fails when its engine is built; the first in sweep order is named
        base = replace(small_base(), frequency=100.0).validate()
        spec = SweepSpec("vehicles", (10.0, 20.0), (Scheme.STANDALONE,), (1,), base)
        with pytest.raises(RuntimeError) as err:
            run_sweep(spec, workers=workers)
        message = str(err.value)
        assert "value=10," in message and "scheme=standalone" in message
        assert "seed=1)" in message and "frequency" in message

    def test_failure_names_the_triple(self):
        # running_time below time_step fails validation inside apply_axis
        bad = replace(small_base(), running_time=0.2)
        spec = SweepSpec("vehicles", (2,), (Scheme.PROPOSED,), (1,),
                         replace(bad, time_step=0.5))
        with pytest.raises(Exception) as err:
            run_sweep(spec, workers=1)
        assert "seed" in str(err.value) or "runningTime" in str(err.value)


class TestResolveWorkers:
    """A pure function of the argument, the environment and the usable
    cores, which are monkeypatched here; no pool is started."""

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

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
    def test_bad_env_value_names_variable_and_value(self, monkeypatch, value):
        monkeypatch.setenv(PARALLEL_ENV, value)
        with pytest.raises(ValueError) as err:
            resolve_workers(None, 10)
        assert PARALLEL_ENV in str(err.value) and repr(value) in str(err.value)


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
        doc = render_chart(_toy_table(), "allocations", "t")
        assert doc.count("<polyline") == 2
        assert "standalone" in doc and "proposed" in doc

    def test_single_axis_value_is_an_error(self):
        rows = (SweepRow(10, Scheme.PROPOSED, 1, allocations=5, false_alarms=1,
                         sensing_events=10),)
        with pytest.raises(PlotDataError) as err:
            render_chart(SweepTable("vehicles", rows), "allocations", "t")
        assert "2 axis values" in str(err.value)

    def test_empty_table_is_an_error(self, tmp_path):
        with pytest.raises(PlotDataError):
            render_plots(SweepTable("vehicles", ()), str(tmp_path))

    def test_flat_zero_series_renders(self, tmp_path):
        doc = render_chart(_toy_table(), "misdetections", "t")
        assert "<polyline" in doc

    def test_deterministic_bytes(self, tmp_path):
        a = render_chart(_toy_table(), "allocations", "t")
        b = render_chart(_toy_table(), "allocations", "t")
        assert a == b

    def test_means_within_min_max(self):
        from crvanet.plots import _series
        series = _series(_toy_table(), "allocations")
        for points in series.values():
            for _, mean, lo, hi in points:
                assert lo <= mean <= hi
