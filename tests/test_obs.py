"""Observability layer: collectors, export, sidecar, and isolation.

Two families of contracts (see ``docs/observability.md``):

* the machinery works — spans/counters/events record with pids and
  arguments, snapshots pickle and merge (the fork-pool path), the
  Chrome-trace export validates against its own schema, the telemetry
  sidecar round-trips and tolerates torn tail lines, and the ``repro
  trace`` / ``repro bench`` / ``campaign status`` CLI surfaces render;
* **telemetry is never result-determining** — metrics, campaign store
  bytes and search corpora are identical with tracing on and off, and a
  resumed campaign with a telemetry sidecar still matches a fresh run
  byte for byte.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.campaign import CampaignSpec, CampaignStore, campaign_status, run_campaign
from repro.obs import (
    NOOP,
    CollectorSnapshot,
    NoopCollector,
    RecordingCollector,
    TelemetryWriter,
    current_collector,
    latest_cell_records,
    now,
    read_telemetry,
    summarize_run,
    telemetry_path_for_store,
    to_chrome_trace,
    use_collector,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.batch import run_sweep_cell


def record_something(collector):
    """Emit one span (with a late-bound arg), one counter, one event."""
    with collector.span("phase.outer", engine="vectorized") as span:
        span.set(trials=3)
        collector.counter("phase.items", 7)
    collector.event("phase.marker", reason="test")


class TestCollectors:
    def test_default_collector_is_the_disabled_noop(self):
        assert current_collector() is NOOP
        assert NOOP.enabled is False

    def test_noop_span_is_shared_and_inert(self):
        noop = NoopCollector()
        first = noop.span("a", x=1)
        second = noop.span("b")
        assert first is second  # one shared null handle, no allocation
        with first as handle:
            handle.set(anything="ignored")
        noop.counter("c", 1.0)
        noop.event("e", k="v")
        noop.add_span("s", 0.0, 1.0)

    def test_use_collector_installs_and_restores(self):
        recording = RecordingCollector()
        with use_collector(recording) as installed:
            assert installed is recording
            assert current_collector() is recording
            inner = RecordingCollector()
            with use_collector(inner):
                assert current_collector() is inner
            assert current_collector() is recording
        assert current_collector() is NOOP

    def test_recording_captures_spans_counters_events(self):
        recording = RecordingCollector()
        record_something(recording)
        (span,) = recording.spans
        assert span.name == "phase.outer"
        assert dict(span.args) == {"engine": "vectorized", "trials": 3}
        assert span.end >= span.start and span.duration >= 0
        (counter,) = recording.counters
        assert counter.name == "phase.items" and counter.value == 7.0
        (event,) = recording.events
        assert event.name == "phase.marker"
        assert dict(event.args) == {"reason": "test"}
        assert span.pid == counter.pid == event.pid > 0

    def test_span_closes_on_exception(self):
        recording = RecordingCollector()
        with pytest.raises(RuntimeError):
            with recording.span("phase.fails"):
                raise RuntimeError("boom")
        (span,) = recording.spans
        assert span.name == "phase.fails"

    def test_add_span_records_premeasured_interval(self):
        recording = RecordingCollector()
        start = now()
        recording.add_span("phase.manual", start, start + 0.5, k="v")
        (span,) = recording.spans
        assert span.start == start and span.end == start + 0.5
        assert dict(span.args) == {"k": "v"}

    def test_snapshot_pickles_and_merges(self):
        recording = RecordingCollector()
        record_something(recording)
        snapshot = pickle.loads(pickle.dumps(recording.snapshot()))
        assert isinstance(snapshot, CollectorSnapshot)
        parent = RecordingCollector()
        parent.merge(snapshot)
        parent.merge(snapshot)
        assert len(parent.spans) == 2
        assert parent.spans[0] == recording.spans[0]


class TestChromeTrace:
    def test_export_schema_and_units(self):
        recording = RecordingCollector()
        record_something(recording)
        payload = to_chrome_trace(recording)
        assert payload["displayTimeUnit"] == "ms"
        by_phase = {event["ph"]: event for event in payload["traceEvents"]}
        assert set(by_phase) == {"X", "C", "i"}
        span = recording.spans[0]
        assert by_phase["X"]["ts"] == pytest.approx(span.start * 1e6)
        assert by_phase["X"]["dur"] == pytest.approx(span.duration * 1e6)
        assert by_phase["X"]["cat"] == "phase"
        assert by_phase["C"]["args"] == {"value": 7.0}
        assert by_phase["i"]["s"] == "t"

    def test_export_accepts_snapshot_and_sorts_spans(self):
        recording = RecordingCollector()
        recording.add_span("later", 2.0, 3.0)
        recording.add_span("earlier", 1.0, 2.0)
        events = to_chrome_trace(recording.snapshot())["traceEvents"]
        assert [event["name"] for event in events] == ["earlier", "later"]

    def test_exported_trace_validates(self):
        recording = RecordingCollector()
        record_something(recording)
        assert validate_chrome_trace(to_chrome_trace(recording)) == []

    def test_write_round_trips_through_json(self, tmp_path):
        recording = RecordingCollector()
        record_something(recording)
        path = write_chrome_trace(recording, tmp_path / "deep" / "trace.json")
        assert path.is_file()
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []

    @pytest.mark.parametrize(
        "payload, expected",
        [
            ({}, "traceEvents missing"),
            ({"traceEvents": "nope"}, "traceEvents missing"),
            ({"traceEvents": ["nope"]}, "not an object"),
            ({"traceEvents": [{"ph": "B", "name": "x"}]}, "unknown phase"),
            (
                {"traceEvents": [
                    {"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1,
                     "dur": -1}
                ]},
                "bad dur",
            ),
            (
                {"traceEvents": [
                    {"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1,
                     "dur": 1},
                    {"ph": "C", "name": "c", "ts": 0, "pid": 1, "tid": 1,
                     "args": {}},
                ]},
                "counter without args",
            ),
            ({"traceEvents": []}, "no spans"),
        ],
    )
    def test_validator_flags_malformed_payloads(self, payload, expected):
        problems = validate_chrome_trace(payload)
        assert any(expected in problem for problem in problems), problems

    def test_validator_spanless_ok_when_not_required(self):
        assert validate_chrome_trace({"traceEvents": []}, require_spans=False) == []


class TestTelemetrySidecar:
    def test_writer_records_cell_skip_run(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        writer = TelemetryWriter(path)
        writer.cell("a/b/n=8", elapsed_seconds=2.0, trials=10, fallbacks=1,
                    engine="vectorized")
        writer.skip("a/b/n=16")
        writer.run(elapsed_seconds=2.5, cells=1, skipped=1)
        records = read_telemetry(path)
        assert [record["type"] for record in records] == ["cell", "skip", "run"]
        cell = records[0]
        assert cell["trials_per_second"] == pytest.approx(5.0)
        assert cell["fallbacks"] == 1 and cell["engine"] == "vectorized"
        assert all("ts" in record for record in records)
        assert summarize_run(records)["cells"] == 1

    def test_zero_elapsed_does_not_divide(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.jsonl")
        writer.cell("c", elapsed_seconds=0.0, trials=5, fallbacks=0,
                    engine="vectorized")
        (record,) = read_telemetry(writer.path)
        assert record["trials_per_second"] == 0.0

    def test_missing_sidecar_reads_as_empty(self, tmp_path):
        assert read_telemetry(tmp_path / "absent.jsonl") == []

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        writer = TelemetryWriter(path)
        writer.skip("whole")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "cell": "torn-mid-wr')
        records = read_telemetry(path)
        assert len(records) == 1 and records[0]["cell"] == "whole"

    def test_latest_cell_record_wins(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.jsonl")
        writer.cell("c", elapsed_seconds=1.0, trials=1, fallbacks=0,
                    engine="vectorized")
        writer.cell("c", elapsed_seconds=2.0, trials=2, fallbacks=0,
                    engine="vectorized")
        latest = latest_cell_records(read_telemetry(writer.path))
        assert latest["c"]["trials"] == 2

    def test_path_helper_points_inside_store(self, tmp_path):
        assert telemetry_path_for_store(tmp_path) == tmp_path / "telemetry.jsonl"


def traced_cell(engine, **kwargs):
    """One gathering sweep cell under a fresh recording collector."""
    from repro.algorithms.gathering import Gathering

    collector = RecordingCollector()
    with use_collector(collector):
        metrics = run_sweep_cell(
            lambda n: Gathering(), n=12, trials=4, master_seed=5,
            engine=engine, **kwargs,
        )
    return metrics, collector


class TestEngineInstrumentation:
    @pytest.mark.parametrize("engine", ["vectorized"])
    def test_cell_and_engine_spans_emitted(self, engine):
        metrics, collector = traced_cell(engine)
        names = [span.name for span in collector.spans]
        assert "sweep.cell" in names
        assert "engine.run_many" in names
        run_many = next(
            span for span in collector.spans if span.name == "engine.run_many"
        )
        args = dict(run_many.args)
        assert args["engine"] == engine
        assert args["trials"] == 4 and args.get("fallbacks", 0) == 0
        cell = next(span for span in collector.spans if span.name == "sweep.cell")
        assert dict(cell.args)["algorithm"] == "gathering"

    def test_vectorized_emits_lockstep_and_counter(self):
        _, collector = traced_cell("vectorized")
        names = [span.name for span in collector.spans]
        assert "engine.lockstep" in names
        assert "engine.committed_draws" in names
        (counter,) = [
            c for c in collector.counters if c.name == "engine.candidates_walked"
        ]
        assert counter.value > 0

    def test_reference_engine_emits_run_span(self):
        from repro import Executor, Gathering, RandomizedAdversary

        nodes = list(range(10))
        collector = RecordingCollector()
        with use_collector(collector):
            Executor(nodes, sink=0, algorithm=Gathering()).run(
                RandomizedAdversary(nodes, seed=1), max_interactions=5000
            )
        (span,) = [s for s in collector.spans if s.name == "engine.run"]
        args = dict(span.args)
        assert args["engine"] == "reference"
        assert args["interactions"] > 0

    def test_fallback_becomes_event_and_span_count(self, monkeypatch):
        from repro.algorithms import kernels as kernels_module
        from repro.core.vector_execution import EngineFallbackWarning

        monkeypatch.delitem(kernels_module.KERNELS, "gathering")
        with pytest.warns(EngineFallbackWarning):
            _, collector = traced_cell("vectorized")
        fallback_events = [
            event for event in collector.events if event.name == "engine.fallback"
        ]
        assert len(fallback_events) == 4  # one per downgraded trial
        assert "no decision kernel" in dict(fallback_events[0].args)["reason"]
        # The downgraded trials run on the reference engine, one
        # engine.run span each, inside the vectorized engine.run_many.
        reference_runs = [
            span for span in collector.spans if span.name == "engine.run"
        ]
        assert len(reference_runs) == 4
        (run_many,) = [
            span for span in collector.spans if span.name == "engine.run_many"
        ]
        assert dict(run_many.args)["fallbacks"] == 4
        cell = next(span for span in collector.spans if span.name == "sweep.cell")
        assert dict(cell.args)["fallbacks"] == 4

    def test_reference_cell_emits_one_run_span_per_trial(self):
        _, collector = traced_cell("reference")
        names = [span.name for span in collector.spans]
        assert names.count("engine.run") == 4
        assert "engine.run_many" not in names
        cell = next(span for span in collector.spans if span.name == "sweep.cell")
        assert dict(cell.args)["fallbacks"] == 0

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_tracing_does_not_change_metrics(self, engine):
        from repro.algorithms.gathering import Gathering

        untraced = run_sweep_cell(
            lambda n: Gathering(), n=12, trials=4, master_seed=5, engine=engine
        )
        traced, _ = traced_cell(engine)
        assert untraced == traced

    @pytest.mark.parametrize("engine", ["vectorized"])
    def test_tracing_does_not_change_ratio_metrics(self, engine):
        from repro.algorithms.gathering import Gathering

        untraced = run_sweep_cell(
            lambda n: Gathering(), n=12, trials=4, master_seed=5,
            engine=engine, capture_opt=True,
        )
        runs = [traced_cell(engine, capture_opt=True) for _ in range(2)]
        swept = [
            [c.value for c in collector.counters
             if c.name == "ratio.swept_columns"]
            for _, collector in runs
        ]
        assert all(metrics == untraced for metrics, _ in runs)
        assert swept[0] and all(value > 0 for value in swept[0])
        assert swept[0] == swept[1]


def campaign_spec(**overrides):
    kwargs = dict(
        name="obs",
        algorithms=("gathering",),
        adversaries=("uniform",),
        ns=(8, 10),
        trials=2,
        engine="vectorized",
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def shard_bytes(store_dir, spec):
    store = CampaignStore(store_dir)
    return {
        cell.key: store.shard_path(cell.key).read_bytes()
        for cell in spec.cells()
    }


class TestCampaignTelemetryIsolation:
    def test_traced_run_matches_untraced_byte_for_byte(self, tmp_path):
        spec = campaign_spec()
        plain = tmp_path / "plain"
        traced = tmp_path / "traced"
        run_campaign(spec, plain)
        collector = RecordingCollector()
        with use_collector(collector):
            run_campaign(spec, traced)
        assert shard_bytes(plain, spec) == shard_bytes(traced, spec)
        names = [span.name for span in collector.spans]
        assert "campaign.run" in names and "sweep.cell" in names
        # ... and the sidecar exists without being part of the store bytes.
        records = read_telemetry(telemetry_path_for_store(traced))
        assert {r["type"] for r in records} == {"cell", "run"}

    def test_meet_table_scans_are_counted_and_change_no_shard(
        self, tmp_path, meet_tables
    ):
        # The draws a Waiting Greedy meet table makes ahead of the run
        # never reach engine.committed_draws; they are counted here.
        spec = campaign_spec(algorithms=("waiting_greedy",), ns=(200,), trials=4)
        run_campaign(spec, tmp_path / "plain")
        del meet_tables[:]
        collector = RecordingCollector()
        with use_collector(collector):
            run_campaign(spec, tmp_path / "traced")
        scanned = [
            c.value for c in collector.counters
            if c.name == "kernels.meet_table_scanned"
        ]
        assert len(meet_tables) == 4 and len(scanned) > 4
        assert sum(scanned) == sum(table.covered for table in meet_tables)
        assert shard_bytes(tmp_path / "plain", spec) == shard_bytes(
            tmp_path / "traced", spec
        )

    def test_interrupted_resume_with_telemetry_matches_fresh(self, tmp_path):
        spec = campaign_spec()
        fresh = tmp_path / "fresh"
        resumed = tmp_path / "resumed"
        run_campaign(spec, fresh)
        first = run_campaign(spec, resumed, max_cells=1)
        assert not first.complete
        second = run_campaign(spec, resumed)
        assert second.complete and second.skipped == 1
        assert shard_bytes(fresh, spec) == shard_bytes(resumed, spec)
        records = read_telemetry(telemetry_path_for_store(resumed))
        skips = [r for r in records if r["type"] == "skip"]
        assert len(skips) == 1
        assert len(latest_cell_records(records)) == 2

    def test_parallel_workers_merge_worker_spans(self, tmp_path):
        spec = campaign_spec()
        collector = RecordingCollector()
        with use_collector(collector):
            run_campaign(spec, tmp_path / "store", workers=2)
        engine_spans = [
            span for span in collector.spans if span.name == "engine.run_many"
        ]
        assert len(engine_spans) == 2
        payload = to_chrome_trace(collector)
        assert validate_chrome_trace(payload) == []

    def test_status_renders_telemetry_columns(self, tmp_path):
        spec = campaign_spec()
        store = tmp_path / "store"
        run_campaign(spec, store)
        status = campaign_status(store)
        assert "trials/s" in status
        assert "telemetry:" in status

    def test_status_without_sidecar_stays_quiet(self, tmp_path):
        spec = campaign_spec()
        store = tmp_path / "store"
        run_campaign(spec, store)
        telemetry_path_for_store(store).unlink()
        status = campaign_status(store)
        assert "trials/s" not in status and "telemetry:" not in status


@pytest.mark.search
class TestSearchIsolation:
    CONFIG = dict(
        algorithm="gathering",
        family="uniform",
        n=12,
        budget=24,
        generation_size=6,
        pool_size=3,
        initial_samples=8,
        seed=7,
    )

    def test_tracing_does_not_change_the_search(self):
        from repro.search import SearchConfig, run_search

        plain = run_search(SearchConfig(**self.CONFIG))
        collector = RecordingCollector()
        with use_collector(collector):
            traced = run_search(SearchConfig(**self.CONFIG))
        assert plain.best_ratio == traced.best_ratio
        assert plain.history == traced.history
        assert plain.best.schedule.digest_key() == traced.best.schedule.digest_key()
        names = [span.name for span in collector.spans]
        assert "search.run" in names and "search.generation" in names


class TestObsCLI:
    def test_trace_wraps_a_command_and_writes_a_valid_trace(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["trace", "--trace-out", str(out), "trial", "gathering",
                     "--n", "12", "--engine", "vectorized"]) == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err and "ui.perfetto.dev" in captured.err
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        names = {event["name"] for event in payload["traceEvents"]}
        assert "engine.run_many" in names

    def test_trace_out_flag_after_the_wrapped_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "after.json"
        assert main(["trace", "trial", "gathering", "--n", "10",
                     "--trace-out", str(out)]) == 0
        capsys.readouterr()
        assert out.is_file()

    def test_trace_requires_a_wrapped_command(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "--trace-out", "x.json"])

    def test_trace_cannot_wrap_itself(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "trace", "trial", "gathering"])

    def test_trace_passes_wrapped_exit_code_through(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fail.json"
        code = main(["trace", "--trace-out", str(out), "campaign", "status",
                     str(tmp_path / "not-a-store")])
        assert code == 2  # the wrapped command's own exit code
        assert out.is_file()  # the trace is still written

    def test_bench_trajectory_renders_recorded_tables(self, capsys):
        from repro.cli import main

        assert main(["bench", "trajectory", "--dir", "benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "vectorized" in out

    def test_bench_trajectory_empty_dir_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "trajectory", "--dir", str(tmp_path)]) == 2
