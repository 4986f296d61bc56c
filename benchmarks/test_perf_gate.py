"""Unit tests for the perf gate's trajectory handling and failure modes.

The gate must never die with a traceback on a missing/empty/corrupt
``BENCH_engine.json`` — CI surfaces its stdout, so every failure mode has
to print a clear, actionable message and return a distinct exit code
(0 pass, 1 regression, 2 unusable trajectory / missing required record).
"""

import json

import perf_gate
import pytest


@pytest.fixture
def gate_dir(tmp_path, monkeypatch):
    """Point the gate at an isolated trajectory directory."""
    monkeypatch.setattr(perf_gate, "BENCH_DIR", tmp_path)
    return tmp_path


def write_trajectory(gate_dir, records):
    (gate_dir / "BENCH_engine.json").write_text(json.dumps(records))


def vectorized_record(speedup, host="ci"):
    return {
        "engine": "vectorized",
        "baseline": "reference",
        "speedup": speedup,
        "host": host,
    }


def opt_record(speedup, host="ci"):
    return {
        "engine": "ratio_kernel",
        "baseline": "offline_python",
        "speedup": speedup,
        "host": host,
    }


def knowledge_record(speedup, host="ci"):
    return {
        "engine": "vectorized_knowledge",
        "baseline": "reference",
        "speedup": speedup,
        "host": host,
    }


class TestTrajectoryLoading:
    def test_missing_file_is_bootstrap_not_error(self, gate_dir):
        assert perf_gate.vectorized_records() == []

    def test_empty_file_raises_clear_error(self, gate_dir):
        (gate_dir / "BENCH_engine.json").write_text("")
        with pytest.raises(perf_gate.TrajectoryError, match="empty"):
            perf_gate.vectorized_records()

    def test_invalid_json_raises_clear_error(self, gate_dir):
        (gate_dir / "BENCH_engine.json").write_text("{truncated")
        with pytest.raises(perf_gate.TrajectoryError, match="not valid JSON"):
            perf_gate.vectorized_records()

    def test_non_list_payload_raises_clear_error(self, gate_dir):
        (gate_dir / "BENCH_engine.json").write_text('{"engine": "vectorized"}')
        with pytest.raises(perf_gate.TrajectoryError, match="JSON list"):
            perf_gate.vectorized_records()

    def test_filters_to_gated_config(self, gate_dir):
        write_trajectory(gate_dir, [
            vectorized_record(30.0),
            {"engine": "fast", "baseline": "reference", "speedup": 8.0},
            {"engine": "vectorized", "baseline": "fast", "speedup": 2.0},
        ])
        records = perf_gate.vectorized_records()
        assert [r["speedup"] for r in records] == [30.0]


class TestMainExitCodes:
    def test_empty_file_exits_2_with_message(self, gate_dir, capsys):
        (gate_dir / "BENCH_engine.json").write_text("")
        assert perf_gate.main([]) == 2
        out = capsys.readouterr().out
        assert "perf gate error" in out and "traceback" not in out.lower()

    def test_corrupt_file_exits_2_with_message(self, gate_dir, capsys):
        (gate_dir / "BENCH_engine.json").write_text("[{]")
        assert perf_gate.main([]) == 2
        assert "regenerate" in capsys.readouterr().out

    def test_require_record_fails_on_missing_file(self, gate_dir, capsys):
        assert perf_gate.main(["--require-record"]) == 2
        out = capsys.readouterr().out
        assert "no vectorized-vs-reference record" in out

    def test_require_record_fails_when_no_gated_record(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            {"engine": "fast", "baseline": "reference", "speedup": 8.0},
        ])
        assert perf_gate.main(["--require-record"]) == 2
        assert "no vectorized-vs-reference record" in capsys.readouterr().out

    def test_single_record_bootstrap_passes(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), opt_record(20.0),
            knowledge_record(30.1),
        ])
        assert perf_gate.main(["--require-record"]) == 0
        assert "bootstrap" in capsys.readouterr().out

    def test_healthy_latest_record_passes(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
            opt_record(20.0), knowledge_record(30.1),
        ])
        assert perf_gate.main(["--require-record"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_same_host_regression_fails(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(10.0),
        ])
        assert perf_gate.main([]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestOptKernelGate:
    """The opt-kernel record is covered by --require-record and a floor."""

    def test_records_filter(self, gate_dir):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), opt_record(20.0), opt_record(18.0),
        ])
        records = perf_gate.opt_kernel_records()
        assert [r["speedup"] for r in records] == [20.0, 18.0]

    def test_require_record_fails_without_opt_record(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
        ])
        assert perf_gate.main(["--require-record"]) == 2
        out = capsys.readouterr().out
        assert "ratio_kernel" in out and "test_bench_opt" in out

    def test_missing_opt_record_is_bootstrap_without_require(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
        ])
        assert perf_gate.main([]) == 0
        assert "opt-kernel record yet" in capsys.readouterr().out

    def test_opt_record_below_floor_fails(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
            opt_record(4.0),
        ])
        assert perf_gate.main(["--require-record"]) == 1
        assert "opt-kernel speedup" in capsys.readouterr().out

    def test_healthy_opt_record_reported(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
            opt_record(20.3), knowledge_record(30.1),
        ])
        assert perf_gate.main(["--require-record"]) == 0
        out = capsys.readouterr().out
        assert "opt-kernel speedup: 20.3x" in out


class TestKnowledgeKernelGate:
    """The knowledge-kernel record is covered by --require-record and a floor."""

    def test_records_filter(self, gate_dir):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), opt_record(20.0),
            knowledge_record(30.1), knowledge_record(32.3),
            # Legacy records against the retired fast engine are not gated.
            {"engine": "vectorized_knowledge", "baseline": "fast",
             "speedup": 1.7},
        ])
        records = perf_gate.knowledge_kernel_records()
        assert [r["speedup"] for r in records] == [30.1, 32.3]

    def test_require_record_fails_without_knowledge_record(
        self, gate_dir, capsys
    ):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
            opt_record(20.0),
        ])
        assert perf_gate.main(["--require-record"]) == 2
        out = capsys.readouterr().out
        assert "vectorized_knowledge" in out and "test_bench_engine" in out

    def test_missing_knowledge_record_is_bootstrap_without_require(
        self, gate_dir, capsys
    ):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
            opt_record(20.0),
        ])
        assert perf_gate.main([]) == 0
        assert "knowledge-kernel record yet" in capsys.readouterr().out

    def test_knowledge_record_below_floor_fails(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
            opt_record(20.0), knowledge_record(3.6),
        ])
        assert perf_gate.main(["--require-record"]) == 1
        assert "knowledge-kernel speedup" in capsys.readouterr().out

    def test_healthy_knowledge_record_reported(self, gate_dir, capsys):
        write_trajectory(gate_dir, [
            vectorized_record(32.0), vectorized_record(31.0),
            opt_record(20.0), knowledge_record(30.1),
        ])
        assert perf_gate.main(["--require-record"]) == 0
        out = capsys.readouterr().out
        assert "knowledge-kernel speedup: 30.1x" in out
