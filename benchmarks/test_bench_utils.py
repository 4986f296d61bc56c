"""Unit tests for the benchmark trajectory schema helpers."""

import json

import bench_utils
import pytest

from bench_utils import (
    BENCH_DIR,
    ENGINE_SCHEMA_KEYS,
    RECORD_ENV,
    normalize_engine_record,
    record_bench_trajectory,
)


RECORD = {
    "engine": "vectorized",
    "baseline": "reference",
    "adversary": "uniform",
    "algorithms": ["gathering", "waiting_greedy"],
    "n": 120,
    "trials": 5,
    "seconds": 0.038724,
    "baseline_seconds": 0.292582,
    "speedup": 7.556,
}


class TestNormalizeEngineRecord:
    def test_normalized_shape_is_idempotent(self):
        once = normalize_engine_record(RECORD)
        assert list(once) == list(ENGINE_SCHEMA_KEYS)
        assert normalize_engine_record(once) == once

    def test_extra_keys_are_dropped_from_normalized_records(self):
        padded = dict(RECORD, stray="x")
        assert "stray" not in normalize_engine_record(padded)

    def test_host_provenance_is_preserved(self):
        stamped = dict(RECORD, host="arm64-8cpu")
        assert normalize_engine_record(stamped)["host"] == "arm64-8cpu"

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            normalize_engine_record({"mystery": 1})


class TestCommittedTrajectory:
    def test_committed_trajectory_is_fully_normalized(self):
        trajectory = json.loads(
            (BENCH_DIR / "BENCH_engine.json").read_text(encoding="utf-8")
        )
        for record in trajectory:
            assert set(ENGINE_SCHEMA_KEYS) <= set(record), record


def trajectory_bytes():
    return {path.name: path.read_bytes() for path in BENCH_DIR.glob("BENCH_*.json")}


class TestRecordBenchTrajectory:
    def test_without_opt_in_tracked_files_stay_byte_identical(self, monkeypatch):
        monkeypatch.delenv(RECORD_ENV, raising=False)
        before = trajectory_bytes()
        assert record_bench_trajectory("engine", dict(RECORD)) is None
        assert record_bench_trajectory("blocksize", {"n": 120}) is None
        assert trajectory_bytes() == before

    def test_opt_in_appends_one_record(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench_utils, "BENCH_DIR", tmp_path)
        monkeypatch.setenv(RECORD_ENV, "1")
        path = record_bench_trajectory("engine", dict(RECORD))
        assert path == tmp_path / "BENCH_engine.json"
        (record,) = json.loads(path.read_text())
        assert set(ENGINE_SCHEMA_KEYS) <= set(record)
