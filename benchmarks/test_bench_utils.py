"""Unit tests for the benchmark trajectory schema helpers."""

import json

import bench_utils
import pytest

from bench_utils import (
    BENCH_DIR,
    ENGINE_SCHEMA_KEYS,
    RECORD_ENV,
    migrate_engine_trajectory,
    normalize_engine_record,
    record_bench_trajectory,
)


LEGACY_FAST = {
    "algorithms": ["gathering", "waiting_greedy"],
    "fast_seconds": 0.038724,
    "n": 120,
    "reference_seconds": 0.292582,
    "speedup": 7.556,
    "trials": 5,
}

LEGACY_MOBILITY = {
    "adversaries": ["community", "waypoint"],
    "algorithm": "waiting",
    "batched_fast_seconds": 0.450726,
    "kind": "mobility_batched",
    "n": 100,
    "reference_seconds": 2.549349,
    "speedup": 5.656,
    "trials": 5,
}


class TestNormalizeEngineRecord:
    def test_legacy_fast_shape(self):
        record = normalize_engine_record(LEGACY_FAST)
        assert set(record) == set(ENGINE_SCHEMA_KEYS)
        assert record["engine"] == "fast"
        assert record["baseline"] == "reference"
        assert record["adversary"] == "uniform"
        assert record["seconds"] == LEGACY_FAST["fast_seconds"]
        assert record["baseline_seconds"] == LEGACY_FAST["reference_seconds"]

    def test_legacy_mobility_shape(self):
        record = normalize_engine_record(LEGACY_MOBILITY)
        assert set(record) == set(ENGINE_SCHEMA_KEYS)
        assert record["engine"] == "fast_batched"
        assert record["adversary"] == "community+waypoint"
        assert record["algorithms"] == ["waiting"]
        assert record["seconds"] == LEGACY_MOBILITY["batched_fast_seconds"]

    def test_normalized_shape_is_idempotent(self):
        once = normalize_engine_record(LEGACY_FAST)
        assert normalize_engine_record(once) == once

    def test_extra_keys_are_dropped_from_normalized_records(self):
        padded = dict(normalize_engine_record(LEGACY_FAST), stray="x")
        assert "stray" not in normalize_engine_record(padded)

    def test_host_provenance_is_preserved(self):
        stamped = dict(normalize_engine_record(LEGACY_FAST), host="arm64-8cpu")
        assert normalize_engine_record(stamped)["host"] == "arm64-8cpu"

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            normalize_engine_record({"mystery": 1})


class TestMigrateEngineTrajectory:
    def test_migrates_mixed_shapes_in_place(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps([LEGACY_FAST, LEGACY_MOBILITY]))
        migrate_engine_trajectory(path)
        migrated = json.loads(path.read_text())
        assert [set(record) for record in migrated] == [
            set(ENGINE_SCHEMA_KEYS)
        ] * 2
        # Idempotent: a second migration leaves the file unchanged.
        before = path.read_text()
        migrate_engine_trajectory(path)
        assert path.read_text() == before

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
        assert record_bench_trajectory("engine", dict(LEGACY_FAST)) is None
        assert record_bench_trajectory("blocksize", {"n": 120}) is None
        assert trajectory_bytes() == before

    def test_opt_in_appends_one_record(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench_utils, "BENCH_DIR", tmp_path)
        monkeypatch.setenv(RECORD_ENV, "1")
        path = record_bench_trajectory("engine", dict(LEGACY_FAST))
        assert path == tmp_path / "BENCH_engine.json"
        (record,) = json.loads(path.read_text())
        assert set(ENGINE_SCHEMA_KEYS) <= set(record)
