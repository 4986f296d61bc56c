"""Resume semantics of the campaign runner and store.

The contracts under test (see ``docs/campaigns.md``):

* an interrupted campaign resumes by skipping exactly the cells the store
  can prove, and the final store is byte-identical to a fresh run;
* a store rejects a spec whose hash differs (no silent grid mixing);
* corruption — tampered shards, truncated writes, edited manifests — is
  detected and self-healed on the next run;
* the stored results are engine-invariant: fresh/resumed legs under any
  mix of reference/vectorized engines write the same bytes;
* stores written while the retired ``fast`` engine existed still verify
  and resume.
"""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    CampaignStoreMismatch,
    build_campaign_report,
    campaign_status,
    run_campaign,
    spec_from_dict,
)
from repro.cli import main


def spec(**overrides):
    kwargs = dict(
        name="resume",
        algorithms=("gathering", "waiting"),
        adversaries=("uniform",),
        ns=(8, 10),
        trials=2,
        engine="vectorized",
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def shard_bytes(store_dir, campaign_spec):
    store = CampaignStore(store_dir)
    return {
        cell.key: store.shard_path(cell.key).read_bytes()
        for cell in campaign_spec.cells()
    }


class TestKillAndResume:
    def test_interrupt_then_resume_matches_fresh(self, tmp_path):
        s = spec()
        fresh = tmp_path / "fresh"
        resumed = tmp_path / "resumed"
        assert run_campaign(s, fresh).complete

        first = run_campaign(s, resumed, max_cells=1)
        assert first.executed == 1 and first.remaining == 3
        assert not first.complete
        second = run_campaign(s, resumed, max_cells=2)
        assert second.skipped == 1 and second.executed == 2
        third = run_campaign(s, resumed)
        assert third.skipped == 3 and third.executed == 1 and third.complete

        assert shard_bytes(fresh, s) == shard_bytes(resumed, s)
        assert (
            build_campaign_report(fresh).to_markdown()
            == build_campaign_report(resumed).to_markdown()
        )

    def test_resumed_run_executes_nothing_when_complete(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir)
        again = run_campaign(s, store_dir)
        assert again.executed == 0 and again.skipped == 4 and again.complete

    def test_max_cells_zero_only_verifies(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        summary = run_campaign(s, store_dir, max_cells=0)
        assert summary.executed == 0 and summary.remaining == 4

    def test_invalid_workers_rejected_even_when_nothing_pending(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir)
        with pytest.raises(ValueError, match="workers"):
            run_campaign(s, store_dir, workers=0)

    def test_manifest_elapsed_is_per_cell_not_per_batch(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir, workers=3)
        entries = CampaignStore(store_dir).read_manifest()["cells"].values()
        # Timing is measured around each cell's own execution inside the
        # worker, so every concurrent cell records a real positive value.
        assert all(entry["elapsed_seconds"] > 0 for entry in entries)

    def test_workers_do_not_change_the_store(self, tmp_path):
        s = spec()
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_campaign(s, serial, workers=1)
        run_campaign(s, parallel, workers=3)
        assert shard_bytes(serial, s) == shard_bytes(parallel, s)


class TestSpecMismatch:
    def test_resume_with_edited_grid_is_rejected(self, tmp_path):
        store_dir = tmp_path / "store"
        run_campaign(spec(), store_dir, max_cells=1)
        with pytest.raises(CampaignStoreMismatch, match="differs"):
            run_campaign(spec(ns=(8, 10, 12)), store_dir)
        with pytest.raises(CampaignStoreMismatch):
            run_campaign(spec(master_seed=7), store_dir)

    def test_result_neutral_edits_resume_fine(self, tmp_path):
        store_dir = tmp_path / "store"
        run_campaign(spec(), store_dir, max_cells=1)
        summary = run_campaign(
            spec(engine="reference", description="renamed knobs"), store_dir
        )
        assert summary.complete and summary.skipped == 1


class TestCorruptionDetection:
    def corrupt_one_shard(self, store_dir, s):
        store = CampaignStore(store_dir)
        cell = s.cells()[0]
        shard = store.shard_path(cell.key)
        shard.write_bytes(shard.read_bytes()[:-10])
        return cell

    def test_status_reports_corrupt_cells(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir)
        self.corrupt_one_shard(store_dir, s)
        status = campaign_status(store_dir)
        assert "corrupt=1" in status and "digest mismatch" in status

    def test_corrupt_cells_rerun_and_self_heal(self, tmp_path):
        s = spec()
        fresh = tmp_path / "fresh"
        store_dir = tmp_path / "store"
        run_campaign(s, fresh)
        run_campaign(s, store_dir)
        self.corrupt_one_shard(store_dir, s)
        summary = run_campaign(s, store_dir)
        assert summary.executed == 1 and summary.repaired == 1
        assert summary.complete
        assert shard_bytes(fresh, s) == shard_bytes(store_dir, s)
        assert "corrupt=0" in campaign_status(store_dir)

    def test_missing_shard_detected_and_refilled(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir)
        cell = s.cells()[1]
        CampaignStore(store_dir).shard_path(cell.key).unlink()
        assert "without shard file" in campaign_status(store_dir)
        summary = run_campaign(s, store_dir)
        assert summary.repaired == 1 and summary.complete

    def test_tampered_manifest_count_detected(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir)
        store = CampaignStore(store_dir)
        manifest = store.read_manifest()
        key = s.cells()[0].key
        manifest["cells"][key]["records"] = 99
        store._write_manifest(manifest)
        assert "record count mismatch" in campaign_status(store_dir)

    def test_report_excludes_corrupt_cells(self, tmp_path):
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir)
        self.corrupt_one_shard(store_dir, s)
        report = build_campaign_report(store_dir)
        assert report.complete_cells == 3
        assert any("corrupt" in note for note in report.notes)


class TestEngineInvariance:
    @pytest.mark.parametrize("fresh_engine", ["reference", "vectorized"])
    def test_fresh_equals_resumed_across_engines(self, tmp_path, fresh_engine):
        s = spec(ns=(8,), trials=2)
        fresh = tmp_path / "fresh"
        resumed = tmp_path / "resumed"
        run_campaign(s, fresh, engine=fresh_engine)
        run_campaign(s, resumed, engine="reference", max_cells=1)
        run_campaign(s, resumed, engine="vectorized")
        assert shard_bytes(fresh, s) == shard_bytes(resumed, s)

    def test_manifest_tracks_per_cell_engine(self, tmp_path):
        s = spec(ns=(8,), trials=2)
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir, engine="reference", max_cells=1)
        run_campaign(s, store_dir, engine="vectorized")
        engines = {
            entry["engine"]
            for entry in CampaignStore(store_dir).read_manifest()["cells"].values()
        }
        assert engines == {"reference", "vectorized"}

    def test_store_written_under_fast_engine_still_resumes(self, tmp_path, capsys):
        """Stores from before the fast engine's retirement name it in their
        spec echo and cell entries; ``fast`` now reads as ``vectorized``."""
        s = spec()
        store_dir = tmp_path / "store"
        run_campaign(s, store_dir)
        store = CampaignStore(store_dir)
        manifest = store.read_manifest()
        manifest["repro_version"] = "1.4.0"
        manifest["spec"]["engine"] = "fast"
        for entry in manifest["cells"].values():
            entry["engine"] = "fast"
        store._write_manifest(manifest)
        before = shard_bytes(store_dir, s)

        assert main(["campaign", "status", str(store_dir)]) == 0
        assert "complete=4 pending=0 corrupt=0" in capsys.readouterr().out
        legacy = spec_from_dict(store.read_manifest()["spec"])
        assert legacy.engine == "fast"
        summary = run_campaign(legacy, store_dir)
        assert summary.complete
        assert summary.skipped == 4 and summary.executed == 0
        assert shard_bytes(store_dir, s) == before


class TestExperimentE24:
    def test_e24_registered_and_reproduces(self):
        from repro.experiments.registry import EXPERIMENTS, run_experiment

        assert "E24" in EXPERIMENTS
        report = run_experiment("E24")
        assert report.verdict
        assert report.details["shards_byte_identical"]
        assert report.details["reports_equal"]
