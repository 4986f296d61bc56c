"""End-to-end competitive-ratio integration: engines, paths, store, CLI.

Extends the differential suites to the ratio vertical:

* per-trial ``opt_cost`` / ``competitive_ratio`` are byte-identical across
  the reference/vectorized engines and the serial / ``--workers`` sweep
  (acceptance criterion of the subsystem);
* ratio campaigns persist the capture into shards, round-trip it through
  :func:`~repro.campaign.store.record_to_metrics`, keep pre-ratio spec
  hashes unchanged, and render ratio columns in reports;
* the CLI exposes ``--ratio`` on ``trial``/``sweep`` and the campaign
  subcommands fail with exit 2 and one clear message — never a traceback —
  on missing/empty/corrupt stores (satellite, mirroring the perf-gate
  hardening).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.campaign.report import build_campaign_report
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, spec_from_dict
from repro.campaign.store import (
    CampaignStore,
    metrics_to_record,
    record_to_metrics,
)
from repro.cli import main
from repro.core.execution import BatchTrial, Executor
from repro.core.vector_execution import VectorizedExecutor
from repro.sim.metrics import TrialMetrics
from repro.sim.parallel import sweep_random_adversary
from repro.sim.runner import (
    build_trial_adversary,
    default_horizon,
    run_random_trial,
)


ENGINES = ("reference", "vectorized")


class TestEngineAndPathIdentity:
    @pytest.mark.parametrize(
        "adversary", ["uniform", "zipf", "hub", "waypoint", "community"]
    )
    def test_per_trial_ratio_identical_across_engines(self, adversary):
        for algorithm_factory in (Gathering, Waiting):
            per_engine = [
                run_random_trial(
                    algorithm_factory(), 14, 5, engine=engine,
                    adversary=adversary, capture_opt=True,
                )
                for engine in ENGINES
            ]
            first = per_engine[0]
            assert first.opt_cost is not None
            for other in per_engine[1:]:
                assert other == first  # includes opt_cost and ratio

    def test_sweep_paths_identical(self):
        kwargs = dict(
            ns=[8, 12], trials=4, master_seed=11, experiment="ratio-paths",
            adversary="uniform", capture_opt=True,
        )
        factory = lambda n: Gathering()
        serial = sweep_random_adversary(factory, engine="reference", **kwargs)
        variants = [
            sweep_random_adversary(factory, engine="reference", workers=2, **kwargs),
            sweep_random_adversary(factory, engine="vectorized", **kwargs),
            sweep_random_adversary(factory, engine="vectorized", workers=2, **kwargs),
        ]
        for variant in variants:
            for serial_point, variant_point in zip(serial.points, variant.points):
                assert variant_point.trials == serial_point.trials

    def test_vectorized_fallback_algorithm_captures_too(self):
        # A same-name subclass is not the registered class, so its trials
        # fall back to the reference engine, which captures the baseline
        # itself; the other rows of the batch stay on the kernel.
        class SameNameGathering(Gathering):
            pass

        nodes = list(range(10))
        horizon = default_horizon(Gathering(), len(nodes))

        def run(engine_cls):
            trials = [
                BatchTrial(
                    source=build_trial_adversary(
                        "uniform", nodes, seed, horizon, 0, None
                    ),
                    max_interactions=horizon,
                    algorithm=(SameNameGathering if seed % 2 else Gathering)(),
                )
                for seed in range(4)
            ]
            executor = engine_cls(nodes, 0, Gathering(), capture_opt=True)
            return executor, executor.run_many(trials)

        _, reference = run(Executor)
        executor, vectorized = run(VectorizedExecutor)
        assert [record.position for record in executor.last_fallbacks] == [1, 3]
        assert vectorized == reference
        for seed, (mine, theirs) in enumerate(zip(vectorized, reference)):
            assert mine.opt_cost is not None and math.isfinite(mine.opt_cost)
            metrics = [
                TrialMetrics.from_result(
                    result, n=len(nodes), seed=seed, algorithm="gathering",
                    horizon=horizon,
                )
                for result in (mine, theirs)
            ]
            assert metrics[0].opt_cost == metrics[1].opt_cost
            assert metrics[0].competitive_ratio == metrics[1].competitive_ratio
            assert metrics[0].competitive_ratio is not None

    def test_capture_off_leaves_metrics_unchanged(self):
        plain = run_random_trial(Gathering(), 10, 3, engine="vectorized")
        assert plain.opt_cost is None and plain.competitive_ratio is None
        captured = run_random_trial(
            Gathering(), 10, 3, engine="vectorized", capture_opt=True
        )
        assert captured.duration == plain.duration
        assert captured.transmissions == plain.transmissions

    def test_ratio_columns_only_when_captured(self):
        factory = lambda n: Gathering()
        plain = sweep_random_adversary(factory, ns=[8], trials=2)
        assert "mean_ratio" not in plain.to_table().columns
        captured = sweep_random_adversary(
            factory, ns=[8], trials=2, capture_opt=True
        )
        table = captured.to_table()
        assert "mean_ratio" in table.columns
        assert all(row["mean_ratio"] >= 1.0 for row in table.rows)


def ratio_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="ratio-test",
        algorithms=("gathering",),
        adversaries=("uniform",),
        ns=(8, 12),
        trials=3,
        engine="vectorized",
        ratio=True,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestRatioCampaigns:
    def test_records_round_trip_and_recompute_ratio(self, tmp_path):
        run_campaign(ratio_spec(), tmp_path / "store")
        store = CampaignStore(tmp_path / "store")
        manifest = store.read_manifest()
        assert manifest["spec"]["ratio"] is True
        for key in manifest["cells"]:
            for record in store.load_cell(key):
                assert "opt_cost" in record and "competitive_ratio" in record
                metrics = record_to_metrics(record)
                assert metrics.opt_cost is not None
                if metrics.terminated:
                    assert metrics.competitive_ratio >= 1.0
                # Round trip: record -> metrics -> record is the identity.
                assert metrics_to_record(
                    metrics, record["trial"], record["adversary"]
                ) == record

    def test_ratio_flag_joins_spec_hash_only_when_enabled(self):
        plain = ratio_spec(ratio=False)
        with_ratio = ratio_spec()
        assert plain.spec_hash() != with_ratio.spec_hash()
        # Pre-ratio hash stability: a ratio=False spec's canonical fields
        # must not mention the field at all.
        assert "ratio" not in plain.result_fields()
        canonical = json.dumps(plain.result_fields(), sort_keys=True)
        assert "ratio" not in canonical

    def test_spec_round_trips_through_dict(self):
        spec = ratio_spec()
        assert spec_from_dict(spec.to_dict()) == spec
        with pytest.raises(Exception, match="boolean"):
            spec_from_dict({**spec.to_dict(), "ratio": "yes"})

    def test_report_has_ratio_tables(self, tmp_path):
        run_campaign(ratio_spec(), tmp_path / "store")
        markdown = build_campaign_report(tmp_path / "store").to_markdown()
        assert "mean_ratio" in markdown
        assert "competitive ratio vs n" in markdown

    def test_plain_campaign_report_unchanged(self, tmp_path):
        run_campaign(ratio_spec(ratio=False), tmp_path / "store")
        markdown = build_campaign_report(tmp_path / "store").to_markdown()
        assert "mean_ratio" not in markdown

    def test_resume_reproduces_ratio_shards(self, tmp_path):
        spec = ratio_spec()
        run_campaign(spec, tmp_path / "fresh")
        run_campaign(spec, tmp_path / "resumed", max_cells=1)
        run_campaign(spec, tmp_path / "resumed", engine="reference")
        fresh = CampaignStore(tmp_path / "fresh")
        resumed = CampaignStore(tmp_path / "resumed")
        for cell in spec.cells():
            assert (
                fresh.shard_path(cell.key).read_bytes()
                == resumed.shard_path(cell.key).read_bytes()
            )


class TestExperimentE25:
    def test_e25_registered_and_reproduces(self):
        from repro.experiments.registry import EXPERIMENTS
        from repro.experiments.ratio import run_ratio_vs_n

        assert "E25" in EXPERIMENTS
        report = run_ratio_vs_n(
            ns=(8, 12), trials=3, algorithms=("gathering",),
            adversaries=("uniform", "zipf"),
        )
        assert report.verdict
        assert report.details["reference_engine_identical"] is True
        # One ratio-vs-n table per adversary family, from the store.
        ratio_tables = [
            table for table in report.tables
            if "competitive ratio vs n" in table.title
        ]
        assert len(ratio_tables) == 2
        for table in ratio_tables:
            assert {"algorithm", "n", "mean_ratio"} <= set(table.columns)
            assert table.rows
        markdown = report.to_markdown()
        assert "mean_ratio" in markdown


class TestCLIRatio:
    def test_trial_ratio_output(self, capsys):
        code = main(
            ["trial", "gathering", "--n", "10", "--seed", "1", "--ratio"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "opt_cost=" in out and "competitive_ratio=" in out

    def test_sweep_ratio_columns(self, capsys):
        code = main(
            [
                "sweep", "gathering", "--ns", "8", "--trials", "2",
                "--engine", "vectorized", "--ratio",
            ]
        )
        assert code == 0
        assert "mean_ratio" in capsys.readouterr().out


class TestCampaignCLIErrors:
    """Satellite: report/status on a bad store exit 2 with a clear message."""

    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_report_missing_store(self, capsys, tmp_path):
        code, _, err = self.run_cli(
            capsys, "campaign", "report", str(tmp_path / "nope")
        )
        assert code == 2
        assert "campaign error" in err and "manifest" in err
        assert "Traceback" not in err

    def test_status_empty_directory(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = self.run_cli(capsys, "campaign", "status", str(empty))
        assert code == 2
        assert "campaign error" in err

    def test_report_corrupt_manifest_json(self, capsys, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text("{not json")
        code, _, err = self.run_cli(capsys, "campaign", "report", str(store))
        assert code == 2
        assert "unreadable campaign manifest" in err
        assert "Traceback" not in err

    def test_status_manifest_with_wrong_cells_shape(self, capsys, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text(json.dumps({"cells": []}))
        code, _, err = self.run_cli(capsys, "campaign", "status", str(store))
        assert code == 2
        assert "'cells' must be a table" in err

    def test_status_manifest_with_wrong_spec_shape(self, capsys, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text(
            json.dumps({"cells": {}, "spec": "broken"})
        )
        code, _, err = self.run_cli(capsys, "campaign", "status", str(store))
        assert code == 2
        assert "'spec' must be a table" in err

    def test_run_on_mismatched_store_exits_2(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.toml"
        spec_file.write_text(
            'name = "a"\nalgorithms = ["gathering"]\nns = [8]\ntrials = 1\n'
        )
        store = tmp_path / "store"
        code = main(["campaign", "run", str(spec_file), "--store", str(store)])
        assert code == 0
        spec_file.write_text(
            'name = "a"\nalgorithms = ["gathering"]\nns = [8]\ntrials = 2\n'
        )
        capsys.readouterr()
        code, _, err = self.run_cli(
            capsys, "campaign", "run", str(spec_file), "--store", str(store)
        )
        assert code == 2
        assert "campaign error" in err and "differs" in err

    def test_status_reports_corrupt_shard_without_crashing(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        spec = ratio_spec(ratio=False, ns=(8,), trials=2)
        run_campaign(spec, store_dir)
        cell = spec.cells()[0]
        shard = CampaignStore(store_dir).shard_path(cell.key)
        shard.write_bytes(b"tampered\n")
        code, out, _ = self.run_cli(capsys, "campaign", "status", str(store_dir))
        assert code == 0
        assert "corrupt" in out
