"""Tests for the campaign spec, store and report layers."""

import json
import math

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignSpecError,
    CampaignStore,
    CampaignStoreError,
    CampaignStoreMismatch,
    build_campaign_report,
    campaign_status,
    load_campaign_spec,
    run_campaign,
    spec_from_dict,
    write_campaign_figures,
)
from repro.campaign.spec import algorithm_factory_for
from repro.campaign.store import metrics_to_record, record_to_metrics
from repro.cli import main
from repro.sim.metrics import TrialMetrics


def small_spec(**overrides):
    kwargs = dict(
        name="unit",
        algorithms=("gathering",),
        adversaries=("uniform",),
        ns=(8,),
        trials=2,
        engine="vectorized",
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCampaignSpec:
    def test_validates_against_registries(self):
        with pytest.raises(CampaignSpecError, match="unknown algorithm"):
            small_spec(algorithms=("gathering", "quantum_flood"))
        with pytest.raises(CampaignSpecError, match="unknown adversary"):
            small_spec(adversaries=("rush_hour",))
        with pytest.raises(CampaignSpecError, match="unknown engine"):
            small_spec(engine="warp")
        with pytest.raises(CampaignSpecError, match="n must be >= 2"):
            small_spec(ns=(1,))
        with pytest.raises(CampaignSpecError, match="trials"):
            small_spec(trials=0)
        with pytest.raises(CampaignSpecError, match="at least one algorithm"):
            small_spec(algorithms=())
        with pytest.raises(CampaignSpecError, match="block_size"):
            small_spec(block_size=0)
        with pytest.raises(CampaignSpecError, match="unknown family"):
            small_spec(adversary_params={"rush_hour": {}})

    def test_hash_covers_result_fields_only(self):
        base = small_spec()
        assert base.spec_hash() == small_spec(engine="reference").spec_hash()
        assert base.spec_hash() == small_spec(description="notes").spec_hash()
        assert base.spec_hash() == small_spec(block_size=64).spec_hash()
        assert base.spec_hash() != small_spec(ns=(8, 10)).spec_hash()
        assert base.spec_hash() != small_spec(trials=3).spec_hash()
        assert base.spec_hash() != small_spec(master_seed=1).spec_hash()
        assert base.spec_hash() != small_spec(experiment="other").spec_hash()
        assert (
            base.spec_hash()
            != small_spec(adversary_params={"uniform": {}}).spec_hash()
        )

    def test_cells_deterministic_order_and_keys(self):
        spec = small_spec(
            algorithms=("gathering", "waiting"), adversaries=("uniform", "zipf"),
            ns=(8, 10),
        )
        cells = spec.cells()
        assert [c.label() for c in cells] == [
            "uniform/gathering/n=8",
            "uniform/gathering/n=10",
            "uniform/waiting/n=8",
            "uniform/waiting/n=10",
            "zipf/gathering/n=8",
            "zipf/gathering/n=10",
            "zipf/waiting/n=8",
            "zipf/waiting/n=10",
        ]
        assert len({c.key for c in cells}) == len(cells)
        assert cells == spec.cells()

    def test_algorithm_factory_for_waiting_greedy_fills_tau(self):
        algorithm = algorithm_factory_for("waiting_greedy")(16)
        assert algorithm.name == "waiting_greedy"
        with pytest.raises(CampaignSpecError):
            algorithm_factory_for("quantum_flood")

    def test_spec_from_dict_rejects_non_integer_fields(self):
        base = {"name": "x", "algorithms": ["gathering"], "ns": [8]}
        with pytest.raises(CampaignSpecError, match="must be an integer"):
            spec_from_dict({**base, "ns": ["8", "oops"]})
        with pytest.raises(CampaignSpecError, match="must be an integer"):
            spec_from_dict({**base, "trials": "many"})
        with pytest.raises(CampaignSpecError, match="must be an integer"):
            spec_from_dict({**base, "master_seed": [1]})

    def test_spec_from_dict_rejects_unknowns_and_missing(self):
        with pytest.raises(CampaignSpecError, match="unknown spec keys"):
            spec_from_dict({"name": "x", "algorithms": ["gathering"],
                            "ns": [8], "typo_key": 1})
        with pytest.raises(CampaignSpecError, match="missing required"):
            spec_from_dict({"name": "x"})
        with pytest.raises(CampaignSpecError, match="must be a list"):
            spec_from_dict({"name": "x", "algorithms": "gathering", "ns": [8]})


class TestSpecLoading:
    def test_toml_and_json_round_trip(self, tmp_path):
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(
            'name = "c"\nalgorithms = ["gathering"]\nns = [8, 10]\n'
            'trials = 2\nengine = "vectorized"\n'
            '[adversary_params.zipf]\nexponent = 1.5\n'
        )
        json_path = tmp_path / "c.json"
        json_path.write_text(json.dumps({
            "name": "c", "algorithms": ["gathering"], "ns": [8, 10],
            "trials": 2, "engine": "vectorized",
            "adversary_params": {"zipf": {"exponent": 1.5}},
        }))
        toml_spec = load_campaign_spec(toml_path)
        json_spec = load_campaign_spec(json_path)
        assert toml_spec == json_spec
        assert toml_spec.spec_hash() == json_spec.spec_hash()
        assert toml_spec.params_for("zipf") == {"exponent": 1.5}

    def test_loader_errors_are_clear(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="not found"):
            load_campaign_spec(tmp_path / "absent.toml")
        bad = tmp_path / "bad.toml"
        bad.write_text("name = [unterminated")
        with pytest.raises(CampaignSpecError, match="could not parse"):
            load_campaign_spec(bad)
        weird = tmp_path / "spec.yaml"
        weird.write_text("name: x")
        with pytest.raises(CampaignSpecError, match="unsupported spec format"):
            load_campaign_spec(weird)

    def test_shipped_example_specs_load(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        smoke = load_campaign_spec(examples / "campaign_smoke.toml")
        assert len(smoke.cells()) == 2
        paper = load_campaign_spec(examples / "campaign_paper.toml")
        assert paper.engine == "vectorized"
        assert len(paper.cells()) == 3 * 3 * 5


class TestStoreRecords:
    def test_metrics_record_round_trip(self):
        metrics = TrialMetrics(
            n=8, seed=42, algorithm="gathering", terminated=True,
            duration=123.0, transmissions=7, horizon=600, sink_coverage=8,
        )
        record = metrics_to_record(metrics, trial=3, adversary="uniform")
        assert record["trial"] == 3 and record["adversary"] == "uniform"
        assert record_to_metrics(record) == metrics

    def test_unterminated_duration_round_trips_as_inf(self):
        metrics = TrialMetrics(
            n=8, seed=1, algorithm="waiting", terminated=False,
            duration=math.inf, transmissions=2, horizon=100, sink_coverage=3,
        )
        record = metrics_to_record(metrics, trial=0, adversary="uniform")
        assert record["duration"] is None
        json.dumps(record)  # must stay JSON-serialisable
        assert record_to_metrics(record).duration == math.inf


class TestStore:
    def test_initialize_rejects_spec_mismatch(self, tmp_path):
        store_dir = tmp_path / "store"
        run_campaign(small_spec(), store_dir)
        with pytest.raises(CampaignStoreMismatch, match="differs"):
            CampaignStore(store_dir).initialize(small_spec(ns=(8, 10)))
        # Same hash, different engine: accepted (engine excluded from hash).
        CampaignStore(store_dir).initialize(small_spec(engine="reference"))

    def test_read_manifest_errors(self, tmp_path):
        with pytest.raises(CampaignStoreError, match="no campaign manifest"):
            CampaignStore(tmp_path / "nowhere").read_manifest()
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "manifest.json").write_text("{not json")
        with pytest.raises(CampaignStoreError, match="unreadable"):
            CampaignStore(broken).read_manifest()
        hollow = tmp_path / "hollow"
        hollow.mkdir()
        (hollow / "manifest.json").write_text("[]")
        with pytest.raises(CampaignStoreError, match="no 'cells'"):
            CampaignStore(hollow).read_manifest()

    def test_load_cell_missing_shard(self, tmp_path):
        store_dir = tmp_path / "store"
        run_campaign(small_spec(), store_dir)
        with pytest.raises(CampaignStoreError, match="missing cell shard"):
            CampaignStore(store_dir).load_cell("feedfacedeadbeef")

    def test_manifest_records_version_and_engine(self, tmp_path):
        import repro

        store_dir = tmp_path / "store"
        run_campaign(small_spec(), store_dir)
        manifest = CampaignStore(store_dir).read_manifest()
        assert manifest["repro_version"] == repro.__version__
        entry = next(iter(manifest["cells"].values()))
        assert entry["engine"] == "vectorized"
        assert entry["records"] == 2


class TestReport:
    def test_report_counts_missing_cells(self, tmp_path):
        spec = small_spec(ns=(8, 10))
        store_dir = tmp_path / "store"
        run_campaign(spec, store_dir, max_cells=1)
        report = build_campaign_report(store_dir)
        assert report.complete_cells == 1 and report.total_cells == 2
        assert any("not aggregated" in note for note in report.notes)
        assert "campaign run" in report.to_markdown()

    def test_figures_gracefully_skip_without_matplotlib(self, tmp_path):
        store_dir = tmp_path / "store"
        run_campaign(small_spec(), store_dir)
        written = write_campaign_figures(store_dir, tmp_path / "figs")
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            # None (not []) distinguishes "matplotlib missing" from
            # "nothing plottable" — the CLI words its note off this.
            assert written is None
        else:
            assert len(written) == 1


class TestCampaignCLI:
    def test_run_status_report(self, tmp_path, capsys):
        spec_path = tmp_path / "c.toml"
        spec_path.write_text(
            'name = "cli"\nalgorithms = ["gathering"]\nns = [8]\ntrials = 2\n'
        )
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec_path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert main(["campaign", "status", str(store)]) == 0
        assert "complete=1" in capsys.readouterr().out
        report_file = tmp_path / "report.md"
        assert main(["campaign", "report", str(store),
                     "--output", str(report_file)]) == 0
        assert "interactions to termination" in report_file.read_text()

    def test_run_incomplete_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "c.toml"
        spec_path.write_text(
            'name = "cli"\nalgorithms = ["gathering"]\nns = [8, 10]\ntrials = 2\n'
        )
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec_path), "--store", str(store),
                     "--max-cells", "1"]) == 3
        assert main(["campaign", "run", str(spec_path), "--store", str(store)]) == 0

    def test_spec_file_resolves_default_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "c.toml"
        spec_path.write_text(
            'name = "defaulted"\nalgorithms = ["gathering"]\nns = [8]\ntrials = 2\n'
        )
        assert main(["campaign", "run", str(spec_path)]) == 0
        assert (tmp_path / "campaigns" / "defaulted").is_dir()
        assert main(["campaign", "status", str(spec_path)]) == 0
        assert "defaulted" in capsys.readouterr().out

    def test_clear_cli_errors(self, tmp_path, capsys):
        # Campaign CLI failures exit 2 with one clear stderr line — no
        # SystemExit from argparse, no usage noise, never a traceback.
        assert main(["campaign", "run", str(tmp_path / "absent.toml")]) == 2
        err = capsys.readouterr().err
        assert "campaign error" in err and "Traceback" not in err
        assert main(["campaign", "status", str(tmp_path / "not-a-store")]) == 2
        err = capsys.readouterr().err
        assert "campaign error" in err and "Traceback" not in err
