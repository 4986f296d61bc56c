"""Worst-case corpus tests: golden replays, byte-determinism, corruption.

Two families of guarantees:

* **Golden corpus** (``tests/data/worst_cases/``): every checked-in
  instance replays its stored competitive ratio *exactly* on the
  reference engine (and, in the search-marked suite, on all three
  engines), and re-running the search with the recorded seed and budget
  re-finds a ratio at least as hard as the stored one.
* **Store determinism**: the same search persisted twice produces
  byte-identical stores (manifest and instance files); different seeds
  produce different lineages.  Instance files are content-addressed, so
  any corruption is detected on load.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.search import (
    SearchConfig,
    WorstCaseCorpus,
    WorstCaseCorpusError,
    instance_from_candidate,
    replay_instance,
    run_search,
)

pytestmark = pytest.mark.search

GOLDEN_DIR = Path(__file__).parent / "data" / "worst_cases"

_SMOKE = dict(
    algorithm="gathering",
    family="uniform",
    n=12,
    budget=24,
    generation_size=6,
    pool_size=3,
    initial_samples=8,
)


def golden_digests():
    return WorstCaseCorpus(GOLDEN_DIR).digests()


class TestGoldenCorpus:
    def test_corpus_is_present_and_verifies(self):
        corpus = WorstCaseCorpus(GOLDEN_DIR)
        assert len(corpus.digests()) >= 3
        assert corpus.verify() == []

    @pytest.mark.parametrize("digest", golden_digests())
    def test_reference_replay_is_exact(self, digest):
        instance = WorstCaseCorpus(GOLDEN_DIR).load(digest)
        metrics = replay_instance(instance, engine="reference")
        assert metrics.competitive_ratio == instance.competitive_ratio
        assert int(metrics.duration) == int(instance.metrics["duration"])
        assert metrics.opt_cost == instance.metrics["opt_cost"]
        assert metrics.transmissions == int(instance.metrics["transmissions"])

    @pytest.mark.parametrize("digest", golden_digests())
    @pytest.mark.parametrize("engine", ["vectorized"])
    def test_batched_engines_replay_identically(self, digest, engine):
        instance = WorstCaseCorpus(GOLDEN_DIR).load(digest)
        metrics = replay_instance(instance, engine=engine)
        assert metrics.competitive_ratio == instance.competitive_ratio
        assert int(metrics.duration) == int(instance.metrics["duration"])
        assert metrics.transmissions == int(instance.metrics["transmissions"])

    @pytest.mark.parametrize("digest", golden_digests())
    def test_search_refinds_at_least_the_stored_ratio(self, digest):
        instance = WorstCaseCorpus(GOLDEN_DIR).load(digest)
        outcome = run_search(instance.to_config())
        assert outcome.best_ratio >= instance.competitive_ratio


class TestStoreDeterminism:
    def test_same_seed_and_budget_byte_identical_stores(self, tmp_path):
        stores = []
        for name in ("a", "b"):
            outcome = run_search(SearchConfig(seed=4, **_SMOKE))
            corpus = WorstCaseCorpus(tmp_path / name)
            corpus.add_outcome(outcome, top=2)
            stores.append(corpus)
        first, second = stores
        assert first.manifest_bytes() == second.manifest_bytes()
        assert first.digests() == second.digests()
        for digest in first.digests():
            assert first.instance_path(digest).read_bytes() == (
                second.instance_path(digest).read_bytes()
            )

    def test_different_seeds_different_lineages(self, tmp_path):
        instances = []
        for seed in (1, 2):
            outcome = run_search(SearchConfig(seed=seed, **_SMOKE))
            corpus = WorstCaseCorpus(tmp_path / str(seed))
            (digest,) = corpus.add_outcome(outcome, top=1)
            instances.append(corpus.load(digest))
        first, second = instances
        assert first.digest() != second.digest()
        assert (
            first.lineage != second.lineage
            or first.base_seed != second.base_seed
        )


class TestStoreIntegrity:
    def _store_one(self, tmp_path):
        outcome = run_search(SearchConfig(seed=0, **_SMOKE))
        corpus = WorstCaseCorpus(tmp_path)
        (digest,) = corpus.add_outcome(outcome, top=1)
        return corpus, digest, outcome

    def test_add_is_idempotent(self, tmp_path):
        corpus, digest, outcome = self._store_one(tmp_path)
        before = corpus.manifest_bytes()
        again = corpus.add(
            instance_from_candidate(outcome.config, outcome.best)
        )
        assert again == digest
        assert corpus.manifest_bytes() == before

    def test_corruption_is_detected(self, tmp_path):
        corpus, digest, _ = self._store_one(tmp_path)
        path = corpus.instance_path(digest)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WorstCaseCorpusError, match="corrupt"):
            corpus.load(digest)
        assert corpus.verify() == [digest]

    def test_best_for_picks_the_hardest(self, tmp_path):
        corpus, digest, outcome = self._store_one(tmp_path)
        best = corpus.best_for(_SMOKE["algorithm"], _SMOKE["family"])
        assert best is not None
        assert best.competitive_ratio == outcome.best_ratio
        assert corpus.best_for("gathering", "zipf") is None

    def test_payload_roundtrip_preserves_digest(self, tmp_path):
        corpus, digest, _ = self._store_one(tmp_path)
        instance = corpus.load(digest)
        raw = json.loads(instance.canonical_bytes().decode("utf-8"))
        rebuilt = type(instance).from_payload(raw)
        assert rebuilt.digest() == digest
