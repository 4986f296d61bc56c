"""Micro-benchmark: the uniform adversary's committed draws.

The uniform adversary draws each chunk's pairs from PCG64's raw words,
reduced by numpy's bounded 32-bit rule and vectorised over the chunk
(:mod:`repro.adversaries.randomized`).  It replaced a ``Generator.integers``
pair draw (``i`` below ``n``, ``j`` below ``n - 1``, ``j`` skipping
``i``), whose values it reproduces (``tests/test_adversaries.py`` checks
that), only to be faster.  This gate times, in one process and in
alternating rounds, :data:`TIMING_ROUNDS` rounds each:

* ``RandomizedAdversary.draw_block(COMMIT_CHUNK)`` against the same
  adversary with the former sampler, at the ``paper_engine`` sizes n = 200
  and 400.  Both commit each chunk and release the one before, as the
  vectorized engine does, so only the samplers differ;
* the bare pair draw with one word pending, against the bare former draw,
  at n = 400.  A draw that rejects an odd number of words leaves one word
  pending, and it stays pending until the next such draw (each draw takes
  an even number of fresh words), so the chunks in between copy their
  fresh words behind it.  At n = 400 a chunk rejects a word about once in
  4,300 chunks.

It prints each side's best round in nanoseconds per pair, and asserts
that the raw-word sampler is not slower: the median, over rounds, of its
time over the former sampler's time in the round beside it is at most 1.
The host's speed drifts between rounds (on a 2-vCPU x86_64 VM the best
round of a side moved between about 8 and 14 ns per pair from one run to
the next), and adjacent rounds share it, where two sides' best rounds
need not.  A busy host narrows the sampler's lead, most with a word
pending (median ratios up to ~0.98 there), so the gate takes 100 rounds:
with 40, one run in 20 read 1.009 in that case.  With
``REPRO_BENCH_RECORD=1`` the figures are appended to ``BENCH_draws.json``.
"""

import time

import numpy as np

from repro.adversaries.committed import COMMIT_CHUNK
from repro.adversaries.randomized import RandomizedAdversary, _uniform_pairs

from bench_utils import machine_fingerprint, record_bench_trajectory

BENCH_NS = (200, 400)
PENDING_N = 400
#: Chunks drawn per timed round (about 130,000 pairs).
CHUNKS = 16
TIMING_ROUNDS = 100
SEED = 11


def _integers_pairs(rng, n, k):
    """The former uniform pair draw, through ``Generator.integers``."""
    i = rng.integers(0, n, size=k, dtype=np.int32)
    j = rng.integers(0, n - 1, size=k, dtype=np.int32)
    j += j >= i
    return i, j


class _IntegersAdversary(RandomizedAdversary):
    """The uniform adversary with its former sampler."""

    _sampler_fields = ("_rng",)

    def __init__(self, nodes, seed):
        super().__init__(nodes, seed=seed)
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def _sample_block(self, k):
        return _integers_pairs(self._rng, len(self._nodes), k)


def _committed(adversary):
    """Seconds for ``adversary`` to commit :data:`CHUNKS` chunks."""
    started = time.perf_counter()
    for _ in range(CHUNKS):
        adversary.release_before(adversary.committed_length)
        adversary.draw_block(COMMIT_CHUNK)
    return time.perf_counter() - started


def _pending(n):
    """Seconds for :data:`CHUNKS` bare pair draws with one word pending."""
    bitgen, words = np.random.PCG64(SEED), np.array([2**31 + 7], np.uint32)
    started = time.perf_counter()
    for _ in range(CHUNKS):
        _, _, words = _uniform_pairs(bitgen, words, n, COMMIT_CHUNK)
    seconds = time.perf_counter() - started
    assert words.size == 1, "the timed stream lost its pending word"
    return seconds


def _integers(n):
    """Seconds for :data:`CHUNKS` bare pair draws of the former sampler."""
    rng = np.random.Generator(np.random.PCG64(SEED))
    started = time.perf_counter()
    for _ in range(CHUNKS):
        _integers_pairs(rng, n, COMMIT_CHUNK)
    return time.perf_counter() - started


def test_uniform_draws_are_not_slower_than_integers(benchmark):
    """The raw-word sampler costs no more than ``Generator.integers``."""
    nodes = {n: list(range(n)) for n in BENCH_NS}
    cases = {
        f"n = {n}": (
            lambda n=n: _committed(RandomizedAdversary(nodes[n], seed=SEED)),
            lambda n=n: _committed(_IntegersAdversary(nodes[n], SEED)),
        )
        for n in BENCH_NS
    }
    cases[f"n = {PENDING_N}, a word pending"] = (
        lambda: _pending(PENDING_N),
        lambda: _integers(PENDING_N),
    )

    def measure():
        figures = {}
        for case, (sampler, integers) in cases.items():
            seconds = {"sampler": [], "integers": []}
            for _ in range(TIMING_ROUNDS):
                seconds["sampler"].append(sampler())
                seconds["integers"].append(integers())
            figures[case] = {
                name: round(min(values) / (CHUNKS * COMMIT_CHUNK) * 1e9, 2)
                for name, values in seconds.items()
            }
            ratios = np.divide(seconds["sampler"], seconds["integers"])
            figures[case]["ratio"] = round(float(np.median(ratios)), 3)
        return figures

    figures = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)
    print(f"\nuniform pair draws, ns per pair (best of {TIMING_ROUNDS} rounds):")
    for case, row in figures.items():
        print(
            f"  {case}: raw-word sampler {row['sampler']:6.2f}"
            f"   Generator.integers {row['integers']:6.2f}"
            f"   median ratio {row['ratio']:.3f}"
        )
    benchmark.extra_info["draws"] = figures
    record_bench_trajectory(
        "draws",
        {
            "chunk": COMMIT_CHUNK,
            "chunks": CHUNKS,
            "rounds": TIMING_ROUNDS,
            "ns_per_pair": figures,
            "host": machine_fingerprint(),
        },
    )
    for case, row in figures.items():
        assert row["ratio"] <= 1, (
            f"{case}: the raw-word sampler takes {row['ratio']} times as long "
            f"as Generator.integers (median of {TIMING_ROUNDS} rounds): it no "
            f"longer pays for itself"
        )
