"""Micro-benchmark: one node's meetings read straight from the raw words.

Waiting, the sink's star tree and Waiting Greedy's meet table need only the
sink's interactions, about 2 in n of a window.  They read them through
``CommittedBlockAdversary.take_meetings``, where the uniform adversary
draws each whole chunk's raw words, keeps the words that can name the sink
and reduces only those (``repro.adversaries.randomized._node_meetings``).
The alternative it replaced commits the whole window, reads it back and
filters it with two comparisons.

This gate times both on twin adversaries (same seed, so the same draws),
in alternating rounds of :data:`WINDOWS` engine windows of
:data:`WINDOW` interactions each, at the ``paper_engine`` sizes n = 200
and 400 and for sink 0 and sink n // 2.  Each side releases what it read,
as the engine does.  It prints each side's best round in nanoseconds per
interaction and asserts that the median, over rounds, of the meeting
read's time over the block read's time in the round beside it is at most
:data:`MAX_RATIO`.  Adjacent rounds share the host's momentary speed,
where two sides' best rounds need not.  With ``REPRO_BENCH_RECORD=1`` the
figures are appended to ``BENCH_meetings.json``.
"""

import time

import numpy as np

from repro.adversaries.randomized import RandomizedAdversary

from bench_utils import machine_fingerprint, record_bench_trajectory

BENCH_NS = (200, 400)
#: The engine's meeting-read window (four times its default block size).
WINDOW = 16_384
#: Windows read per timed round (about 260,000 interactions).
WINDOWS = 16
TIMING_ROUNDS = 60
MAX_RATIO = 0.9
SEED = 11
#: Past what the rounds read (the default cap, 10 million, is not).
HORIZON = 2**40


def _meeting_reads(adversary, node):
    """Seconds to read :data:`WINDOWS` windows' meetings of ``node``."""
    cursor = adversary.committed_length
    started = time.perf_counter()
    for _ in range(WINDOWS):
        _, _, _, count = adversary.take_meetings(node, cursor, cursor + WINDOW)
        cursor += count
    seconds = time.perf_counter() - started
    assert cursor == adversary.committed_length, "a read came back short"
    return seconds


def _block_reads(adversary, node):
    """Seconds to read the same windows whole, filter and release them."""
    cursor = adversary.committed_length
    started = time.perf_counter()
    for _ in range(WINDOWS):
        i, j = adversary.committed_index_block(cursor, cursor + WINDOW)
        hits = np.flatnonzero((i == node) | (j == node))
        _ = (hits + cursor, i[hits], j[hits])
        cursor += i.shape[0]
        adversary.release_before(cursor)
    return time.perf_counter() - started


def test_meeting_reads_beat_block_reads(benchmark):
    """``take_meetings`` costs at most 0.9 of a block read and filter."""
    cases = {}
    for n in BENCH_NS:
        for node in (0, n // 2):
            nodes = list(range(n))
            meetings, blocks = (
                RandomizedAdversary(nodes, seed=SEED, max_horizon=HORIZON)
                for _ in range(2)
            )
            cases[f"n = {n}, node {node}"] = (
                lambda a=meetings, node=node: _meeting_reads(a, node),
                lambda a=blocks, node=node: _block_reads(a, node),
            )

    def measure():
        figures = {}
        for case, (meetings, blocks) in cases.items():
            seconds = {"meetings": [], "blocks": []}
            for _ in range(TIMING_ROUNDS):
                seconds["meetings"].append(meetings())
                seconds["blocks"].append(blocks())
            figures[case] = {
                name: round(min(values) / (WINDOWS * WINDOW) * 1e9, 2)
                for name, values in seconds.items()
            }
            ratios = np.divide(seconds["meetings"], seconds["blocks"])
            figures[case]["ratio"] = round(float(np.median(ratios)), 3)
        return figures

    figures = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)
    print(f"\nsink meeting reads, ns per interaction (best of {TIMING_ROUNDS} rounds):")
    for case, row in figures.items():
        print(
            f"  {case}: take_meetings {row['meetings']:6.2f}"
            f"   block read + filter {row['blocks']:6.2f}"
            f"   median ratio {row['ratio']:.3f}"
        )
    benchmark.extra_info["meetings"] = figures
    record_bench_trajectory(
        "meetings",
        {
            "window": WINDOW,
            "windows": WINDOWS,
            "rounds": TIMING_ROUNDS,
            "ns_per_interaction": figures,
            "host": machine_fingerprint(),
        },
    )
    for case, row in figures.items():
        assert row["ratio"] <= MAX_RATIO, (
            f"{case}: take_meetings takes {row['ratio']} times as long as a "
            f"block read and filter (median of {TIMING_ROUNDS} rounds), "
            f"more than {MAX_RATIO}"
        )
