"""Micro-benchmark: Waiting Greedy's decisions from per-node summaries.

Waiting Greedy's kernel (:class:`repro.algorithms.kernels.
WaitingGreedyKernel`) decides every candidate at or before ``tau`` by
gathering from three per-node summaries of its meet table (each node's last
sink meeting at or below ``tau``, its first above ``tau``, and whether that
one was found), and binary-searches the table only after ``tau``.  Before,
every candidate took two :meth:`~repro.algorithms.kernels.SinkMeetTable.
lookup` searches; :func:`lookup_rule` below is that rule.

This gate records the blocks the engine decides in one seeded zipf
n = 400 trial (the adversary of the ``skewed`` benchmark workload), checks
that both rules decide every block alike on the finished table, and then
times them on those blocks in alternating rounds, :data:`TIMING_ROUNDS`
rounds each.  It prints each side's best round in nanoseconds per
candidate and asserts that the median, over rounds, of the kernel's time
over the lookup rule's time in the round beside it is at most
:data:`MAX_RATIO`: adjacent rounds share the host's speed, where two
sides' best rounds need not.  With ``REPRO_BENCH_RECORD=1`` the figures
are appended to ``BENCH_meet_table.json``.
"""

import time

import numpy as np

from repro.algorithms.kernels import (
    FIRST_RECEIVES,
    NO_TRANSMISSION,
    PENDING,
    SECOND_RECEIVES,
    WaitingGreedyKernel,
)
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.vector_execution import VectorizedExecutor
from repro.sim.runner import (
    build_knowledge_for_random_run,
    build_trial_adversary,
    default_horizon,
)

from bench_utils import machine_fingerprint, record_bench_trajectory

N = 400
SEED = 11
ZIPF = {"exponent": 1.0}
TIMING_ROUNDS = 100
MAX_RATIO = 0.5


def lookup_rule(state, iu, iv, t):
    """Waiting Greedy's directions from two binary-searched lookups."""
    table, tau = state.table, state.tau
    m1, k1 = table.lookup(iu, t)
    m2, k2 = table.lookup(iv, t)
    dirs = np.full(iu.shape[0], PENDING, dtype=np.int8)
    both = k1 & k2
    dirs[both & (m1 <= tau) & (m2 <= tau)] = NO_TRANSMISSION
    dirs[both & (m1 <= m2) & (tau < m2)] = FIRST_RECEIVES
    dirs[both & (m1 > m2) & (tau < m1)] = SECOND_RECEIVES
    dirs[k1 & ~k2] = FIRST_RECEIVES
    dirs[~k1 & k2] = SECOND_RECEIVES
    return dirs


def _decided_blocks(monkeypatch):
    """One zipf trial's kernel state and the ``(iu, iv, t)`` blocks it decided."""
    nodes = list(range(N))
    greedy = WaitingGreedy(tau=optimal_tau(N))
    horizon = default_horizon(greedy, N)
    adversary = build_trial_adversary("zipf", nodes, SEED, horizon, 0, ZIPF)
    knowledge, _ = build_knowledge_for_random_run(
        greedy, adversary, nodes, 0, horizon
    )
    decide = WaitingGreedyKernel.decide_block
    blocks, states = [], []

    def recording(kernel, state, iu, iv, t):
        blocks.append((iu, iv, t))
        states.append(state)
        return decide(kernel, state, iu, iv, t)

    monkeypatch.setattr(WaitingGreedyKernel, "decide_block", recording)
    result = VectorizedExecutor(nodes, 0, greedy, knowledge=knowledge).run(
        adversary, max_interactions=horizon
    )
    monkeypatch.undo()
    assert result.terminated and len(set(map(id, states))) == 1
    return states[0], blocks


def _seconds(rule, state, blocks):
    started = time.perf_counter()
    for iu, iv, t in blocks:
        rule(state, iu, iv, t)
    return time.perf_counter() - started


def test_summaries_decide_in_half_the_time_of_lookups(benchmark, monkeypatch):
    """The kernel decides a zipf trial's blocks in at most half the time."""
    state, blocks = _decided_blocks(monkeypatch)
    kernel = WaitingGreedyKernel()
    for iu, iv, t in blocks:
        assert (
            kernel.decide_block(state, iu, iv, t).tolist()
            == lookup_rule(state, iu, iv, t).tolist()
        )
    candidates = sum(t.shape[0] for _, _, t in blocks)
    after_tau = sum(int((t > state.tau).sum()) for _, _, t in blocks)

    def measure():
        seconds = {"kernel": [], "lookups": []}
        for _ in range(TIMING_ROUNDS):
            seconds["kernel"].append(_seconds(kernel.decide_block, state, blocks))
            seconds["lookups"].append(_seconds(lookup_rule, state, blocks))
        figures = {
            name: round(min(values) / candidates * 1e9, 2)
            for name, values in seconds.items()
        }
        ratios = np.divide(seconds["kernel"], seconds["lookups"])
        figures["ratio"] = round(float(np.median(ratios)), 3)
        return figures

    figures = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)
    print(
        f"\nWaiting Greedy decisions, zipf n = {N}, {len(blocks)} blocks, "
        f"{candidates} candidates ({after_tau} after tau), ns per candidate "
        f"(best of {TIMING_ROUNDS} rounds): kernel {figures['kernel']:.2f}"
        f"   lookup rule {figures['lookups']:.2f}"
        f"   median ratio {figures['ratio']:.3f}"
    )
    benchmark.extra_info["meet_table"] = figures
    record_bench_trajectory(
        "meet_table",
        {
            "n": N,
            "seed": SEED,
            "blocks": len(blocks),
            "candidates": candidates,
            "after_tau": after_tau,
            "rounds": TIMING_ROUNDS,
            "ns_per_candidate": figures,
            "host": machine_fingerprint(),
        },
    )
    assert figures["ratio"] <= MAX_RATIO, (
        f"the summary kernel takes {figures['ratio']} times as long as two "
        f"binary-searched lookups (median of {TIMING_ROUNDS} rounds), more "
        f"than {MAX_RATIO}"
    )
