"""Unit tests for the non-uniform randomized adversary."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import common_settings

from repro.adversaries.nonuniform import (
    NonUniformRandomizedAdversary,
    _guide_pick,
    _pair_table,
    hub_weights,
    zipf_weights,
)
from repro.algorithms.gathering import Gathering
from repro.core.exceptions import ConfigurationError
from repro.core.execution import Executor
from repro.core.node import NetworkState


@pytest.fixture
def state():
    return NetworkState(list(range(5)), sink=0)


class TestWeightHelpers:
    def test_zipf_weights_decreasing(self):
        weights = zipf_weights(list(range(5)), exponent=1.0)
        values = [weights[i] for i in range(5)]
        assert values == sorted(values, reverse=True)
        assert values[0] == 1.0

    def test_hub_weights(self):
        weights = hub_weights(list(range(4)), hub=2, hub_factor=5.0)
        assert weights[2] == 5.0
        assert weights[0] == 1.0

    def test_hub_must_be_node(self):
        with pytest.raises(ConfigurationError):
            hub_weights([0, 1], hub=9)


class TestNonUniformAdversary:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NonUniformRandomizedAdversary([0])
        with pytest.raises(ConfigurationError):
            NonUniformRandomizedAdversary([0, 1], weights={0: 1.0})
        with pytest.raises(ConfigurationError):
            NonUniformRandomizedAdversary([0, 1], weights={0: 1.0, 1: 0.0})
        for bad, node in itertools.product((math.nan, math.inf, -1.0), (0, 1)):
            weights = {0: 1.0, 1: 1.0, 2: 1.0, node: bad}
            with pytest.raises(ConfigurationError):
                NonUniformRandomizedAdversary([0, 1, 2], weights=weights)
        # Finite weights whose pair products overflow.
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError):
            NonUniformRandomizedAdversary([0, 1, 2], weights={0: 1e200, 1: 1e200, 2: 1.0})

    def test_uniform_weights_give_uniform_pairs(self, state):
        adversary = NonUniformRandomizedAdversary(list(range(5)), seed=1)
        assert adversary.pair_probability(0, 1) == pytest.approx(0.1)

    @pytest.mark.parametrize("n", [5, 400])
    def test_pair_probabilities_sum_to_one(self, n):
        adversary = NonUniformRandomizedAdversary(
            list(range(n)), weights=zipf_weights(list(range(n))), seed=1
        )
        total = sum(
            adversary.pair_probability(u, v)
            for u in range(n)
            for v in range(u + 1, n)
        )
        assert total == pytest.approx(1.0)
        assert adversary.pair_probability(n - 1, 0) == adversary.pair_probability(0, n - 1)

    def test_pair_probability_rejects_non_pairs(self):
        adversary = NonUniformRandomizedAdversary(list(range(5)), seed=1)
        for u, v in ((1, 1), (0, 9), (9, 0), (9, 9)):
            with pytest.raises(ConfigurationError, match="not a pair of distinct nodes"):
                adversary.pair_probability(u, v)

    def test_equal_weights_share_one_read_only_table(self):
        nodes = list(range(30))
        a = NonUniformRandomizedAdversary(nodes, weights=zipf_weights(nodes), seed=1)
        b = NonUniformRandomizedAdversary(nodes, weights=zipf_weights(nodes), seed=2)
        for name in ("_first", "_second", "_cdf", "_guide"):
            shared = getattr(a, name)
            assert shared is getattr(b, name)
            with pytest.raises(ValueError):
                shared[0] = shared[1]
        future_a = np.stack(a.committed_index_block(0, 500))
        future_b = np.stack(b.committed_index_block(0, 500))
        assert not np.array_equal(future_a, future_b)

    def test_hub_pairs_drawn_more_often(self, state):
        adversary = NonUniformRandomizedAdversary(
            list(range(5)),
            weights=hub_weights(list(range(5)), hub=0, hub_factor=10.0),
            seed=3,
        )
        counts = {True: 0, False: 0}
        for t in range(4000):
            interaction = adversary.interaction_at(t, state)
            counts[interaction.involves(0)] += 1
        assert counts[True] > 2.5 * counts[False]

    def test_committed_prefix_matches_replay(self, state):
        adversary = NonUniformRandomizedAdversary(list(range(5)), seed=7)
        played = [adversary.interaction_at(t, state).pair for t in range(40)]
        committed = adversary.committed_prefix(40)
        assert [i.pair for i in committed] == played

    def test_next_meeting_consistency(self):
        adversary = NonUniformRandomizedAdversary(
            list(range(6)), weights=zipf_weights(list(range(6))), seed=4
        )
        t = adversary.next_meeting(3, 0, after=0)
        assert t is not None
        sequence = adversary.committed_prefix(t + 1)
        assert sequence[t].pair == frozenset({3, 0})

    def test_seed_reproducibility(self, state):
        a = NonUniformRandomizedAdversary(list(range(5)), seed=9)
        b = NonUniformRandomizedAdversary(list(range(5)), seed=9)
        assert [a.interaction_at(t, state).pair for t in range(30)] == [
            b.interaction_at(t, state).pair for t in range(30)
        ]

    def test_gathering_terminates_under_skew(self):
        nodes = list(range(12))
        adversary = NonUniformRandomizedAdversary(
            nodes, weights=zipf_weights(nodes), seed=2
        )
        executor = Executor(nodes, 0, Gathering())
        result = executor.run(adversary, max_interactions=40_000)
        assert result.terminated

    def test_max_horizon_respected(self, state):
        adversary = NonUniformRandomizedAdversary(
            list(range(5)), seed=1, max_horizon=10
        )
        assert adversary.interaction_at(10, state) is None
        assert adversary.next_meeting(4, 3, after=9) is None


def _oracle_table(nodes, weights):
    """The pair table as the adversary first built it, in plain Python."""
    index_of = {node: position for position, node in enumerate(nodes)}
    pairs = list(itertools.combinations(nodes, 2))
    pair_weights = [float(weights[u]) * float(weights[v]) for u, v in pairs]
    # A left-to-right total: since Python 3.12, sum() of floats is compensated.
    total = 0.0
    for weight in pair_weights:
        total += weight
    cumulative, running = [], 0.0
    for weight in pair_weights:
        running += weight / total
        cumulative.append(running)
    cumulative[-1] = 1.0
    indices = np.array([(index_of[u], index_of[v]) for u, v in pairs], dtype=np.int64)
    return indices, np.array(cumulative)


class TestPairTable:
    @pytest.mark.parametrize("n", [2, 3, 17, 400])
    @pytest.mark.parametrize("family", ["zipf1.0", "zipf1.7", "hub", "equal"])
    def test_matches_python_construction(self, n, family):
        nodes = list(range(n))[::-1]
        weights = {
            "zipf1.0": zipf_weights(nodes, exponent=1.0),
            "zipf1.7": zipf_weights(nodes, exponent=1.7),
            "hub": hub_weights(nodes, hub=nodes[n // 2], hub_factor=8.0),
            "equal": None,
        }[family]
        adversary = NonUniformRandomizedAdversary(nodes, weights=weights, seed=0)
        indices, cdf = _oracle_table(nodes, weights or dict.fromkeys(nodes, 1.0))
        assert np.array_equal(np.column_stack((adversary._first, adversary._second)), indices)
        assert np.array_equal(adversary._cdf, cdf)

    @common_settings
    @given(
        st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=2, max_size=24),
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=32),
    )
    def test_guide_pick_is_searchsorted(self, exponents, extra):
        weights = tuple(10.0**exponent for exponent in exponents)
        first, second, cdf, guide = _pair_table(weights)
        nodes = list(range(len(weights)))
        indices, oracle_cdf = _oracle_table(nodes, dict(zip(nodes, weights)))
        assert np.array_equal(np.column_stack((first, second)), indices)
        assert np.array_equal(cdf, oracle_cdf)
        buckets = guide.size - 1
        assert buckets & (buckets - 1) == 0 and buckets >= 8 * cdf.size
        needles = np.concatenate([
            [0.0, 1 - 2**-53],
            np.arange(buckets) / buckets,
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0),
            extra,
        ])
        needles = needles[needles < 1.0]
        expected = np.minimum(np.searchsorted(cdf, needles, side="left"), cdf.size - 1)
        assert np.array_equal(_guide_pick(cdf, guide, needles), expected)
