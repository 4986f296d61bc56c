"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.algorithms import kernels
from repro.core.interaction import InteractionSequence
from repro.graph.generators import uniform_random_sequence


@pytest.fixture
def line_nodes():
    """Four nodes on a line with node 0 as the sink."""
    return [0, 1, 2, 3]


@pytest.fixture
def line_sequence_to_sink(line_nodes):
    """A sequence along the line 3-2-1-0 allowing a single-pass convergecast."""
    return InteractionSequence.from_pairs([(3, 2), (2, 1), (1, 0)])


@pytest.fixture
def star_sequence():
    """Each of nodes 1..4 meets the sink 0 once."""
    return InteractionSequence.from_pairs([(1, 0), (2, 0), (3, 0), (4, 0)])


@pytest.fixture
def small_random_sequence():
    """A deterministic uniform-random sequence on 8 nodes, long enough to aggregate."""
    return uniform_random_sequence(list(range(8)), length=400, seed=42)


@pytest.fixture
def rng():
    """A seeded random.Random instance."""
    return random.Random(1234)


@pytest.fixture
def meet_tables(monkeypatch):
    """The Waiting Greedy meet tables the test builds, in build order."""
    tables = []

    class Recorded(kernels.SinkMeetTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(kernels, "SinkMeetTable", Recorded)
    return tables
