import random

import pytest

from spacestates import SpaceState, branching, dynamics


@pytest.fixture(autouse=True)
def empty_structure_memo():
    """Start and end every test with no memoized expansion or components,
    so that no test depends on which tests ran before it."""
    dynamics._STRUCTURE_CACHE.clear()
    branching._COMPONENT_CACHE.clear()
    yield
    dynamics._STRUCTURE_CACHE.clear()
    branching._COMPONENT_CACHE.clear()


@pytest.fixture
def rng():
    return random.Random(20260808)


def path_state(labels, lengths=None, cell=()):
    """Path graph with per-vertex (species, matter, phase_turns) labels."""
    lengths = lengths or [1] * (len(labels) - 1)
    fields = {i: lab for i, lab in enumerate(labels)}
    edges = [(i, i + 1, lengths[i]) for i in range(len(labels) - 1)]
    return SpaceState.build(fields, edges, cell)


def uniform_path(n, species=1, matter=1, phase=0, length=1, cell=()):
    return path_state([(species, matter, phase)] * n, [length] * (n - 1), cell)


def nine_vertex_pair():
    """Two 9-vertex states, found by a seeded search over random 9-10 vertex
    pairs, whose largest common connected induced subgraph has 4 vertices."""
    a = SpaceState.build(
        {v: (1, 2 if v in (2, 7) else 1, 0) for v in range(9)},
        [(0, 1, 2), (0, 2, 2), (0, 3, 1), (0, 4, 1), (0, 6, 1), (0, 8, 2), (1, 6, 1),
         (3, 5, 2), (3, 7, 2), (4, 7, 2), (5, 8, 2), (6, 7, 2), (6, 8, 1)],
    )
    b = SpaceState.build(
        {v: (1, 2 if v % 2 == 0 else 1, 0) for v in range(9)},
        [(0, 1, 2), (0, 2, 1), (0, 4, 1), (0, 7, 2), (0, 8, 2), (1, 4, 2), (1, 6, 1),
         (2, 3, 1), (2, 5, 2), (3, 5, 1), (3, 6, 1), (3, 7, 1), (6, 8, 1)],
    )
    return a, b


def count_rule_applications(monkeypatch):
    """Count calls of dynamics.rule_applications; returns a one-item list."""
    calls = [0]
    original = dynamics.rule_applications

    def counting(rule, state):
        calls[0] += 1
        return original(rule, state)

    monkeypatch.setattr(dynamics, "rule_applications", counting)
    return calls
