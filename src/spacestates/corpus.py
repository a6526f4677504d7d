"""Seeded random space-states and wavefunctionals for verification runs."""

from __future__ import annotations

import random
from fractions import Fraction

from .spacegraph import SpaceState
from .wavefunctional import Wavefunctional, normalize


def random_space_state(
    rng: random.Random,
    n_min: int = 3,
    n_max: int = 8,
    species: tuple[int, ...] = (1, 2, 3),
    connected: bool = True,
) -> SpaceState:
    n = rng.randint(n_min, n_max)
    fields = {
        v: (
            rng.choice(species),
            Fraction(rng.randint(0, 4)),
            Fraction(rng.randrange(8), 8),
        )
        for v in range(n)
    }
    edges = []
    present = set()
    if connected:
        for v in range(1, n):
            u = rng.randrange(v)
            edges.append((u, v, Fraction(rng.randint(0, 3))))
            present.add((u, v))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if (u, v) in present:
            continue
        present.add((u, v))
        edges.append((u, v, Fraction(rng.randint(0, 3))))
    return SpaceState.build(fields, edges)


def random_relabeling(rng: random.Random, state: SpaceState) -> SpaceState:
    """The same labeled graph under a random vertex permutation."""
    verts = list(state.geometry.vertices)
    perm = verts[:]
    rng.shuffle(perm)
    mapping = dict(zip(verts, perm))
    fields = {mapping[v]: state.fields.get(v) for v in verts}
    edges = [(mapping[u], mapping[v], w) for u, v, w in state.geometry.edges]
    from .spacegraph import FieldConfig, SpaceGraph

    return SpaceState(
        SpaceGraph.build(fields.keys(), edges), FieldConfig.build(fields), state.cell_index
    )


def random_wavefunctional(rng: random.Random, n_entries: int = 8) -> Wavefunctional:
    """A normalized wavefunctional on `n_entries` distinct random states,
    each with at least one charged vertex."""
    pairs = []
    seen = set()
    while len(pairs) < n_entries:
        state = random_space_state(rng)
        if not state.charged_vertices():
            continue
        key = (state.canonical_key, state.cell_index)
        if key in seen:
            continue
        seen.add(key)
        amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(amp) < 1e-3:
            amp = 1.0 + 0j
        pairs.append((state, amp))
    return normalize(Wavefunctional.from_states(pairs))
