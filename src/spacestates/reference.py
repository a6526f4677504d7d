"""Slow brute-force reference implementations.

These are deliberately independent of the canonical-labeling, fragment
signature, counting and Padé exponential machinery: isomorphism is decided
by backtracking over vertex bijections on the raw structure, common
subgraphs by enumerating connected induced vertex subsets, refinement counts
by materializing every dyadic cell, sampler counts by one inverse-CDF search
over all draws at once, and the propagator by an eigendecomposition.
Branch components and irreversibility are decided pair by pair with these
brute-force tests, not through fragment signatures. `per_epoch_track`
rebuilds, labels and links every epoch's nodes from scratch, where `track`
reuses an epoch's groups while its entry keys stay the same. The
verification suite and the test oracles compare the fast paths against these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .branching import (
    BranchEvent,
    BranchNode,
    BranchTree,
    EmptySupport,
    _assoc_overlap,
    _components,
    _descendants_at,
)
from .macrostates import MacroPartition
from .spacegraph import AssocKind, SpaceState
from .wavefunctional import DensitizedView, EntryKey, Wavefunctional


def _labels(state: SpaceState) -> dict[int, tuple]:
    return {v: state.fields.get(v).label() for v in state.geometry.vertices}


def _edge_map(state: SpaceState) -> dict[tuple[int, int], Fraction]:
    out = {}
    for u, v, length in state.geometry.edges:
        out[(u, v)] = length
        out[(v, u)] = length
    return out


def brute_force_isomorphic(a: SpaceState, b: SpaceState) -> bool:
    """Backtracking search over vertex bijections preserving all labels."""
    if a.n != b.n or len(a.geometry.edges) != len(b.geometry.edges):
        return False
    la, lb = _labels(a), _labels(b)
    ea, eb = _edge_map(a), _edge_map(b)
    verts_a = list(a.geometry.vertices)
    verts_b = list(b.geometry.vertices)

    def extend(i: int, mapping: dict[int, int], used: set[int]) -> bool:
        if i == len(verts_a):
            return True
        v = verts_a[i]
        for w in verts_b:
            if w in used or la[v] != lb[w]:
                continue
            ok = all(ea.get((v, g)) == eb.get((w, h)) for g, h in mapping.items())
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1, mapping, used):
                    return True
                used.discard(w)
                del mapping[v]
        return False

    return extend(0, {}, set())


def _induced(state: SpaceState, subset: tuple[int, ...]) -> SpaceState:
    keep = set(subset)
    edges = [(u, v, w) for u, v, w in state.geometry.edges if u in keep and v in keep]
    fields = {v: tuple(state.fields.get(v).label()) for v in subset}
    return SpaceState.build(
        {v: (s, m, p) for v, (s, m, p) in fields.items()}, edges
    )


def _connected_subsets(state: SpaceState, size: int) -> list[tuple[int, ...]]:
    adj = state.geometry.adjacency()
    out = []
    for subset in combinations(state.geometry.vertices, size):
        keep = set(subset)
        seen = {subset[0]}
        stack = [subset[0]]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in keep and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == size:
            out.append(subset)
    return out


def brute_force_common_subgraph_size(a: SpaceState, b: SpaceState) -> int:
    """Largest common connected induced labeled subgraph, by enumerating
    connected vertex subsets of both graphs and testing isomorphism."""
    la, lb = _labels(a), _labels(b)
    shared = set(la.values()) & set(lb.values())
    if not shared:
        return 0
    for size in range(min(a.n, b.n), 0, -1):
        subs_a = _connected_subsets(a, size)
        subs_b = _connected_subsets(b, size)
        if not subs_a or not subs_b:
            continue
        pieces_a = [(_sorted_labels(la, s), _induced(a, s)) for s in subs_a]
        pieces_b = [(_sorted_labels(lb, s), _induced(b, s)) for s in subs_b]
        for sig_a, frag_a in pieces_a:
            for sig_b, frag_b in pieces_b:
                if sig_a == sig_b and brute_force_isomorphic(frag_a, frag_b):
                    return size
    return 0


def _sorted_labels(labels: dict[int, tuple], subset: tuple[int, ...]) -> tuple:
    return tuple(sorted(labels[v] for v in subset))


def brute_force_globally_associable(a: SpaceState, b: SpaceState) -> bool:
    """Isomorphism up to a constant charged-phase offset, by trying every
    candidate offset between charged vertices of the two states."""
    if brute_force_isomorphic(a, b):
        return True
    ca, cb = a.charged_vertices(), b.charged_vertices()
    if not ca or not cb:
        return False
    offsets = {
        (b.fields.get(w).u1_phase.turns - a.fields.get(v).u1_phase.turns) % 1
        for v in ca
        for w in cb
    }
    return any(brute_force_isomorphic(a.gauge_rotated(delta), b) for delta in offsets)


def brute_force_assoc_kind(a: SpaceState, b: SpaceState, k_min: int) -> AssocKind:
    if brute_force_globally_associable(a, b):
        return AssocKind.GLOBALLY_ASSOCIABLE
    if brute_force_common_subgraph_size(a, b) >= k_min:
        return AssocKind.PARTIALLY_DISSOCIATED
    return AssocKind.COMPLETELY_DISSOCIATED


_PAIR_CACHE: dict[tuple[bytes, bytes], tuple[bool, int]] = {}


def pairwise_associable(a: SpaceState, b: SpaceState, k_min: int) -> bool:
    """Not completely dissociated, by the brute-force global associability
    test and common-subgraph enumeration (memoized per pair of canonical
    keys, for every k_min at once)."""
    ka, kb = sorted((a.canonical_key, b.canonical_key))
    hit = _PAIR_CACHE.get((ka, kb))
    if hit is None:
        hit = (brute_force_globally_associable(a, b), brute_force_common_subgraph_size(a, b))
        _PAIR_CACHE[(ka, kb)] = hit
    return hit[0] or hit[1] >= k_min


def pairwise_components(states: dict[bytes, SpaceState], k_min: int) -> dict[bytes, int]:
    """Connected components of the associability graph over canonical keys,
    testing every pair; ids rank the components by their smallest key."""
    keys = sorted(states)
    parent = {k: k for k in keys}

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for i, ka in enumerate(keys):
        for kb in keys[i + 1 :]:
            ra, rb = find(ka), find(kb)
            if ra != rb and pairwise_associable(states[ka], states[kb], k_min):
                parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(k) for k in keys})
    return {k: roots.index(find(k)) for k in keys}


def pairwise_irreversible(tree: BranchTree, horizon: int) -> list[bool]:
    """For each branch event of `tree`, in order: True when no pair of keys
    from different child branches is associable at any epoch within
    `horizon` epochs after it, testing every cross pair."""
    verdicts = []
    for event in tree.events:
        if event.kind != "branch":
            continue
        children = [tree.node(cid) for cid in event.child_ids]
        reversible = False
        for later in range(event.epoch + 1, min(event.epoch + horizon, tree.epochs - 1) + 1):
            sides = [
                sorted({k[0] for node in _descendants_at(child, later) for k in node.member_keys})
                for child in children
            ]
            reversible = reversible or any(
                pairwise_associable(tree.states[ca], tree.states[cb], tree.k_min)
                for i, side in enumerate(sides)
                for other in sides[i + 1 :]
                for ca in side
                for cb in other
            )
        verdicts.append(not reversible)
    return verdicts


def per_epoch_track(
    psi_series: list[Wavefunctional], partition: MacroPartition, k_min: int = 2
) -> BranchTree:
    """`branching.track` with every epoch done in full: each entry labeled,
    every epoch's nodes grouped afresh and linked to the previous epoch's by
    their overlaps, whether or not the support changed."""
    if not psi_series:
        raise EmptySupport("empty series")
    nodes: list[BranchNode] = []
    events: list[BranchEvent] = []
    states: dict[bytes, SpaceState] = {}
    support: set[bytes] = set()
    previous: list[BranchNode] = []
    roots: list[BranchNode] = []

    for epoch, psi in enumerate(psi_series):
        if len(psi) == 0:
            raise EmptySupport(f"empty support at epoch {epoch}")
        for key in psi.sorted_keys():
            states.setdefault(key[0], psi.entries[key][0])
        ckeys = {key[0] for key in psi.entries}
        if ckeys != support:
            support = ckeys
            comp = _components({ck: states[ck] for ck in support}, k_min)

        grouped: dict[tuple[int, str], list[EntryKey]] = {}
        for key in psi.sorted_keys():
            state = psi.entries[key][0]
            group = (comp[key[0]], partition.label_of(state))
            grouped.setdefault(group, []).append(key)

        current: list[BranchNode] = []
        for (comp_id, label), keys in grouped.items():
            weight = sum(abs(psi.entries[k][1]) ** 2 for k in keys)
            current.append(
                BranchNode(-1, epoch, label, frozenset(keys), weight)
            )
        current.sort(key=BranchNode.sort_signature)
        for node in current:
            node.node_id = len(nodes)
            nodes.append(node)

        if epoch == 0:
            roots.extend(current)
        else:
            for child in current:
                positive: list[tuple[int, BranchNode]] = []
                for parent_node in previous:
                    ov = len(child.member_keys & parent_node.member_keys)
                    if ov > 0:
                        positive.append((ov, parent_node))
                if not positive:
                    # No surviving keys: link by associability overlap instead.
                    for parent_node in previous:
                        ov = _assoc_overlap(child, parent_node, states, k_min)
                        if ov > 0:
                            positive.append((ov, parent_node))
                if not positive:
                    roots.append(child)
                    continue
                # Maximal overlap wins; ties break on canonical key order.
                top = max(ov for ov, _ in positive)
                parent_node = sorted(
                    (p for ov, p in positive if ov == top),
                    key=lambda p: sorted(p.member_keys),
                )[0]
                child.parent = parent_node
                parent_node.children.append(child)
                if len(positive) >= 2:
                    parents = sorted({p.node_id for _, p in positive})
                    events.append(
                        BranchEvent(
                            epoch=epoch,
                            kind="merge",
                            parent_ids=parents,
                            child_ids=[child.node_id],
                            weights=[child.weight],
                        )
                    )
            for parent_node in previous:
                if len(parent_node.children) >= 2:
                    children = sorted(parent_node.children, key=lambda c: c.node_id)
                    events.append(
                        BranchEvent(
                            epoch=epoch,
                            kind="branch",
                            parent_ids=[parent_node.node_id],
                            child_ids=[c.node_id for c in children],
                            weights=[c.weight for c in children],
                        )
                    )
        previous = current

    return BranchTree(nodes, roots, events, len(psi_series), states, k_min)


def expm_eigh(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for Hermitian h as V exp(-i t diag(lambda)) V^H from
    numpy's `eigh`, independent of the propagator's Padé approximant."""
    lam, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * lam)) @ vecs.conj().T


def dense_inner_product(a, b) -> complex:
    """Inner product via explicitly aligned dense vectors over the union of
    the two supports."""
    keys = sorted(set(a.entries) | set(b.entries))
    va = np.array([a.entries.get(k, (None, 0j))[1] for k in keys], dtype=complex)
    vb = np.array([b.entries.get(k, (None, 0j))[1] for k in keys], dtype=complex)
    return complex(np.vdot(va, vb))


# Extra trailing zero bits on every item weight; each bisection consumes at
# most one, so cells halve exactly for any depth up to this many.
HEADROOM_BITS = 64


class CellPiece(NamedTuple):
    key: EntryKey
    lo: int  # interval start on the item's own weight line, in scale units
    weight: int  # interval width, in scale units


@dataclass
class BisectionRefinement:
    """Materialized dyadic refinement: levels[n] holds the 2^n cells at
    depth n, each a list of pieces whose integer weights sum to exactly
    total/2^n. Time and memory grow as 2^depth."""

    depth: int
    scale: int
    levels: list[list[list[CellPiece]]]
    states: dict[EntryKey, SpaceState]

    def cells(self, depth: int) -> list[list[CellPiece]]:
        if not (0 <= depth <= self.depth):
            raise ValueError(f"depth {depth} outside tree depth {self.depth}")
        return self.levels[depth]

    def cell_weight(self, depth: int, i: int) -> Fraction:
        return Fraction(sum(piece.weight for piece in self.cells(depth)[i]), self.scale)

    def total_weight(self, depth: int = 0) -> Fraction:
        return Fraction(
            sum(piece.weight for cell in self.cells(depth) for piece in cell), self.scale
        )

    def count(self, partition: MacroPartition, depth: int) -> tuple[dict[str, int], int]:
        """Cells holding a single label, per label, and the straddling
        cells holding more than one, found by inspecting every cell."""
        labels = {k: partition.label_of(s) for k, s in self.states.items()}
        counts = {labels[piece.key]: 0 for piece in self.levels[0][0]}
        straddlers = 0
        for cell in self.cells(depth):
            present = {labels[piece.key] for piece in cell}
            if len(present) == 1:
                counts[present.pop()] += 1
            elif len(present) > 1:
                straddlers += 1
        return counts, straddlers


def _cut(pieces: list[CellPiece], total: int) -> tuple[list[CellPiece], list[CellPiece]]:
    """Split a sorted piece list into two halves of exactly total//2 and
    total - total//2 weight, cutting at most one boundary piece."""
    half = total // 2
    acc = 0
    idx = 0
    while idx < len(pieces) and acc + pieces[idx].weight <= half:
        acc += pieces[idx].weight
        idx += 1
    left = list(pieces[:idx])
    if acc == half or idx == len(pieces):
        return left, list(pieces[idx:])
    boundary = pieces[idx]
    needed = half - acc
    piece_l = CellPiece(boundary.key, boundary.lo, needed)
    piece_r = CellPiece(boundary.key, boundary.lo + needed, boundary.weight - needed)
    return left + [piece_l], [piece_r] + list(pieces[idx + 1 :])


def bisection_refinement(
    view: DensitizedView, depth_max: int, partition: MacroPartition | None = None
) -> BisectionRefinement:
    """Greedy dyadic bisection of the view's support, every level built.

    Items are ordered macro-label first (when a partition is given), then by
    basis key, as `born.build_refinement` orders them.
    """
    if not (0 <= depth_max <= HEADROOM_BITS):
        raise ValueError(f"depth_max must be in [0, {HEADROOM_BITS}]")
    states = {k: view.entries[k][0] for k in view.sorted_keys()}
    sq_weights = {k: Fraction(view.entries[k][1]) ** 2 for k in states}
    if partition is not None:
        labels = {k: partition.label_of(s) for k, s in states.items()}
        order = sorted(states, key=lambda k: (labels[k], k))
    else:
        order = sorted(states)

    denom = max(sq.denominator for sq in sq_weights.values())
    scale = denom << HEADROOM_BITS
    root = [CellPiece(k, 0, int(sq_weights[k] * scale)) for k in order if sq_weights[k] > 0]
    levels = [[root]]
    for _depth in range(depth_max):
        next_level: list[list[CellPiece]] = []
        for cell in levels[-1]:
            left, right = _cut(cell, sum(piece.weight for piece in cell))
            next_level.append(left)
            next_level.append(right)
        levels.append(next_level)
    return BisectionRefinement(depth_max, scale, levels, states)


def oneshot_draw_counts(probs: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """Per-index counts of `samples` Philox draws from `probs`, all drawn at
    once and located by one `searchsorted` of the whole array, clamped to
    the last index; 8 bytes per sample."""
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.random(samples)
    idx = np.searchsorted(np.cumsum(probs), draws, side="left")
    idx = np.minimum(idx, len(probs) - 1)
    return np.bincount(idx, minlength=len(probs))
