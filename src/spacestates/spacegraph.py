"""Discrete space geometries as labeled graphs.

A space-state is a finite labeled graph (geometry) together with per-vertex
field labels (matter amplitude, U(1) phase, species tag) and an optional
dyadic cell index. All labels are exact rationals, so canonical forms,
isomorphism, and gauge orbits are exact and platform-independent. Phases are
stored as fractions of a full turn; the global U(1) action adds a constant
turn fraction to every charged vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

TWO_PI = 2.0 * math.pi

# Species tag 0 is the neutral species; any other tag carries U(1) charge.
NEUTRAL_SPECIES = 0

# `fragment_signatures` and `common_subgraph_size` refuse a state whose
# C(n, k) candidate k-vertex subsets exceed this, before enumerating any; no
# state of at most 14 vertices reaches it (C(14, 7) = 3432).
FRAGMENT_LIMIT = 5000


def as_fraction(value) -> Fraction:
    """Coerce an exact numeric label to Fraction. Floats are rejected."""
    if isinstance(value, float):
        raise TypeError(f"labels are exact; got float {value!r} (pass Fraction, int, or str)")
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Phase:
    """U(1) angle, stored exactly as a fraction of a full turn in [0, 1)."""

    turns: Fraction

    def __post_init__(self):
        turns = as_fraction(self.turns)
        if turns < 0 or turns >= 1:
            turns %= 1
        object.__setattr__(self, "turns", turns)

    @classmethod
    def from_radians(cls, radians: float) -> "Phase":
        # Fraction(float) is exact, so the resulting turn count is an exact
        # dyadic rational and shift/unshift round-trips are bit-exact.
        return cls(Fraction(radians / TWO_PI))

    @property
    def radians(self) -> float:
        return float(self.turns) * TWO_PI

    def shifted(self, delta_turns: Fraction) -> "Phase":
        return Phase(self.turns + delta_turns)


Edge = tuple[int, int, Fraction]


@dataclass(frozen=True)
class SpaceGraph:
    """Finite undirected graph with non-negative rational edge lengths.

    Vertex identifiers are arbitrary integers and carry no physical meaning;
    edges are stored as (u, v, length) with u < v, sorted.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        verts = tuple(sorted(self.vertices))
        if len(verts) == 0:
            raise ValueError("a space graph needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertex identifiers")
        vert_set = set(verts)
        norm_edges = []
        seen = set()
        for u, v, length in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vert_set or v not in vert_set:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add((a, b))
            length = as_fraction(length)
            if length < 0:
                raise ValueError(f"negative edge length on ({a},{b})")
            norm_edges.append((a, b, length))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(sorted(norm_edges)))

    @classmethod
    def build(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int, object]]) -> "SpaceGraph":
        return cls(tuple(vertices), tuple(edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> dict[int, dict[int, Fraction]]:
        adj: dict[int, dict[int, Fraction]] = {v: {} for v in self.vertices}
        for u, v, length in self.edges:
            adj[u][v] = length
            adj[v][u] = length
        return adj

    def degree_histogram(self) -> tuple[int, ...]:
        adj = self.adjacency()
        return tuple(sorted(len(adj[v]) for v in self.vertices))


@dataclass(frozen=True)
class VertexField:
    """Classical field labels at one vertex."""

    species_tag: int
    matter_amplitude: Fraction
    u1_phase: Phase

    def __post_init__(self):
        matter = as_fraction(self.matter_amplitude)
        if matter < 0:
            raise ValueError("matter_amplitude must be non-negative")
        object.__setattr__(self, "matter_amplitude", matter)
        if not isinstance(self.u1_phase, Phase):
            object.__setattr__(self, "u1_phase", Phase(self.u1_phase))

    @property
    def charged(self) -> bool:
        return self.species_tag != NEUTRAL_SPECIES

    def label(self) -> tuple:
        return (self.species_tag, self.matter_amplitude, self.u1_phase.turns)


@dataclass(frozen=True)
class FieldConfig:
    """Per-vertex field records, keyed by vertex identifier."""

    fields: tuple[tuple[int, VertexField], ...]

    def __post_init__(self):
        entries = tuple(sorted(self.fields))
        if len({v for v, _ in entries}) != len(entries):
            raise ValueError("duplicate vertex in field configuration")
        object.__setattr__(self, "fields", entries)

    @classmethod
    def build(cls, mapping: Mapping[int, VertexField]) -> "FieldConfig":
        return cls(tuple(mapping.items()))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.fields)

    def get(self, vertex: int) -> VertexField:
        for v, rec in self.fields:
            if v == vertex:
                return rec
        raise KeyError(vertex)

    def charged_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, rec in self.fields if rec.charged)

    def rotated(self, delta_turns: Fraction) -> "FieldConfig":
        """Global gauge action: shift every charged vertex's phase by delta."""
        delta = as_fraction(delta_turns)
        out = []
        for v, rec in self.fields:
            if rec.charged:
                rec = VertexField(rec.species_tag, rec.matter_amplitude, rec.u1_phase.shifted(delta))
            out.append((v, rec))
        return FieldConfig(tuple(out))

    def is_homogeneous(self) -> bool:
        records = {rec for _, rec in self.fields}
        return len(records) == 1


@dataclass(frozen=True, eq=False)
class SpaceState:
    """A labeled-graph geometry with its classical fields and cell index.

    Equality and hashing are by canonical form plus cell index, so any
    relabeling of the vertices yields an equal state.
    """

    geometry: SpaceGraph
    fields: FieldConfig
    cell_index: tuple[int, ...] = ()

    def __post_init__(self):
        if self.fields.vertices != self.geometry.vertices:
            raise ValueError("field configuration must cover exactly the graph's vertices")
        cell = tuple(self.cell_index)
        if any(b not in (0, 1) for b in cell):
            raise ValueError("cell_index must be a sequence of bits")
        object.__setattr__(self, "cell_index", cell)

    @classmethod
    def build(
        cls,
        fields: Mapping[int, tuple[int, object, object]],
        edges: Iterable[tuple[int, int, object]] = (),
        cell_index: Sequence[int] = (),
    ) -> "SpaceState":
        """Assemble a state from {vertex: (species, matter, phase_turns)} plus edges."""
        config = FieldConfig.build({v: VertexField(s, m, p) for v, (s, m, p) in fields.items()})
        graph = SpaceGraph.build(fields.keys(), edges)
        return cls(graph, config, tuple(cell_index))

    @property
    def n(self) -> int:
        return self.geometry.n

    @cached_property
    def _form(self) -> tuple["Ranks", "Form"]:
        """The state's form and the table its ranks index: the state's own
        table, unless the state was built from a table that covers it."""
        ranks = Ranks([self])
        return ranks, ranks.forms[0]

    @cached_property
    def canonical_key(self) -> bytes:
        return _label_form(*self._form)

    @cached_property
    def gauge_key(self) -> bytes:
        return _gauge_canonical_bytes(self)

    @cached_property
    def _fragments(self) -> dict[int, frozenset[bytes]]:
        """`fragment_signatures` of this state, by k_min."""
        return {}

    def charged_vertices(self) -> tuple[int, ...]:
        return self.fields.charged_vertices()

    def gauge_rotated(self, delta_turns: Fraction) -> "SpaceState":
        return SpaceState(self.geometry, self.fields.rotated(delta_turns), self.cell_index)

    def with_cell_index(self, cell_index: Sequence[int]) -> "SpaceState":
        twin = SpaceState(self.geometry, self.fields, tuple(cell_index))
        # Forms, keys and fragments ignore the cell index, so the memos carry over.
        for name in ("_form", "canonical_key", "gauge_key", "_fragments"):
            if name in self.__dict__:
                twin.__dict__[name] = self.__dict__[name]
        return twin

    def __eq__(self, other):
        if not isinstance(other, SpaceState):
            return NotImplemented
        return self.cell_index == other.cell_index and self.canonical_key == other.canonical_key

    def __hash__(self):
        return hash((self.canonical_key, self.cell_index))


def canonicalize(state: SpaceState) -> bytes:
    """Canonical byte key: equal for all vertex relabelings of the same
    labeled graph, distinct for non-isomorphic ones. Ignores cell_index."""
    return state.canonical_key


def is_isomorphic(a: SpaceState, b: SpaceState) -> bool:
    """True iff some vertex bijection preserves edges, edge lengths, and all
    vertex field labels exactly (cell indices are ignored)."""
    if a.n != b.n or len(a.geometry.edges) != len(b.geometry.edges):
        return False
    return a.canonical_key == b.canonical_key


def gauge_equivalent(a: SpaceState, b: SpaceState) -> bool:
    """Isomorphic up to a constant phase shift on all charged vertices."""
    if a.n != b.n or len(a.geometry.edges) != len(b.geometry.edges):
        return False
    return a.gauge_key == b.gauge_key


# ---------------------------------------------------------------------------
# Canonical labeling: iterated color refinement with edge labels, followed by
# individualization over the smallest ambiguous color class; the canonical
# form is the minimum byte string over all branches. A state is labeled from
# its `Form`: vertices 0..n-1, and labels and lengths as their ranks in a
# `Ranks` table, which orders them by exact value and holds the text of each.
# Every table that covers a state orders its labels and lengths alike, and
# the text is read only in the leaves, so the key does not depend on the
# table. A state is ranked once: its form is memoized, on its own table or
# on the table of the expansion that built it, and its fragments are labeled
# from that form too. Twin pruning (McKay & Piperno, "Practical graph
# isomorphism II", 2014): twins have the same label and the same neighbours
# and lengths outside the pair, so swapping them is an automorphism that fixes
# every individualized vertex and maps the subtree under one onto the subtree
# under the other. The search skips a twin of a vertex already branched on; a
# star or clique of n vertices takes n nodes.
# ---------------------------------------------------------------------------


def _refine(colors: list[int], adj: list[tuple[tuple[int, int], ...]]) -> list[int]:
    """Refine to a stable coloring, ranked 0..m-1. A vertex is keyed by its
    color and the sorted (length, neighbour color) pairs, each encoded as
    length * base + color with base above every color, which orders them as
    the pairs would. A vertex alone in its color class keeps its place
    whatever its neighbours are, so its key skips them. At least one pass
    runs, so an input such as [1, 3] comes back ranked."""
    n_colors = len(set(colors))
    while True:
        base = max(colors, default=0) + 1
        size = [0] * base
        for color in colors:
            size[color] += 1
        keys = [
            (color, ())
            if size[color] == 1
            else (color, tuple(sorted([length * base + colors[u] for u, length in nbrs])))
            for color, nbrs in zip(colors, adj)
        ]
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ranking[key] for key in keys]
        # A discrete coloring, now ranked, is stable: the next pass is the identity.
        if len(ranking) == n_colors or len(ranking) == len(colors):
            return colors
        n_colors = len(ranking)


def _field_text(rec: VertexField) -> str:
    """The text of a vertex label in canonical forms; it names the exact value."""
    return f"{rec.species_tag},{rec.matter_amplitude},{rec.u1_phase.turns}"


class Form(NamedTuple):
    """A state in small ints: the label rank of vertices 0..n-1, and edges
    (i, j, length rank). Ranks index a `Ranks` table."""

    labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def adjacency(self) -> list[dict[int, int]]:
        adj: list[dict[int, int]] = [{} for _ in self.labels]
        for i, j, rank in self.edges:
            adj[i][j] = adj[j][i] = rank
        return adj

    def is_connected(self) -> bool:
        return bool(_connected_subsets(self.adjacency(), len(self.labels)))


class Ranks:
    """Every vertex label and edge length of some states and rule fragments,
    ranked by exact value, with the text and the value of each beside its
    rank, and `forms`, the form of each of those states in turn. A rule
    application only copies labels and lengths from its source and its
    replacement, so one table built from the seed states and the rule
    fragments covers every state an expansion reaches."""

    def __init__(self, states: Iterable[SpaceState]):
        fields: dict[str, VertexField] = {}
        lengths: dict[str, Fraction] = {}
        texts = []
        for state in states:
            records = [rec for _, rec in state.fields.fields]
            weights = [w for _, _, w in state.geometry.edges]
            label_text = [_field_text(rec) for rec in records]
            length_text = [str(w) for w in weights]
            fields.update(zip(label_text, records))
            lengths.update(zip(length_text, weights))
            texts.append((state, label_text, length_text))
        # A text names its exact value, so the Fractions are only compared, never hashed.
        self.field_text = sorted(fields, key=lambda t: fields[t].label())
        self.length_text = sorted(lengths, key=lengths.__getitem__)
        field_rank = {t: r for r, t in enumerate(self.field_text)}
        length_rank = {t: r for r, t in enumerate(self.length_text)}
        self.fields = [fields[t] for t in self.field_text]
        self.lengths = [lengths[t] for t in self.length_text]
        self.forms: list[Form] = []
        for state, label_text, length_text in texts:
            # Vertices are numbered by position in sorted order.
            position = {v: i for i, v in enumerate(state.geometry.vertices)}
            edges = zip(state.geometry.edges, length_text)
            self.forms.append(
                Form(
                    tuple(field_rank[t] for t in label_text),
                    tuple((position[u], position[v], length_rank[t]) for (u, v, _), t in edges),
                )
            )

    def key(self, form: Form) -> bytes:
        """The canonical key of the form's state."""
        return _label_form(self, form)

    def state(self, form: Form, cell_index: tuple[int, ...], key: bytes | None = None) -> SpaceState:
        """The validated state with vertices 0..n-1 that the form describes.
        It keeps the form on this table as its own, and `key`, the form's
        canonical key when the caller has it, as its canonical key."""
        edges = tuple((i, j, self.lengths[rank]) for i, j, rank in form.edges)
        graph = SpaceGraph(tuple(range(len(form.labels))), edges)
        fields = FieldConfig(tuple((v, self.fields[rank]) for v, rank in enumerate(form.labels)))
        state = SpaceState(graph, fields, cell_index)
        state.__dict__["_form"] = (self, form)
        if key is not None:
            state.__dict__["canonical_key"] = key
        return state


def _label_form(ranks: Ranks, form: Form) -> bytes:
    labels, edges = form
    field_text, length_text = ranks.field_text, ranks.length_text
    adj = form.adjacency()
    pairs = [tuple(nbrs.items()) for nbrs in adj]
    head = [str(len(labels))]

    def leaf(pos: list[int]) -> bytes:
        # A discrete coloring ranks the vertices 0..n-1: color is position.
        # No two edges join the same pair, so the length never breaks a tie.
        order = sorted(range(len(pos)), key=pos.__getitem__)
        lines = sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), rank) for i, j, rank in edges)
        parts = head + [field_text[labels[v]] for v in order]
        parts += [f"{i},{j},{length_text[rank]}" for i, j, rank in lines]
        return ";".join(parts).encode("ascii")

    def twins(u: int, v: int) -> bool:
        nu, nv = adj[u], adj[v]
        return len(nu) == len(nv) and all(w == v or nv.get(w) == r for w, r in nu.items())

    def search(colors: list[int]) -> bytes:
        colors = _refine(colors, pairs)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        if len(cells) == len(colors):
            return leaf(colors)
        # Branch over the smallest ambiguous class; the choice of class is
        # isomorphism-invariant because colors are canonically ranked. A
        # cell never mixes labels, so twins need only the neighbour test.
        ambiguous = (vs for vs in cells.values() if len(vs) > 1)
        target = min(ambiguous, key=lambda vs: (len(vs), colors[vs[0]]))
        best = None
        branched: list[int] = []
        for v in target:
            if any(twins(v, b) for b in branched):
                continue
            branched.append(v)
            child = list(colors)
            child[v] = len(cells)
            cand = search(child)
            if best is None or cand < best:
                best = cand
        return best

    return search(list(labels))


def _gauge_canonical_bytes(state: SpaceState) -> bytes:
    offsets = {rec.u1_phase.turns for _, rec in state.fields.fields if rec.charged}
    if not offsets:
        return state.canonical_key
    # Rotating every charged phase so that some charged vertex sits at zero
    # produces a finite orbit-invariant candidate set; the minimum canonical
    # key over it identifies the gauge class exactly. Offset 0 is the state
    # itself, whose key is usually labeled already.
    return min(
        (state.gauge_rotated(-delta) if delta else state).canonical_key for delta in sorted(offsets)
    )


# ---------------------------------------------------------------------------
# Associability: how much of two geometries can be matched region-to-region.
# ---------------------------------------------------------------------------


class AssocKind(Enum):
    GLOBALLY_ASSOCIABLE = "globally_associable"
    PARTIALLY_DISSOCIATED = "partially_dissociated"
    COMPLETELY_DISSOCIATED = "completely_dissociated"


@dataclass(frozen=True)
class Associability:
    kind: AssocKind
    overlap_fraction: Fraction

    @property
    def interference_weight(self) -> float:
        """Cross-term weight: 1 if globally associable, the overlap fraction
        if partially dissociated, 0 if completely dissociated."""
        if self.kind is AssocKind.GLOBALLY_ASSOCIABLE:
            return 1.0
        if self.kind is AssocKind.COMPLETELY_DISSOCIATED:
            return 0.0
        return float(self.overlap_fraction)


# ---------------------------------------------------------------------------
# Fragment signatures. Every connected graph on at least k vertices has a
# connected induced subgraph on exactly k vertices (drop a leaf of a spanning
# tree until k remain), and an induced subgraph of a common induced subgraph
# is common again. So two states share a connected induced labeled subgraph
# of at least k_min vertices exactly when they share a connected induced
# k_min-vertex fragment, and they are not completely dissociated exactly when
# their signature sets (gauge key plus fragment keys) intersect. For the same
# reason the sizes k at which two states share a fragment run 1, 2, ..., K
# without a gap, and K is their largest common connected induced subgraph.
# ---------------------------------------------------------------------------


class FragmentLimitExceeded(ValueError):
    """Raised when a state has too many candidate k-vertex fragments."""


def check_fragment_count(n: int, k: int, name: str = "k_min") -> None:
    """Raise FragmentLimitExceeded when C(n, k) exceeds FRAGMENT_LIMIT; the
    message calls the fragment size `name`."""
    count = math.comb(n, k)
    if count > FRAGMENT_LIMIT:
        raise FragmentLimitExceeded(
            f"a state of {n} vertices with {name} {k} has C({n}, {k}) = {count} "
            f"candidate fragments, above the limit of {FRAGMENT_LIMIT}"
        )


def _connected_subsets(adj: list[dict[int, int]], k: int) -> list[tuple[int, ...]]:
    """Every connected k-vertex subset (k >= 1), in lexicographic order: each
    of the C(n, k) candidates is tried once, by a search from its smallest
    vertex that stays inside the candidate, so `check_fragment_count` bounds
    the work."""
    out: list[tuple[int, ...]] = []
    for subset in combinations(range(len(adj)), k):
        members = set(subset)
        reached = {subset[0]}
        todo = [subset[0]]
        while todo:
            fresh = (adj[todo.pop()].keys() & members) - reached
            reached |= fresh
            todo.extend(fresh)
        if len(reached) == k:
            out.append(subset)
    return out


def fragment_signatures(state: SpaceState, k_min: int) -> frozenset[bytes]:
    """The state's gauge key (tagged b"g") and the canonical key of every
    connected induced k_min-vertex fragment (tagged b"f"). Fragments of one
    or two vertices are keyed in closed form, the others by trying each of
    the C(n, k_min) candidate subsets. Memoized on the state; raises
    FragmentLimitExceeded before enumerating when C(n, k_min) exceeds
    FRAGMENT_LIMIT, so the limit bounds the work."""
    cached = state._fragments.get(k_min)
    if cached is None:
        if k_min < 1:
            raise ValueError("k_min must be >= 1")
        check_fragment_count(state.n, k_min)
        ranks, form = state._form
        labels, text = form.labels, ranks.field_text
        sigs = {b"g" + state.gauge_key}
        if k_min == 1:
            # The connected fragments of one vertex are the vertices, and of
            # two the edges; their keys are what `_label_form` writes, the
            # lower-ranked label first.
            sigs.update(f"f1;{text[r]}".encode("ascii") for r in labels)
        elif k_min == 2:
            for i, j, rank in form.edges:
                lo, hi = sorted((labels[i], labels[j]))
                sigs.add(f"f2;{text[lo]};{text[hi]};0,1,{ranks.length_text[rank]}".encode("ascii"))
        else:
            for subset in _connected_subsets(form.adjacency(), k_min):
                pos = {v: i for i, v in enumerate(subset)}
                sub_edges = tuple((pos[i], pos[j], r) for i, j, r in form.edges if i in pos and j in pos)
                sigs.add(b"f" + _label_form(ranks, Form(tuple(labels[v] for v in subset), sub_edges)))
        cached = state._fragments[k_min] = frozenset(sigs)
    return cached


def common_subgraph_size(a: SpaceState, b: SpaceState) -> int:
    """Size of the largest common connected induced labeled subgraph: the
    largest k at which the two states share a fragment (tagged b"f"; the
    gauge keys do not count). Exact at any size; raises
    FragmentLimitExceeded, naming the fragment size, when a size the scan
    reaches has more than FRAGMENT_LIMIT candidate fragments."""
    size = 0
    for k in range(1, min(a.n, b.n) + 1):
        check_fragment_count(max(a.n, b.n), k, "fragment size")
        shared = fragment_signatures(a, k) & fragment_signatures(b, k)
        if not any(sig.startswith(b"f") for sig in shared):
            break
        size = k
    return size


def classify_associability(a: SpaceState, b: SpaceState, k_min: int = 2) -> Associability:
    """Classify how two space-states can be matched.

    Globally associable means isomorphic up to a global U(1) phase offset on
    the charged vertices; partially dissociated means a shared connected
    region of at least k_min vertices exists; completely dissociated
    otherwise. Cell indices never enter the classification. Both the
    verdict and the overlap fraction, `common_subgraph_size` over the
    smaller vertex count, are exact at any size: they are read off shared
    fragment signatures.
    """
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    if gauge_equivalent(a, b):
        return Associability(AssocKind.GLOBALLY_ASSOCIABLE, Fraction(1))
    if fragment_signatures(a, k_min).isdisjoint(fragment_signatures(b, k_min)):
        kind = AssocKind.COMPLETELY_DISSOCIATED
    else:
        kind = AssocKind.PARTIALLY_DISSOCIATED
    return Associability(kind, Fraction(common_subgraph_size(a, b), min(a.n, b.n)))


_ASSOC_CACHE: dict[tuple, Associability] = {}
_ASSOC_CACHE_MAX = 200_000


def classify_cached(a: SpaceState, b: SpaceState, k_min: int = 2) -> Associability:
    """Memoized classify_associability; the result depends only on the two
    canonical keys (symmetrically) and k_min."""
    ka, kb = a.canonical_key, b.canonical_key
    key = (ka, kb, k_min) if ka <= kb else (kb, ka, k_min)
    hit = _ASSOC_CACHE.get(key)
    if hit is None:
        if len(_ASSOC_CACHE) >= _ASSOC_CACHE_MAX:
            _ASSOC_CACHE.clear()
        hit = classify_associability(a, b, k_min)
        _ASSOC_CACHE[key] = hit
    return hit


# ---------------------------------------------------------------------------
# SSG1: versioned text serialization for a labeled graph with fields.
# Phases are written as exact fractions of a full turn.
# ---------------------------------------------------------------------------


def ssg1_dumps(state: SpaceState) -> str:
    lines = ["SSG1"]
    for v, rec in state.fields.fields:
        lines.append(f"v {v} {rec.species_tag} {rec.matter_amplitude} {rec.u1_phase.turns}")
    for u, v, length in state.geometry.edges:
        lines.append(f"e {u} {v} {length}")
    return "\n".join(lines) + "\n"


# The longest SSG1 number, and the largest exponent, that is parsed: building
# Fraction('1e10000000') takes seconds, and str() raises past 4300 digits.
NUMBER_LIMIT = 1000


def _number(token: str) -> Fraction:
    exponent = token.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if len(token) > NUMBER_LIMIT or (exponent.isdigit() and int(exponent) > NUMBER_LIMIT):
        raise ValueError(f"number longer than {NUMBER_LIMIT} characters or with an exponent above it")
    return Fraction(token)


def ssg1_loads(text: str, first_line: int = 1) -> SpaceState:
    """Parse SSG1 text. Errors name the 1-based line of the bad record,
    counting the first line of `text` as line `first_line`."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), first_line) if ln.strip()]
    if not lines or lines[0][1].strip() != "SSG1":
        raise ValueError(f"missing SSG1 header on line {lines[0][0] if lines else first_line}")
    fields: dict[int, VertexField] = {}
    edges: list[tuple[int, int, Fraction]] = []
    edge_at: list[str] = []
    for n, ln in lines[1:]:
        parts = ln.split()
        at = f"on line {n}: {ln!r}"
        try:
            if parts[0] == "e" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), _number(parts[3])))
                edge_at.append(at)
                continue
            if parts[0] != "v" or len(parts) != 5:
                raise ValueError("not a 'v' or 'e' record")
            vertex = int(parts[1])
            record = VertexField(int(parts[2]), _number(parts[3]), _number(parts[4]))
        except (ValueError, ZeroDivisionError) as exc:
            detail = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise ValueError(f"bad SSG1 record {at} ({detail})") from None
        if vertex in fields:
            raise ValueError(f"duplicate SSG1 vertex {vertex} {at}")
        fields[vertex] = record
    if not fields:
        raise ValueError(f"SSG1 block headed on line {lines[0][0]} has no 'v' record")
    try:
        graph = SpaceGraph.build(fields, edges)
    except ValueError:
        # Charge a graph-level fault (unknown vertex, self-loop, duplicate
        # edge, negative length) to the first edge record that exposes it.
        for k, at in enumerate(edge_at):
            try:
                SpaceGraph.build(fields, edges[: k + 1])
            except ValueError as exc:
                raise ValueError(f"bad SSG1 record {at} ({exc})") from None
        raise
    return SpaceState(graph, FieldConfig.build(fields))
