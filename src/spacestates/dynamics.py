"""Local dynamics from graph rewrite rules.

A rewrite rule couples two space-states when its pattern fragment matches a
site (an injective induced subgraph match with exact field and edge-length
labels) and the replacement updates that site. Each application contributes
a symmetric coupling between the source and result states, so the assembled
generator is Hermitian by construction. The basis is a breadth-first
closure of the seed support in which each state is expanded once: its rule
applications both discover new states and, once the basis is fixed, give the
generator's coupling pattern. The basis and that pattern depend only on the
rule shapes, not on the coupling strengths, so the expansion is done once per
rule structure and re-weighted for each coupling set. Once the basis is
full, a result whose vertex and edge counts no basis state has is outside it
by size alone and is not canonically labeled. Evolution applies the exact
matrix exponential on that truncated basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .spacegraph import (
    FieldConfig,
    SpaceGraph,
    SpaceState,
    classify_cached,
    ssg1_dumps,
    ssg1_loads,
)
from .wavefunctional import PRUNE_TOLERANCE, EntryKey, Wavefunctional, entry_key

class TruncationExceeded(Exception):
    """The reachable closure would pass max_dim and truncation was not accepted."""


class RuleFileError(Exception):
    """A rule file could not be parsed."""


class NumericalFailure(Exception):
    """Evolution produced a non-finite or non-unitary state."""


def _is_connected(graph: SpaceGraph) -> bool:
    adj = graph.adjacency()
    start = graph.vertices[0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == graph.n


@dataclass(frozen=True)
class RewriteRule:
    """Pattern fragment -> replacement fragment with a real coupling strength.

    Pattern vertices match state vertices whose field labels are exactly
    equal; the match is induced, so edges between matched vertices must agree
    with the pattern (including lengths) and non-edges must be non-edges.
    Pattern vertex i corresponds to replacement vertex i for the shared
    prefix; extra pattern vertices are deleted (only if no outside edges
    dangle), extra replacement vertices are created fresh.
    """

    rule_id: int
    pattern: SpaceState
    replacement: SpaceState
    coupling: float

    def __post_init__(self):
        if not np.isfinite(self.coupling):
            raise ValueError("coupling must be finite")
        for frag, name in ((self.pattern, "pattern"), (self.replacement, "replacement")):
            if not _is_connected(frag.geometry):
                raise ValueError(f"{name} fragment must be connected")
            if frag.cell_index != ():
                raise ValueError(f"{name} fragment must have an empty cell index")

    def with_coupling(self, coupling: float) -> "RewriteRule":
        return RewriteRule(self.rule_id, self.pattern, self.replacement, coupling)


def find_matches(rule: RewriteRule, state: SpaceState) -> list[tuple[int, ...]]:
    """All injective induced matches of the pattern into the state, as tuples
    of state vertices aligned with the pattern's vertex order. The list is
    sorted, which fixes the site order for generator assembly."""
    pat = rule.pattern
    pat_adj = pat.geometry.adjacency()
    st_adj = state.geometry.adjacency()
    pat_fields = pat.fields.as_dict()
    st_fields = state.fields.as_dict()

    order = [pat.geometry.vertices[0]]
    remaining = [v for v in pat.geometry.vertices[1:]]
    while remaining:
        nxt = next(v for v in remaining if any(u in order for u in pat_adj[v]))
        order.append(nxt)
        remaining.remove(nxt)

    matches: list[tuple[int, ...]] = []

    def extend(i: int, mapping: dict[int, int], used: set[int]):
        if i == len(order):
            by_pattern_order = tuple(mapping[v] for v in pat.geometry.vertices)
            matches.append(by_pattern_order)
            return
        pv = order[i]
        want = pat_fields[pv].label()
        for sv in state.geometry.vertices:
            if sv in used or st_fields[sv].label() != want:
                continue
            ok = True
            for qv, qm in mapping.items():
                if pat_adj[pv].get(qv) != st_adj[sv].get(qm):
                    ok = False
                    break
            if ok:
                mapping[pv] = sv
                used.add(sv)
                extend(i + 1, mapping, used)
                used.discard(sv)
                del mapping[pv]

    extend(0, {}, set())
    return sorted(matches)


def apply_rule(rule: RewriteRule, state: SpaceState, match: tuple[int, ...]) -> SpaceState | None:
    """Rewrite one matched site; returns None when a deleted vertex still has
    edges outside the match (the application would dangle)."""
    pat_verts = rule.pattern.geometry.vertices
    rep_verts = rule.replacement.geometry.vertices
    shared = min(len(pat_verts), len(rep_verts))
    matched = set(match)
    site = {pat_verts[i]: match[i] for i in range(len(pat_verts))}
    deleted = {site[pat_verts[i]] for i in range(shared, len(pat_verts))}

    st_adj = state.geometry.adjacency()
    for d in deleted:
        if any(u not in matched for u in st_adj[d]):
            return None

    fields = {v: rec for v, rec in state.fields.fields if v not in deleted}
    rep_fields = rule.replacement.fields.as_dict()
    rep_map: dict[int, int] = {}
    fresh = max(state.geometry.vertices) + 1
    for i, rv in enumerate(rep_verts):
        if i < shared:
            rep_map[rv] = site[pat_verts[i]]
        else:
            rep_map[rv] = fresh
            fresh += 1
    for rv in rep_verts:
        fields[rep_map[rv]] = rep_fields[rv]

    edges = [
        (u, v, w)
        for u, v, w in state.geometry.edges
        if not (u in matched and v in matched) and u not in deleted and v not in deleted
    ]
    for u, v, w in rule.replacement.geometry.edges:
        edges.append((rep_map[u], rep_map[v], w))

    renumber = {v: i for i, v in enumerate(sorted(fields))}
    new_fields = FieldConfig.build({renumber[v]: rec for v, rec in fields.items()})
    new_graph = SpaceGraph.build(
        renumber.values(), [(renumber[u], renumber[v], w) for u, v, w in edges]
    )
    return SpaceState(new_graph, new_fields, state.cell_index)


def rule_applications(rule: RewriteRule, state: SpaceState) -> list[SpaceState]:
    """Results of every non-dangling application, in sorted match order."""
    out = []
    for match in find_matches(rule, state):
        result = apply_rule(rule, state, match)
        if result is not None:
            out.append(result)
    return out


@dataclass(frozen=True)
class Generator:
    """Hermitian coupling matrix on a truncated space-state basis."""

    basis: tuple[SpaceState, ...]
    matrix: np.ndarray
    boundary: frozenset[int]

    def index(self) -> Mapping[EntryKey, int]:
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = {entry_key(s): i for i, s in enumerate(self.basis)}
            object.__setattr__(self, "_index", cached)
        return cached

    def propagator(self, dt: float) -> np.ndarray:
        """exp(-i * matrix * dt), memoized per time step."""
        cache = self.__dict__.setdefault("_propagators", {})
        u = cache.get(dt)
        if u is None:
            u = expm(-1j * dt * self.matrix)
            cache[dt] = u
        return u

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class _Structure:
    """The coupling-free part of an expansion: the basis, the boundary and
    every in-basis application as (src, dst, rule position), in the order
    the breadth-first search made them. Together the applications of rule
    position r are the rule term A_r in coordinate form."""

    basis: tuple[SpaceState, ...]
    boundary: frozenset[int]
    applications: tuple[tuple[int, int, int], ...]


# Expansions keyed by the exact seed and rule structure (vertex identifiers
# included, couplings excluded), so rule sets that differ only in their
# couplings share one expansion.
_STRUCTURE_CACHE: dict[tuple, _Structure] = {}
_STRUCTURE_CACHE_MAX = 64


def _expand_structure(
    seed_states: list[SpaceState],
    ordered_rules: list[RewriteRule],
    max_dim: int,
    accept_truncation: bool,
) -> _Structure:
    basis = list(seed_states)
    index = {entry_key(s): i for i, s in enumerate(basis)}
    found: list[tuple[int, EntryKey | None, int]] = []

    # A full basis stops admitting states, but its last level is still
    # expanded so that its couplings and boundary are recorded. There each
    # result is a basis state or outside. Vertex and edge counts are
    # isomorphism invariants, so a result whose counts no basis state has is
    # outside without being labeled; it is recorded under the key None.
    expanded = 0
    while expanded < len(basis):
        room = max_dim - len(basis)
        sizes = None if room else {(s.n, len(s.geometry.edges)) for s in basis}
        discovered: dict[EntryKey | None, SpaceState] = {}
        for src in range(expanded, len(basis)):
            for pos, rule in enumerate(ordered_rules):
                for result in rule_applications(rule, basis[src]):
                    if sizes is None or (result.n, len(result.geometry.edges)) in sizes:
                        key = entry_key(result)
                    else:
                        key = None
                    found.append((src, key, pos))
                    if key not in index:
                        discovered.setdefault(key, result)
        expanded = len(basis)
        if len(discovered) > room and not accept_truncation:
            raise TruncationExceeded(f"closure exceeds max_dim={max_dim}")
        if room:
            for key in sorted(discovered)[:room]:
                index[key] = len(basis)
                basis.append(discovered[key])

    applications: list[tuple[int, int, int]] = []
    boundary: set[int] = set()
    for src, key, pos in found:
        dst = index.get(key)
        if dst is None:
            boundary.add(src)
        else:
            applications.append((src, dst, pos))
    return _Structure(tuple(basis), frozenset(boundary), tuple(applications))


def expand_reachable(
    seed: Wavefunctional,
    rules: list[RewriteRule],
    max_dim: int,
    accept_truncation: bool = False,
) -> Generator:
    """Breadth-first closure of the seed support under single rule
    applications, truncated at max_dim states. Each BFS level enters the
    basis in canonical-key order, so the basis is deterministic. Every basis
    state is expanded once per rule structure: the expansion is memoized on
    the exact seed states, rule fragments, max_dim and accept_truncation, and
    each call weights its recorded applications with its own couplings. A
    refused truncation is never memoized, so it raises on every call."""
    if len(seed) == 0:
        raise ValueError("seed wavefunctional is empty")
    if max_dim < len(seed):
        raise ValueError("max_dim must cover the seed support")

    ordered_rules = sorted(rules, key=lambda r: r.rule_id)
    seed_states = [seed.entries[k][0] for k in seed.sorted_keys()]
    key = (
        tuple((s.geometry, s.fields, s.cell_index) for s in seed_states),
        tuple(
            (r.rule_id, r.pattern.geometry, r.pattern.fields, r.replacement.geometry, r.replacement.fields)
            for r in ordered_rules
        ),
        max_dim,
        accept_truncation,
    )
    structure = _STRUCTURE_CACHE.get(key)
    if structure is None:
        structure = _expand_structure(seed_states, ordered_rules, max_dim, accept_truncation)
        if len(_STRUCTURE_CACHE) >= _STRUCTURE_CACHE_MAX:
            _STRUCTURE_CACHE.clear()
        _STRUCTURE_CACHE[key] = structure

    # Each application at each site adds one Hermitian term
    # g(|result><source| + |source><result|).
    couplings = [r.coupling for r in ordered_rules]
    dim = len(structure.basis)
    matrix = np.zeros((dim, dim), dtype=complex)
    for src, dst, pos in structure.applications:
        matrix[src, dst] += couplings[pos]
        matrix[dst, src] += couplings[pos]
    return Generator(structure.basis, matrix, structure.boundary)


def evolve(psi: Wavefunctional, gen: Generator, dt: float, steps: int) -> Wavefunctional:
    """Apply exp(-i * gen * dt) `steps` times on the truncated basis.

    A basis has a boundary only when `expand_reachable` accepted truncation,
    so amplitude that reaches the boundary states is evolved, not refused."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    index = gen.index()
    for key in psi.entries:
        if key not in index:
            raise ValueError("wavefunctional support escapes the generator basis")
    v = np.zeros(gen.dim, dtype=complex)
    for key, (state, amp) in psi.entries.items():
        v[index[key]] = amp
    if steps > 0 and gen.dim > 0:
        u = gen.propagator(dt)
        for _ in range(steps):
            v = u @ v
        if not np.isfinite(v).all():
            largest = float(np.abs(gen.matrix).max())
            raise NumericalFailure(
                f"evolved amplitudes are not finite (dt {dt!r}, largest |H| entry {largest:.3e})"
            )
    entries = {}
    for key, i in sorted(index.items()):
        amp = complex(v[i])
        if abs(amp) > PRUNE_TOLERANCE:
            entries[key] = (gen.basis[i], amp)
    return Wavefunctional(entries, psi.epoch + 1)


@dataclass(frozen=True)
class LocalObservable:
    """Hermitian observable on an explicit space-state basis."""

    basis: tuple[SpaceState, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if not np.allclose(m, m.conj().T, atol=0, rtol=0):
            raise ValueError("observable matrix must be exactly Hermitian")
        object.__setattr__(self, "matrix", m)


def interference_term(
    psi: Wavefunctional, obs: LocalObservable, k_min: int = 2
) -> tuple[float, float]:
    """Expectation of the observable with and without dissociation masking.

    The masked value multiplies each cross term by the interference weight of
    the pair: 1 when globally associable, the overlap fraction when partially
    dissociated, 0 when completely dissociated.
    """
    index = {entry_key(s): i for i, s in enumerate(obs.basis)}
    for key in psi.entries:
        if key not in index:
            raise ValueError("wavefunctional support escapes the observable basis")
    v = np.zeros(len(obs.basis), dtype=complex)
    for key, (state, amp) in psi.entries.items():
        v[index[key]] = amp
    full = float(np.vdot(v, obs.matrix @ v).real)

    support = [i for i in range(len(obs.basis)) if v[i] != 0]
    masked = 0.0
    for i in support:
        masked += (abs(v[i]) ** 2) * obs.matrix[i, i].real
    for ai, i in enumerate(support):
        for j in support[ai + 1 :]:
            o = obs.matrix[i, j]
            if o == 0:
                continue
            weight = classify_cached(obs.basis[i], obs.basis[j], k_min).interference_weight
            if weight == 0.0:
                continue
            masked += 2.0 * weight * (v[i].conjugate() * v[j] * o).real
    return full, masked


# ---------------------------------------------------------------------------
# RUL1: versioned rule-file format. Each rule block holds the coupling and
# the pattern and replacement fragments as SSG1 blocks.
# ---------------------------------------------------------------------------


def rul1_dumps(rules: list[RewriteRule]) -> str:
    lines = ["RUL1"]
    for rule in sorted(rules, key=lambda r: r.rule_id):
        lines.append(f"rule {rule.rule_id} {rule.coupling!r}")
        lines.append("pattern")
        lines.append(ssg1_dumps(rule.pattern).rstrip("\n"))
        lines.append("replacement")
        lines.append(ssg1_dumps(rule.replacement).rstrip("\n"))
        lines.append("end")
    return "\n".join(lines) + "\n"


def rul1_loads(text: str) -> list[RewriteRule]:
    """Parse RUL1 text. Errors name the 1-based line of the bad rule header
    or block, and SSG1 errors inside a block the line in the whole text."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    stripped = [ln for ln in lines if ln.strip()]
    if not stripped or stripped[0] != "RUL1":
        raise RuleFileError("missing RUL1 header")
    rules: list[RewriteRule] = []
    i = start = lines.index("RUL1") + 1

    def block(closer: str) -> SpaceState:
        # The SSG1 fragment from line i up to the next `closer` line.
        nonlocal i
        first = i
        while lines[i].strip() != closer:
            i += 1
        i += 1
        return ssg1_loads("\n".join(lines[first : i - 1]), first_line=first + 1)

    try:
        while i < len(lines):
            if not lines[i].strip():
                i += 1
                continue
            start = i
            head = lines[i].split()
            if head[0] != "rule" or len(head) != 3:
                raise RuleFileError(f"bad rule header on line {i + 1}: {lines[i]!r}")
            rule_id, coupling = int(head[1]), float(head[2])
            i += 1
            if lines[i].strip() != "pattern":
                raise RuleFileError(f"expected pattern block on line {i + 1}")
            i += 1
            pattern = block("replacement")
            rules.append(RewriteRule(rule_id, pattern, block("end"), coupling))
    except IndexError:
        raise RuleFileError(f"malformed RUL1 file: rule on line {start + 1} ends before its 'end' line") from None
    except ValueError as exc:
        raise RuleFileError(f"malformed RUL1 file: rule on line {start + 1}: {exc}") from exc
    return rules
