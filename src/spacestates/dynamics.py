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
rule structure and re-weighted for each coupling set. The expansion runs on
`spacegraph` forms: one `Ranks` table of the seed states and the rule
fragments covers every reachable state, and each rule result is keyed from
its form. Only a result the basis admits becomes a validated `SpaceState`
(at `max_dim` 300, 299 of 3,108 results), which keeps that form and key as
its own, so its fragments are labeled without ranking it again. On the
reference config, against building a state per result, this halves the
expansion: 0.22 to 0.11 s at `max_dim` 300 and 0.88 to 0.43 s at 1000, on
2 cores with Python 3.11. Once the basis is full, a result whose vertex and
edge counts no basis state has is outside it by size alone and is not
canonically labeled. Evolution applies the matrix exponential on that
truncated basis in numpy alone, by one of two paths chosen by the basis
size. Below `ACTION_MIN_DIM` (128 states, the measured crossover) it forms
the dense propagator by degree-13 Padé approximation with scaling and
squaring (Higham 2005, the method behind `scipy.linalg.expm`), memoized per
time step and reused for every step. The couplings are real, so the
generator is float64 and every matrix power is a real product; only the
final solve and the squarings are complex. From `ACTION_MIN_DIM` on it
applies exp(-i dt H) to the state vector by the truncated Taylor series of
Al-Mohy & Higham (2011) over the generator's nonzeros (under 6 per row on
the reference config), with no n x n temporary: at `max_dim` 2048 a run
takes 1.3 s and 83 MB against 4.8 s and 628 MB with the propagator (2
cores, 1 BLAS thread). A step whose Taylor plan needs more products than
the basis has states (a large norm of dt H) takes the propagator there
too. The generator's index iterates in entry-key order, so `evolve` reads
its sorted result straight off it, with one pruning mask over the evolved
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .spacegraph import Form, Ranks, SpaceState, classify_cached, ssg1_dumps, ssg1_loads
from .wavefunctional import PRUNE_TOLERANCE, EntryKey, Wavefunctional, entry_key


class TruncationExceeded(Exception):
    """The reachable closure would pass max_dim and truncation was not accepted."""


class RuleFileError(Exception):
    """A rule file could not be parsed."""


class NumericalFailure(Exception):
    """Evolution produced a non-finite or non-unitary state."""


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
            if not Ranks([frag]).forms[0].is_connected():
                raise ValueError(f"{name} fragment must be connected")
            if frag.cell_index != ():
                raise ValueError(f"{name} fragment must have an empty cell index")

    def with_coupling(self, coupling: float) -> "RewriteRule":
        return RewriteRule(self.rule_id, self.pattern, self.replacement, coupling)


def _matches(pattern: Form, state: Form) -> list[tuple[int, ...]]:
    """Every injective induced match of the pattern into the state, as tuples
    of state vertices in pattern vertex order, sorted. Each pattern vertex
    after the first is placed next to an already placed neighbour, and its
    candidates are that neighbour's image's neighbours."""
    pat_adj, adj, labels = pattern.adjacency(), state.adjacency(), state.labels
    order, anchors = [0], [-1]
    while len(order) < len(pat_adj):
        # The pattern is connected, so some unplaced vertex has a placed neighbour.
        v, u = next((v, u) for v in range(len(pat_adj)) if v not in order for u in pat_adj[v] if u in order)
        order.append(v)
        anchors.append(u)

    matches: list[tuple[int, ...]] = []
    mapping = [-1] * len(order)

    def extend(i: int) -> None:
        if i == len(order):
            matches.append(tuple(mapping))
            return
        pv = order[i]
        want = pattern.labels[pv]
        candidates = range(len(labels)) if anchors[i] < 0 else adj[mapping[anchors[i]]]
        for sv in candidates:
            if labels[sv] != want or sv in mapping:
                continue
            if all(pat_adj[pv].get(qv) == adj[sv].get(mapping[qv]) for qv in order[:i]):
                mapping[pv] = sv
                extend(i + 1)
                mapping[pv] = -1

    extend(0)
    return sorted(matches)


def _rewrite(pattern: Form, replacement: Form, state: Form, match: tuple[int, ...]) -> Form | None:
    """Rewrite one matched site; None when a deleted vertex still has edges
    outside the match (the application would dangle). The result numbers
    the kept vertices of the state in order, then the fresh ones."""
    shared = min(len(pattern.labels), len(replacement.labels))
    matched = set(match)
    deleted = set(match[shared:])
    if deleted:
        adj = state.adjacency()
        if any(u not in matched for d in deleted for u in adj[d]):
            return None
    n = len(state.labels)
    labels = list(state.labels) + list(replacement.labels[shared:])
    site = list(match[:shared]) + list(range(n, len(labels)))
    for i in range(shared):
        labels[site[i]] = replacement.labels[i]
    # No edge joins a deleted vertex to an unmatched one, so dropping the
    # edges inside the match drops every edge at a deleted vertex too.
    edges = [e for e in state.edges if e[0] not in matched or e[1] not in matched]
    edges += [(site[i], site[j], rank) for i, j, rank in replacement.edges]
    if deleted:
        kept = [v for v in range(len(labels)) if v not in deleted]
        renumber = {v: i for i, v in enumerate(kept)}
        labels = [labels[v] for v in kept]
        edges = [(renumber[i], renumber[j], rank) for i, j, rank in edges]
    return Form(tuple(labels), tuple(edges))


def find_matches(rule: RewriteRule, state: SpaceState) -> list[tuple[int, ...]]:
    """All injective induced matches of the pattern into the state, as tuples
    of state vertices aligned with the pattern's vertex order. The list is
    sorted, which fixes the site order for generator assembly."""
    pattern, form = Ranks([rule.pattern, state]).forms
    vertices = state.geometry.vertices
    return [tuple(vertices[i] for i in m) for m in _matches(pattern, form)]


def apply_rule(rule: RewriteRule, state: SpaceState, match: tuple[int, ...]) -> SpaceState | None:
    """Rewrite one matched site; returns None when a deleted vertex still has
    edges outside the match (the application would dangle). The result's
    vertices are 0..n-1: the kept vertices of the state in order, then the
    fresh ones."""
    ranks = Ranks([rule.pattern, rule.replacement, state])
    position = {v: i for i, v in enumerate(state.geometry.vertices)}
    site = tuple(position[v] for v in match)
    result = _rewrite(*ranks.forms, site)
    return None if result is None else ranks.state(result, state.cell_index)


def rule_applications(rule: tuple[Form, Form], state: Form) -> list[Form]:
    """Results of every non-dangling application of a rule, given as its
    (pattern, replacement) forms, to a state's form, in sorted match order."""
    pattern, replacement = rule
    out = []
    for match in _matches(pattern, state):
        result = _rewrite(pattern, replacement, state, match)
        if result is not None:
            out.append(result)
    return out


# Degree-13 Padé coefficients, and the largest 1-norm of the exponent that
# they reach to double precision without scaling (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _exp_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for Hermitian h by degree-13 Padé approximation with
    scaling and squaring (Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 2005).

    With b = t h / 2^s, the powers of -i b are real multiples of b's powers,
    so the approximant is (v + i w)^-1 (v - i w) with v and w polynomials in
    b: for real h every product is real. The s squarings amplify rounding
    error about 2^s-fold, so from a 1-norm of 2^53 on no digit of the result
    is right; such a norm, like a non-finite one, gives a NaN result."""
    with np.errstate(over="ignore"):  # an overflowing sum is an infinite norm
        norm = abs(t) * float(np.abs(h).sum(axis=0).max())
    if not norm < 2.0**53:
        return np.full(h.shape, np.nan, dtype=complex)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    c = _PADE13
    b = h * math.ldexp(t, -s)
    eye = np.eye(len(h))
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b4 @ b2
    w = b @ (b6 @ (c[13] * b6 - c[11] * b4 + c[9] * b2) - c[7] * b6 + c[5] * b4 - c[3] * b2 + c[1] * eye)
    v = b6 @ (c[12] * b6 - c[10] * b4 + c[8] * b2) - c[6] * b6 + c[4] * b4 - c[2] * b2 + c[0] * eye
    u = np.linalg.solve(v + 1j * w, v - 1j * w)
    for _ in range(s):
        u = u @ u
    return u


# Al-Mohy & Higham's theta_m for double precision: the largest 1-norm of
# the exponent at which m Taylor terms of exp(A / s), taken s times, meet a
# backward error of 2^-53 ("Computing the action of the matrix exponential",
# SIAM J. Sci. Comput. 2011, Table 3.1; m up to 30 from Higham, "Functions of
# Matrices", Table A.3).
_THETA_TAYLOR = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# Basis size from which `evolve` applies the Taylor action rather than a
# dense propagator. On the reference generator, 6 steps of dt 0.2 and 6 of
# -0.2 took (one propagator and 12 products against 12 actions; 1 BLAS
# thread, best of 15) 1.05 against 2.15 ms at 96, 2.4 against 2.5 ms at
# 128, 4.1 against 2.6 ms at 160, 18 against 4.4 ms at 300, 0.44 s against
# 18 ms at 1000 and 3.2 s against 42 ms at 2048.
ACTION_MIN_DIM = 128


def _taylor_plan(norm: float, dim: int) -> tuple[int, int] | None:
    """The (m, s) of least m * s with norm <= s * theta_m, where norm is the
    1-norm of the exponent; None when the norm is not finite or the least
    cost passes dim, where the dense propagator is the cheaper path. A zero
    norm needs no term, so the action returns its input exactly."""
    # Each theta_m is below m, so m * s > norm: a norm past dim (or a NaN)
    # has no plan within dim.
    if not norm <= dim:
        return None
    if norm == 0.0:
        return 0, 1
    m, s = min(((m, math.ceil(norm / theta)) for m, theta in _THETA_TAYLOR.items()), key=lambda p: p[0] * p[1])
    return (m, s) if m * s <= dim else None


@dataclass(frozen=True)
class Generator:
    """Hermitian coupling matrix on a truncated space-state basis; float64
    when built by `expand_reachable`, since the couplings are real."""

    basis: tuple[SpaceState, ...]
    matrix: np.ndarray
    boundary: frozenset[int]

    def index(self) -> Mapping[EntryKey, int]:
        """Basis position of each entry key, iterating in key order; memoized."""
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = dict(sorted((entry_key(s), i) for i, s in enumerate(self.basis)))
            object.__setattr__(self, "_index", cached)
        return cached

    def propagator(self, dt: float) -> np.ndarray:
        """exp(-i * matrix * dt), memoized per time step. The matrix is
        Hermitian, so a step's propagator is the conjugate transpose of the
        opposite step's, and only the first of the two is computed."""
        cache = self.__dict__.setdefault("_propagators", {})
        u = cache.get(dt)
        if u is None:
            back = cache.get(-dt)
            u = _exp_hermitian(self.matrix, dt) if back is None else back.conj().T
            cache[dt] = u
        return u

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the matrix's nonzero entries in row-major
        order, with the values read off the matrix; memoized."""
        cached = self.__dict__.get("_nonzeros")
        if cached is None:
            rows, cols = np.nonzero(self.matrix)
            cached = (rows, cols, self.matrix[rows, cols])
            object.__setattr__(self, "_nonzeros", cached)
        return cached

    def norm1(self) -> float:
        """The matrix's 1-norm (largest column sum of magnitudes), from its
        nonzeros; memoized."""
        cached = self.__dict__.get("_norm1")
        if cached is None:
            _rows, cols, vals = self.nonzeros()
            with np.errstate(over="ignore"):  # an overflowing sum is an infinite norm
                sums = np.bincount(cols, np.abs(vals), minlength=1)
            cached = float(sums.max())
            object.__setattr__(self, "_norm1", cached)
        return cached

    def exp_action(self, v: np.ndarray, dt: float, plan: tuple[int, int]) -> np.ndarray:
        """exp(-i * matrix * dt) v for a real matrix, by the truncated Taylor
        series of Al-Mohy & Higham (2011): s times, up to m terms of
        exp(-i dt matrix / s), stopping once two successive terms are below
        2^-53 of the sum (each measured by its largest real or imaginary
        part). The vector is carried as its real parts followed by its
        imaginary parts, w = (x, y), on which -i matrix acts as the real
        operator (x, y) -> (matrix y, -matrix x); each product is then one
        gather and one `bincount` over twice the nonzeros, and the dense
        matrix is never touched."""
        m, s = plan
        n = len(v)
        cached = self.__dict__.get("_real_operator")
        if cached is None:
            rows, cols, vals = self.nonzeros()
            cached = (np.concatenate((rows, rows + n)), np.concatenate((cols + n, cols)), np.concatenate((vals, -vals)))
            object.__setattr__(self, "_real_operator", cached)
        rows, cols, vals = cached
        f = np.concatenate((v.real, v.imag))
        for _ in range(s):
            b = f
            c1 = float(np.abs(b).max())
            for j in range(1, m + 1):
                b = np.bincount(rows, vals * b[cols], minlength=2 * n) * (dt / (s * j))
                f = f + b
                c2 = float(np.abs(b).max())
                if c1 + c2 <= 2.0**-53 * float(np.abs(f).max()):
                    break
                c1 = c2
        return f[:n] + 1j * f[n:]

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
    ranks = Ranks([*seed_states, *(f for r in ordered_rules for f in (r.pattern, r.replacement))])
    forms = ranks.forms[: len(seed_states)]
    fragments = ranks.forms[len(seed_states) :]
    rule_forms = list(zip(fragments[::2], fragments[1::2]))
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
        sizes = None if room else {(len(f.labels), len(f.edges)) for f in forms}
        discovered: dict[EntryKey | None, Form] = {}
        for src in range(expanded, len(basis)):
            cell = basis[src].cell_index
            for pos, rule in enumerate(rule_forms):
                for result in rule_applications(rule, forms[src]):
                    if sizes is None or (len(result.labels), len(result.edges)) in sizes:
                        key = (ranks.key(result), cell)
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
                form = discovered[key]
                index[key] = len(basis)
                basis.append(ranks.state(form, key[1], key[0]))
                forms.append(form)

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
    matrix = np.zeros((dim, dim))
    for src, dst, pos in structure.applications:
        matrix[src, dst] += couplings[pos]
        matrix[dst, src] += couplings[pos]
    return Generator(structure.basis, matrix, structure.boundary)


def evolve(psi: Wavefunctional, gen: Generator, dt: float, steps: int) -> Wavefunctional:
    """Apply exp(-i * gen * dt) `steps` times on the truncated basis: by the
    Taylor action on a real generator of at least `ACTION_MIN_DIM` states
    whose plan fits the basis, and by the memoized propagator otherwise.

    A basis has a boundary only when `expand_reachable` accepted truncation,
    so amplitude that reaches the boundary states is evolved, not refused."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    index = gen.index()
    v = np.zeros(gen.dim, dtype=complex)
    for key, (_state, amp) in psi.entries.items():
        i = index.get(key)
        if i is None:
            raise ValueError("wavefunctional support escapes the generator basis")
        v[i] = amp
    if steps > 0 and gen.dim > 0:
        plan = None
        if gen.dim >= ACTION_MIN_DIM and gen.matrix.dtype.kind == "f":
            plan = _taylor_plan(abs(dt) * gen.norm1(), gen.dim)
        if plan is None:
            u = gen.propagator(dt)
            for _ in range(steps):
                v = u @ v
        else:
            for _ in range(steps):
                v = gen.exp_action(v, dt, plan)
        if not np.isfinite(v).all():
            largest = float(np.abs(gen.matrix).max())
            raise NumericalFailure(
                f"evolved amplitudes are not finite (dt {dt!r}, largest |H| entry {largest:.3e})"
            )
    # The index iterates in key order, so the entries come out sorted.
    keep = (np.abs(v) > PRUNE_TOLERANCE).tolist()
    amps = v.tolist()
    basis = gen.basis
    entries = {key: (basis[i], amps[i]) for key, i in index.items() if keep[i]}
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
