import cmath
import hashlib
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from spacestates import (
    Generator,
    LocalObservable,
    RewriteRule,
    RuleFileError,
    SpaceState,
    TruncationExceeded,
    Wavefunctional,
    apply_rule,
    evolve,
    expand_reachable,
    find_matches,
    inner_product,
    interference_term,
    norm,
    normalize,
    rul1_dumps,
    rul1_loads,
    ssg1_dumps,
    ssg1_loads,
)
from spacestates import dynamics, spacegraph
from spacestates.corpus import random_space_state
from spacestates.reference import expm_eigh
from spacestates.wavefunctional import PRUNE_TOLERANCE, entry_key

from conftest import count_rule_applications, nine_vertex_pair, path_state, uniform_path


def rabi_pair():
    a = SpaceState.build({0: (1, 1, 0), 1: (2, 1, 0)}, [(0, 1, 1)])
    b = SpaceState.build({0: (1, 2, 0), 1: (2, 2, 0)}, [(0, 1, 1)])
    return a, b


def grow_rule(rule_id=0, coupling=0.8, species=1):
    pattern = SpaceState.build({0: (1, 1, 0)})
    replacement = SpaceState.build({0: (1, 1, 0), 1: (species, 1, 0)}, [(0, 1, 1)])
    return RewriteRule(rule_id, pattern, replacement, coupling)


# ---------------------------------------------------------------------------
# Independent naive enumerator: matches by trying every injective vertex
# tuple, applies by explicit set surgery, closes by repeated scanning.
# ---------------------------------------------------------------------------


def naive_matches(rule, state):
    pat = rule.pattern
    pverts = pat.geometry.vertices
    plabels = {v: pat.fields.get(v).label() for v in pverts}
    slabels = {v: state.fields.get(v).label() for v in state.geometry.vertices}
    pedges = {}
    for u, v, w in pat.geometry.edges:
        pedges[(u, v)] = w
        pedges[(v, u)] = w
    sedges = {}
    for u, v, w in state.geometry.edges:
        sedges[(u, v)] = w
        sedges[(v, u)] = w
    out = []
    for combo in itertools.permutations(state.geometry.vertices, len(pverts)):
        ok = all(plabels[pv] == slabels[sv] for pv, sv in zip(pverts, combo))
        if not ok:
            continue
        for i, pu in enumerate(pverts):
            for j, pv in enumerate(pverts):
                if i < j and pedges.get((pu, pv)) != sedges.get((combo[i], combo[j])):
                    ok = False
        if ok:
            out.append(combo)
    return sorted(out)


def naive_apply(rule, state, match):
    pverts = rule.pattern.geometry.vertices
    rverts = rule.replacement.geometry.vertices
    shared = min(len(pverts), len(rverts))
    site = dict(zip(pverts, match))
    deleted = set(match[shared:])
    matched = set(match)
    adjacency = {v: set() for v in state.geometry.vertices}
    for u, v, _w in state.geometry.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    for d in deleted:
        if adjacency[d] - matched:
            return None
    fields = {v: state.fields.get(v).label() for v in state.geometry.vertices if v not in deleted}
    rep_map = {}
    next_id = max(state.geometry.vertices) + 1
    for i, rv in enumerate(rverts):
        if i < shared:
            rep_map[rv] = match[i]
        else:
            rep_map[rv] = next_id
            next_id += 1
    for rv in rverts:
        fields[rep_map[rv]] = rule.replacement.fields.get(rv).label()
    edges = [
        (u, v, w)
        for u, v, w in state.geometry.edges
        if not (u in matched and v in matched) and u not in deleted and v not in deleted
    ]
    edges += [
        (rep_map[u], rep_map[v], w) for u, v, w in rule.replacement.geometry.edges
    ]
    return SpaceState.build({v: lab for v, lab in fields.items()}, edges, state.cell_index)


def naive_closure(seed_states, rules, cap=200):
    basis = list(seed_states)
    couplings = {}
    changed = True
    while changed:
        changed = False
        for state in list(basis):
            for rule in rules:
                for match in naive_matches(rule, state):
                    result = naive_apply(rule, state, match)
                    if result is None:
                        continue
                    if result not in basis:
                        if len(basis) >= cap:
                            raise AssertionError("oracle cap exceeded")
                        basis.append(result)
                        changed = True
    index = {s: i for i, s in enumerate(basis)}
    dim = len(basis)
    matrix = np.zeros((dim, dim), dtype=complex)
    for state in basis:
        for rule in rules:
            for match in naive_matches(rule, state):
                result = naive_apply(rule, state, match)
                if result is None or result not in index:
                    continue
                i, j = index[state], index[result]
                matrix[i, j] += rule.coupling
                matrix[j, i] += rule.coupling
    return basis, matrix


THREE_RULE_MAX_DIMS = (*range(1, 10), 64)


def three_rule_system():
    seed = SpaceState.build(
        {0: (1, 1, 0), 1: (1, 1, 0), 2: (2, 1, 0), 3: (2, 2, 0)},
        [(0, 1, 1), (1, 2, 1), (2, 3, 2)],
    )
    flip = RewriteRule(
        0,
        SpaceState.build({0: (2, 2, 0)}),
        SpaceState.build({0: (2, 3, 0)}),
        0.4,
    )
    swap = RewriteRule(
        1,
        SpaceState.build({0: (1, 1, 0), 1: (2, 1, 0)}, [(0, 1, 1)]),
        SpaceState.build({0: (2, 1, 0), 1: (1, 1, 0)}, [(0, 1, 1)]),
        0.7,
    )
    # The grown vertex changes matter so the rule cannot refire on its own
    # result, keeping the closure finite for the oracle.
    grow = RewriteRule(
        2,
        SpaceState.build({0: (2, 3, 0)}),
        SpaceState.build({0: (2, 4, 0), 1: (3, 1, 0)}, [(0, 1, 3)]),
        -0.2,
    )
    return seed, [flip, swap, grow]


def shrink_rule():
    """Undoes the three-rule system's grow rule: an edge back to one vertex."""
    return RewriteRule(
        3,
        SpaceState.build({0: (2, 4, 0), 1: (3, 1, 0)}, [(0, 1, 3)]),
        SpaceState.build({0: (2, 2, 0)}),
        0.3,
    )


def assert_matches_naive_enumerator(seed, rules):
    """The closure has 9 states; smaller max_dim values truncate it at every
    possible size, and at each the generator equals the oracle's matrix
    restricted to the truncated basis, and the boundary is the set of basis
    states with a result outside it. Below the closure size truncation is
    refused unless accepted, so only an accepted truncation has a boundary."""
    oracle_basis, oracle_matrix = naive_closure([seed], rules)
    assert len(oracle_basis) == 9
    oracle_index = {s: i for i, s in enumerate(oracle_basis)}
    for max_dim in THREE_RULE_MAX_DIMS:
        psi = Wavefunctional.from_states([(seed, 1.0)])
        gen = expand_reachable(psi, rules, max_dim=max_dim, accept_truncation=max_dim < 9)
        assert gen.dim == min(max_dim, 9)
        if max_dim < 9:
            with pytest.raises(TruncationExceeded):
                expand_reachable(psi, rules, max_dim=max_dim)
        perm = [oracle_index[s] for s in gen.basis]
        restricted = oracle_matrix[np.ix_(perm, perm)]
        assert np.array_equal(gen.matrix, restricted), max_dim
        inside = set(gen.basis)
        leaking = {
            i
            for i, state in enumerate(gen.basis)
            for rule in rules
            for match in naive_matches(rule, state)
            if (result := naive_apply(rule, state, match)) is not None
            and result not in inside
        }
        assert gen.boundary == leaking, max_dim


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def reference_rules():
    return rul1_loads((CONFIG_DIR / "reference_branching.rul").read_text())


def reference_seed():
    """The reference initial state as a freshly loaded (unlabeled) wavefunctional."""
    return Wavefunctional.from_states([(ssg1_loads((CONFIG_DIR / "reference_branching.ssg").read_text()), 1.0)])


def count_label_forms(monkeypatch):
    """Count calls of spacegraph._label_form; returns a one-item list."""
    calls = [0]
    original = spacegraph._label_form

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(spacegraph, "_label_form", counting)
    return calls


def assert_same_as_uncached(gen, *args, **kwargs):
    """gen's basis (as SSG1 text), matrix and boundary equal those of a call
    with the given arguments on an empty expansion memo."""
    dynamics._STRUCTURE_CACHE.clear()
    cold = expand_reachable(*args, **kwargs)
    assert [ssg1_dumps(s) for s in gen.basis] == [ssg1_dumps(s) for s in cold.basis]
    assert np.array_equal(gen.matrix, cold.matrix)
    assert gen.boundary == cold.boundary


def relabeled(state, mapping):
    fields = {mapping[v]: rec.label() for v, rec in state.fields.fields}
    edges = [(mapping[u], mapping[v], w) for u, v, w in state.geometry.edges]
    return SpaceState.build(fields, edges, state.cell_index)


class TestExpandReachable:
    def test_empty_rule_set_gives_zero_matrix(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 0.6), (uniform_path(3), 0.8)])
        gen = expand_reachable(psi, [], max_dim=8)
        assert gen.dim == 2
        assert not gen.matrix.any()

    def test_single_rule_two_level_coupling(self):
        a, b = rabi_pair()
        rule = RewriteRule(0, a, b, 0.5)
        gen = expand_reachable(Wavefunctional.from_states([(a, 1.0)]), [rule], max_dim=4)
        assert gen.dim == 2
        assert np.array_equal(gen.matrix.real, [[0, 0.5], [0.5, 0]])
        assert not gen.matrix.imag.any()

    def test_matches_naive_enumerator_on_three_rule_system(self):
        seed, rules = three_rule_system()
        assert_matches_naive_enumerator(seed, rules)

    def test_matches_naive_enumerator_with_vertex_deleting_rule(self):
        # Undoing the grow rule takes an edge back to one vertex, so the
        # results of a full basis land on vertex and edge counts that basis
        # states hold; counts alone cannot place them outside.
        seed, rules = three_rule_system()
        assert_matches_naive_enumerator(seed, [*rules, shrink_rule()])

    def test_full_basis_labels_no_out_of_size_result(self, monkeypatch):
        # Every reference rule adds a vertex and an edge, so the results of
        # the level expanded after the basis fills have counts that no basis
        # state has. They are boundary applications found without labeling,
        # so only the seed and the 240 results of the earlier levels are
        # labeled.
        calls = count_label_forms(monkeypatch)
        gen = expand_reachable(reference_seed(), reference_rules(), max_dim=96, accept_truncation=True)
        assert calls[0] == 241
        digest = hashlib.sha256(gen.matrix.astype(complex).tobytes())
        digest.update(repr(sorted(gen.boundary)).encode())
        assert digest.hexdigest() == "3dc7bbf6c976190d929a49e7fd2c456964ec66815f18a03845fb5b4b6a1e7cbb"

    def test_reference_300_rung_matches_pinned_digest(self, monkeypatch):
        # Recorded before the expansion moved to small-int forms: the matrix,
        # the boundary and every basis state's SSG1 text, and the labelings.
        calls = count_label_forms(monkeypatch)
        gen = expand_reachable(reference_seed(), reference_rules(), max_dim=300, accept_truncation=True)
        assert calls[0] == 949
        digest = hashlib.sha256(gen.matrix.astype(complex).tobytes())
        digest.update(repr(sorted(gen.boundary)).encode())
        for state in gen.basis:
            digest.update(ssg1_dumps(state).encode())
        assert digest.hexdigest() == "69ada130f12548e7d182c1b2b0998fc5f5a3707b520c193d4325879f9501f20b"

    def test_cold_expansion_builds_only_admitted_states(self, monkeypatch):
        # Results are keyed on their small-int forms, so a graph is built
        # only for each state the basis admits past the seed.
        seed, rules = reference_seed(), reference_rules()
        built = [0]
        original = spacegraph.SpaceGraph.__post_init__

        def counting(graph):
            built[0] += 1
            original(graph)

        monkeypatch.setattr(spacegraph.SpaceGraph, "__post_init__", counting)
        gen = expand_reachable(seed, rules, max_dim=96, accept_truncation=True)
        assert gen.dim == 96
        assert built[0] <= gen.dim - 1

    @pytest.mark.parametrize("case", ("reference", "three_rule_with_shrink", "non_contiguous_seed"))
    def test_preset_keys_match_fresh_labeling(self, case):
        # Admitted states carry the key computed from the expansion's rank
        # table; it must equal the key of a freshly parsed copy, ranked on its
        # own table, and the public apply_rule path must key every result as
        # the form path.
        if case == "reference":
            seed = ssg1_loads((CONFIG_DIR / "reference_branching.ssg").read_text())
            rules, max_dim = reference_rules(), 96
        else:
            seed, rules = three_rule_system()
            rules, max_dim = [*rules, shrink_rule()], 64
            if case == "non_contiguous_seed":
                seed = relabeled(seed, {0: 10, 1: 3, 2: 7, 3: 12})
        gen = expand_reachable(Wavefunctional.from_states([(seed, 1.0)]), rules, max_dim, accept_truncation=True)
        fragments = [f for r in rules for f in (r.pattern, r.replacement)]
        for state in gen.basis:
            assert state.canonical_key == ssg1_loads(ssg1_dumps(state)).canonical_key
            # A table of the seed and every rule fragment, as the expansion's.
            ranks = spacegraph.Ranks([state, *fragments, seed])
            form, *rule_forms, _ = ranks.forms
            for rule, rule_form in zip(rules, zip(rule_forms[::2], rule_forms[1::2])):
                public = [
                    result.canonical_key
                    for match in find_matches(rule, state)
                    if (result := apply_rule(rule, state, match)) is not None
                ]
                forms = dynamics.rule_applications(rule_form, form)
                assert public == [ranks.key(result) for result in forms]

    @pytest.mark.parametrize("case", ("reference", "three_rule_with_shrink"))
    def test_preset_forms_give_the_same_fragments(self, case):
        # Admitted states keep the expansion's form as their own, and their
        # fragments are labeled from it without ranking the state again;
        # they must equal the fragments of a freshly parsed copy.
        if case == "reference":
            seed, rules, max_dim = reference_seed(), reference_rules(), 300
        else:
            seed, rules = three_rule_system()
            seed, rules, max_dim = Wavefunctional.from_states([(seed, 1.0)]), [*rules, shrink_rule()], 64
        gen = expand_reachable(seed, rules, max_dim, accept_truncation=True)
        assert len({id(state._form[0]) for state in gen.basis[1:]}) == 1
        for state in gen.basis:
            fresh = ssg1_loads(ssg1_dumps(state))
            for k_min in (1, 2, 3, 4):
                assert spacegraph.fragment_signatures(state, k_min) == spacegraph.fragment_signatures(fresh, k_min)

    def test_refusal_found_only_by_size_still_raises(self, monkeypatch):
        # At max_dim 3 the seed and the 2 states of level 0 fill the basis;
        # every result of the next level has 4 vertices, so only the seed
        # and the 4 results of level 0 are labeled, yet the next level's
        # results still refuse the truncation.
        calls = count_label_forms(monkeypatch)
        with pytest.raises(TruncationExceeded):
            expand_reachable(reference_seed(), reference_rules(), max_dim=3)
        assert calls[0] == 1 + 4

    @pytest.mark.parametrize("max_dim", THREE_RULE_MAX_DIMS)
    def test_each_basis_state_expanded_once_per_rule(self, monkeypatch, max_dim):
        # A cold call expands each basis state once per rule. A second call
        # on the same rule shapes with other couplings expands nothing: it
        # re-weights the memoized applications, bit for bit as a cold build.
        seed, rules = three_rule_system()
        calls = count_rule_applications(monkeypatch)
        psi = Wavefunctional.from_states([(seed, 1.0)])
        gen = expand_reachable(psi, rules, max_dim=max_dim, accept_truncation=True)
        assert calls[0] == gen.dim * len(rules)

        rejittered = [r.with_coupling(r.coupling * (1.0 + 0.03 * (i + 1))) for i, r in enumerate(rules)]
        warm = expand_reachable(psi, rejittered, max_dim=max_dim, accept_truncation=True)
        assert calls[0] == gen.dim * len(rules)
        assert_same_as_uncached(warm, psi, rejittered, max_dim=max_dim, accept_truncation=True)
        if gen.matrix.any():
            assert not np.array_equal(warm.matrix, gen.matrix)

    def test_truncation_refused_raises(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        with pytest.raises(TruncationExceeded):
            expand_reachable(psi, [grow_rule()], max_dim=3)

    def test_truncation_accepted_marks_boundary(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        gen = expand_reachable(psi, [grow_rule()], max_dim=3, accept_truncation=True)
        assert gen.dim == 3
        assert gen.boundary

    def test_max_dim_must_cover_seed(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 0.6), (uniform_path(3), 0.8)])
        with pytest.raises(ValueError):
            expand_reachable(psi, [], max_dim=1)

    def test_generator_locality(self):
        # Flipping a far-away label must not change couplings at the site.
        rule = RewriteRule(
            0,
            SpaceState.build({0: (1, 1, 0)}),
            SpaceState.build({0: (1, 2, 0)}),
            0.9,
        )
        base = path_state([(1, 1, 0), (2, 1, 0), (3, 1, 0)])
        far_flipped = path_state([(1, 1, 0), (2, 1, 0), (3, 5, 0)])
        gen_a = expand_reachable(Wavefunctional.from_states([(base, 1.0)]), [rule], 8)
        gen_b = expand_reachable(Wavefunctional.from_states([(far_flipped, 1.0)]), [rule], 8)
        assert np.array_equal(gen_a.matrix, gen_b.matrix)


class TestStructureMemo:
    """The memo is keyed on exact structure: vertex identifiers, max_dim and
    accept_truncation all count, couplings do not. A key built from state
    or rule equality would hand an isomorphic input the representatives of
    an earlier one."""

    def test_relabeled_seed_gets_its_own_structure(self, monkeypatch):
        seed, rules = three_rule_system()
        twin = relabeled(seed, {0: 3, 1: 0, 2: 2, 3: 1})
        assert twin == seed and ssg1_dumps(twin) != ssg1_dumps(seed)
        expand_reachable(Wavefunctional.from_states([(seed, 1.0)]), rules, max_dim=64)
        calls = count_rule_applications(monkeypatch)
        psi = Wavefunctional.from_states([(twin, 1.0)])
        gen = expand_reachable(psi, rules, max_dim=64)
        assert calls[0] == gen.dim * len(rules)
        assert ssg1_dumps(gen.basis[0]) == ssg1_dumps(twin)
        assert_same_as_uncached(gen, psi, rules, max_dim=64)

    def test_rule_with_permuted_pattern_vertices_gets_its_own_structure(self, monkeypatch):
        seed, rules = three_rule_system()
        swap = rules[1]
        # Listing the pattern's vertices the other way round keeps the
        # pattern equal as a state but makes the rule map each site to itself.
        permuted = RewriteRule(
            swap.rule_id,
            SpaceState.build({0: (2, 1, 0), 1: (1, 1, 0)}, [(0, 1, 1)]),
            swap.replacement,
            0.3,
        )
        assert permuted.with_coupling(swap.coupling) == swap
        psi = Wavefunctional.from_states([(seed, 1.0)])
        original = expand_reachable(psi, rules, max_dim=64)
        calls = count_rule_applications(monkeypatch)
        changed = [rules[0], permuted, rules[2]]
        gen = expand_reachable(psi, changed, max_dim=64)
        assert calls[0] == gen.dim * len(rules)
        assert not np.array_equal(gen.matrix, original.matrix)
        assert_same_as_uncached(gen, psi, changed, max_dim=64)

    def test_other_max_dim_gets_its_own_structure(self, monkeypatch):
        seed, rules = three_rule_system()
        psi = Wavefunctional.from_states([(seed, 1.0)])
        expand_reachable(psi, rules, max_dim=64, accept_truncation=True)
        calls = count_rule_applications(monkeypatch)
        gen = expand_reachable(psi, rules, max_dim=5, accept_truncation=True)
        assert gen.dim == 5 and calls[0] == 5 * len(rules)
        assert_same_as_uncached(gen, psi, rules, max_dim=5, accept_truncation=True)

    def test_refused_truncation_is_never_memoized(self, monkeypatch):
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        rules = [grow_rule()]
        expand_reachable(psi, rules, max_dim=3, accept_truncation=True)
        for _ in range(3):
            with pytest.raises(TruncationExceeded):
                expand_reachable(psi, rules, max_dim=3)
        # A closure that fits needs no truncation, yet the accepting and
        # the refusing call still keep separate structures.
        seed, rules = three_rule_system()
        psi = Wavefunctional.from_states([(seed, 1.0)])
        expand_reachable(psi, rules, max_dim=9, accept_truncation=True)
        calls = count_rule_applications(monkeypatch)
        gen = expand_reachable(psi, rules, max_dim=9)
        assert calls[0] == 9 * len(rules)
        assert_same_as_uncached(gen, psi, rules, max_dim=9)


class TestApplyRule:
    def test_dangling_deletion_blocked(self):
        # Deleting the middle vertex of a path would orphan its outside edge.
        rule = RewriteRule(
            0,
            SpaceState.build({0: (1, 1, 0), 1: (2, 1, 0)}, [(0, 1, 1)]),
            SpaceState.build({0: (1, 1, 0)}),
            1.0,
        )
        state = path_state([(1, 1, 0), (2, 1, 0), (3, 1, 0)])
        matches = find_matches(rule, state)
        assert matches
        assert all(apply_rule(rule, state, m) is None for m in matches)

    def test_matches_are_induced(self):
        # Pattern is a 2-path; a triangle contains no induced 2-path with an
        # extra edge mismatch, so the only matches carry exact adjacency.
        rule = grow_rule()
        tri = SpaceState.build(
            {0: (1, 1, 0), 1: (1, 1, 0), 2: (1, 1, 0)},
            [(0, 1, 1), (1, 2, 1), (0, 2, 1)],
        )
        pattern_two = RewriteRule(
            0,
            SpaceState.build({0: (1, 1, 0), 1: (1, 1, 0)}, [(0, 1, 1)]),
            SpaceState.build({0: (1, 1, 0), 1: (1, 1, 0)}, [(0, 1, 2)]),
            1.0,
        )
        open_path = path_state([(1, 1, 0), (1, 1, 0), (1, 1, 0)])
        assert len(find_matches(pattern_two, tri)) == 6
        assert len(find_matches(pattern_two, open_path)) == 4

    def test_cell_index_propagates(self):
        rule = grow_rule()
        state = uniform_path(2).with_cell_index((1, 1))
        (match, result), *_ = [(m, apply_rule(rule, state, m)) for m in find_matches(rule, state)]
        assert result.cell_index == (1, 1)


class TestEvolve:
    def test_zero_generator_leaves_state_unchanged(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 0.6), (uniform_path(3), 0.8)])
        gen = expand_reachable(psi, [], max_dim=4)
        out = evolve(psi, gen, dt=0.7, steps=5)
        for key in psi.entries:
            assert cmath.isclose(out.entries[key][1], psi.entries[key][1], abs_tol=1e-12)

    def test_two_level_quarter_period(self):
        a, b = rabi_pair()
        g = 0.5
        rule = RewriteRule(0, a, b, g)
        psi = Wavefunctional.from_states([(a, 1.0)])
        gen = expand_reachable(psi, [rule], max_dim=4)
        out = evolve(psi, gen, dt=math.pi / (2 * g), steps=1)
        assert abs(out.amplitude(a) - 0) <= 1e-10
        assert abs(out.amplitude(b) - (-1j)) <= 1e-10

    def test_norm_drift_under_thousand_steps(self, rng):
        states = []
        seen = set()
        while len(states) < 64:
            s = random_space_state(rng, n_min=4, n_max=7)
            if s.canonical_key not in seen:
                seen.add(s.canonical_key)
                states.append(s)
        nrng = np.random.Generator(np.random.Philox(5))
        a = nrng.normal(size=(64, 64)) + 1j * nrng.normal(size=(64, 64))
        gen = Generator(tuple(states), a + a.conj().T, frozenset())
        psi = normalize(
            Wavefunctional.from_states(zip(states, nrng.normal(size=64) + 1j * nrng.normal(size=64)))
        )
        out = evolve(psi, gen, dt=0.01, steps=1000)
        assert abs(norm(out) - 1.0) < 1e-10

    def test_pairwise_inner_product_preserved(self, rng):
        states = [uniform_path(k + 2) for k in range(6)]
        nrng = np.random.Generator(np.random.Philox(9))
        a = nrng.normal(size=(6, 6)) + 1j * nrng.normal(size=(6, 6))
        gen = Generator(tuple(states), a + a.conj().T, frozenset())
        psi = normalize(Wavefunctional.from_states(zip(states, nrng.normal(size=6) + 0j)))
        phi = normalize(Wavefunctional.from_states(zip(states, nrng.normal(size=6) + 0j)))
        before = inner_product(psi, phi)
        after = inner_product(evolve(psi, gen, 0.1, 50), evolve(phi, gen, 0.1, 50))
        assert abs(before - after) <= 1e-10

    def test_reversibility(self):
        a, b = rabi_pair()
        rule = RewriteRule(0, a, b, 0.8)
        psi = Wavefunctional.from_states([(a, 0.6), (b, 0.8j)])
        gen = expand_reachable(psi, [rule], max_dim=4)
        there = evolve(psi, gen, dt=0.31, steps=7)
        back = evolve(there, gen, dt=-0.31, steps=7)
        for key in psi.entries:
            assert abs(back.entries[key][1] - psi.entries[key][1]) <= 1e-9

    def test_norm_kept_on_truncated_boundary(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        gen = expand_reachable(psi, [grow_rule()], max_dim=3, accept_truncation=True)
        assert gen.boundary
        out = evolve(psi, gen, dt=0.5, steps=10)
        assert abs(norm(out) - 1.0) <= 1e-10

    def test_support_outside_basis_rejected(self):
        psi = Wavefunctional.from_states([(uniform_path(5), 1.0)])
        gen = expand_reachable(Wavefunctional.from_states([(uniform_path(2), 1.0)]), [], 4)
        with pytest.raises(ValueError):
            evolve(psi, gen, 0.1, 1)

    def test_prune_drops_amplitude_at_tolerance_and_keeps_one_above(self):
        # Built directly: from_states would already drop the entry at the
        # tolerance. With no step the amplitudes are read back unchanged.
        states = (uniform_path(2), uniform_path(3), uniform_path(4))
        gen = Generator(states, np.zeros((3, 3)), frozenset())
        above = math.nextafter(PRUNE_TOLERANCE, 1.0)
        amps = (0.6 + 0.8j, complex(PRUNE_TOLERANCE), 1j * above)
        psi = Wavefunctional({entry_key(s): (s, a) for s, a in zip(states, amps)})
        out = evolve(psi, gen, 0.3, 0)
        assert list(out.entries) == [entry_key(states[0]), entry_key(states[2])]
        assert [amp for _state, amp in out.entries.values()] == [amps[0], amps[2]]

    def test_entries_and_index_iterate_in_key_order(self):
        states = (uniform_path(4), uniform_path(2), uniform_path(5), uniform_path(3))
        nrng = np.random.Generator(np.random.Philox(3))
        a = nrng.normal(size=(4, 4))
        gen = Generator(states, a + a.T, frozenset())
        keys = [entry_key(s) for s in states]
        index = gen.index()
        assert list(index) == sorted(keys) != keys
        assert all(keys[i] == key for key, i in index.items())
        out = evolve(Wavefunctional.from_states([(states[0], 1.0)]), gen, 0.2, 3)
        assert list(out.entries) == sorted(keys)
        assert all(out.entries[key][0] is states[i] for key, i in index.items())


class TestPropagator:
    """The Padé propagator against scipy's `expm` and the eigh oracle."""

    @pytest.mark.parametrize("max_dim", [96, 300])
    def test_reference_generator_matches_scipy(self, max_dim):
        gen = expand_reachable(reference_seed(), reference_rules(), max_dim=max_dim, accept_truncation=True)
        assert gen.matrix.dtype == np.float64
        expected = scipy.linalg.expm(-1j * 0.2 * gen.matrix)
        assert np.abs(gen.propagator(0.2) - expected).max() <= 1e-13

    @pytest.mark.parametrize("dt", [0.01, 0.3, 50.0])
    def test_random_hermitian_matches_scipy_and_eigh(self, dt):
        nrng = np.random.Generator(np.random.Philox(64))
        a = nrng.normal(size=(64, 64)) + 1j * nrng.normal(size=(64, 64))
        h = a + a.conj().T
        # The 1-norm of dt * h is about 1.1 at dt 0.01, which needs no
        # scaling; 0.3 and 50 take 3 and 11 squarings.
        scaled = dt * np.abs(h).sum(axis=0).max() > dynamics._THETA13
        assert scaled == (dt != 0.01)
        u = dynamics._exp_hermitian(h, dt)
        assert np.abs(u - scipy.linalg.expm(-1j * dt * h)).max() <= 1e-13
        assert np.abs(u - expm_eigh(h, dt)).max() <= 1e-12

    def test_opposite_step_is_conjugate_transpose(self, monkeypatch):
        gen = expand_reachable(reference_seed(), reference_rules(), max_dim=96, accept_truncation=True)
        steps = []
        exp = dynamics._exp_hermitian
        monkeypatch.setattr(dynamics, "_exp_hermitian", lambda h, t: steps.append(t) or exp(h, t))
        forward = gen.propagator(0.2)
        assert np.array_equal(gen.propagator(-0.2), forward.conj().T)
        assert steps == [0.2]
        assert np.abs(gen.propagator(-0.2) @ forward - np.eye(gen.dim)).max() <= PRUNE_TOLERANCE

    @pytest.mark.parametrize("entry", [math.inf, math.nan, 1e308])
    def test_norm_past_double_precision_gives_nan(self, entry):
        h = np.array([[0.0, entry], [entry, 0.0]])
        assert np.isnan(dynamics._exp_hermitian(h, 0.3)).all()


class TestTaylorAction:
    """The truncated-Taylor action that `evolve` applies from
    `ACTION_MIN_DIM` on, against the eigh oracle and the Padé path."""

    @pytest.mark.parametrize("max_dim", [300, 1000])
    def test_reference_generator_matches_eigh(self, max_dim):
        gen = expand_reachable(reference_seed(), reference_rules(), max_dim=max_dim, accept_truncation=True)
        assert gen.dim == max_dim >= dynamics.ACTION_MIN_DIM
        nrng = np.random.Generator(np.random.Philox(max_dim))
        v = nrng.normal(size=gen.dim) + 1j * nrng.normal(size=gen.dim)
        v /= np.linalg.norm(v)
        for dt in (0.2, -0.2):
            plan = dynamics._taylor_plan(abs(dt) * gen.norm1(), gen.dim)
            assert plan is not None
            assert np.abs(gen.exp_action(v, dt, plan) - expm_eigh(gen.matrix, dt) @ v).max() <= 1e-13

    def test_nonzeros_and_norm_read_off_the_matrix(self):
        gen = expand_reachable(reference_seed(), reference_rules(), max_dim=300, accept_truncation=True)
        rows, cols, vals = gen.nonzeros()
        dense = np.zeros_like(gen.matrix)
        dense[rows, cols] = vals
        assert np.array_equal(dense, gen.matrix)
        assert gen.norm1() == np.abs(gen.matrix).sum(axis=0).max()

    def test_zero_generator_returns_its_input_exactly(self, monkeypatch):
        basis = expand_reachable(reference_seed(), reference_rules(), max_dim=300, accept_truncation=True).basis
        gen = Generator(basis, np.zeros((len(basis), len(basis))), frozenset())
        monkeypatch.setattr(Generator, "propagator", None)  # the action path never calls it
        psi = Wavefunctional.from_states([(basis[0], 0.6), (basis[7], 0.8j), (basis[299], 1e-3)])
        out = evolve(psi, gen, 0.3, 5)
        assert [amp for _state, amp in out.entries.values()] == [amp for _state, amp in psi.entries.values()]

    def test_cost_past_the_dimension_selects_the_propagator(self, monkeypatch):
        gen = expand_reachable(reference_seed(), reference_rules(), max_dim=300, accept_truncation=True)
        steps = []
        propagator = Generator.propagator
        monkeypatch.setattr(Generator, "propagator", lambda g, dt: steps.append(dt) or propagator(g, dt))
        psi = Wavefunctional.from_states([(gen.basis[0], 1.0)])
        evolve(psi, gen, 0.2, 3)
        assert steps == []
        # m * s grows linearly in the norm of dt * H; at dt 50 the cheapest
        # plan needs more products than the basis has states.
        assert dynamics._taylor_plan(50 * gen.norm1(), gen.dim) is None
        out = evolve(psi, gen, 50.0, 1)
        assert steps == [50.0]
        assert abs(norm(out) - 1.0) <= 1e-10

    def test_complex_generator_takes_the_propagator(self, monkeypatch):
        # The action's real operator needs real couplings; a complex
        # Hermitian generator (only ever built by hand) keeps the Padé.
        basis = expand_reachable(reference_seed(), reference_rules(), max_dim=300, accept_truncation=True).basis
        nrng = np.random.Generator(np.random.Philox(7))
        a = nrng.normal(size=(300, 300)) + 1j * nrng.normal(size=(300, 300))
        h = (a + a.conj().T) / 300
        gen = Generator(basis, h, frozenset())
        monkeypatch.setattr(Generator, "exp_action", None)  # never reached
        psi = Wavefunctional.from_states([(basis[0], 1.0)])
        out = evolve(psi, gen, 0.2, 1)
        expected = expm_eigh(h, 0.2)[:, 0]
        index = gen.index()
        assert max(abs(amp - expected[index[key]]) for key, (_state, amp) in out.entries.items()) <= 1e-13

    @pytest.mark.parametrize(
        "norm_, plan",
        [(0.0, (0, 1)), (1e-300, (1, 1)), (2.64, (26, 1)), (3.46, (30, 1)), (9.9, (55, 1)), (19.0, (55, 2))],
    )
    def test_plan_is_the_least_cost_in_the_theta_table(self, norm_, plan):
        m, s = dynamics._taylor_plan(norm_, 2048)
        assert (m, s) == plan
        assert m == 0 or norm_ <= s * dynamics._THETA_TAYLOR[m]

    @pytest.mark.parametrize("norm_", [math.inf, math.nan, 1e300])
    def test_norm_out_of_reach_has_no_plan(self, norm_):
        assert dynamics._taylor_plan(norm_, 2048) is None


class TestInterference:
    def _observable(self, states, offdiag):
        n = len(states)
        m = np.zeros((n, n), dtype=complex)
        for i in range(n):
            m[i, i] = i + 1.0
        for (i, j), val in offdiag.items():
            m[i, j] = val
            m[j, i] = np.conj(val)
        return LocalObservable(tuple(states), m)

    def test_single_basis_state_masked_equals_full(self):
        states = [uniform_path(2), uniform_path(3)]
        obs = self._observable(states, {(0, 1): 0.5})
        psi = Wavefunctional.from_states([(states[0], 1.0)])
        full, masked = interference_term(psi, obs, k_min=2)
        assert full == masked == 1.0

    def test_completely_dissociated_pair_masks_to_diagonal(self):
        a = path_state([(1, 1, 0), (2, 1, 0)])
        b = path_state([(3, 1, 0), (4, 1, 0)])
        obs = self._observable([a, b], {(0, 1): 0.7})
        psi = normalize(Wavefunctional.from_states([(a, 1.0), (b, 1.0)]))
        full, masked = interference_term(psi, obs, k_min=2)
        diagonal = 0.5 * 1.0 + 0.5 * 2.0
        assert masked == pytest.approx(diagonal, abs=1e-15)
        assert full != masked

    def test_globally_associable_pair_masked_equals_full(self):
        a = uniform_path(3)
        b = a.gauge_rotated(Fraction(1, 8))
        obs = self._observable([a, b], {(0, 1): 0.3 + 0.1j})
        psi = normalize(Wavefunctional.from_states([(a, 0.8), (b, 0.6j)]))
        full, masked = interference_term(psi, obs, k_min=2)
        assert abs(full - masked) <= 1e-14

    def test_partial_pair_lies_between_diagonal_and_full(self, rng):
        # Two 4-vertex states sharing a labeled 2-path arm, and two 9-vertex
        # states sharing a 4-vertex region.
        arm_pair = (
            SpaceState.build(
                {0: (1, 1, 0), 1: (2, 1, 0), 2: (5, 1, 0), 3: (5, 2, 0)},
                [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            ),
            SpaceState.build(
                {0: (1, 1, 0), 1: (2, 1, 0), 2: (6, 1, 0), 3: (6, 2, 0)},
                [(0, 1, 1), (1, 2, 2), (2, 3, 2)],
            ),
        )
        from spacestates import classify_associability, AssocKind
        from spacestates.reference import brute_force_common_subgraph_size

        for a, b in (arm_pair, nine_vertex_pair()):
            res = classify_associability(a, b, 2)
            assert res.kind is AssocKind.PARTIALLY_DISSOCIATED
            assert res.overlap_fraction == Fraction(brute_force_common_subgraph_size(a, b), min(a.n, b.n))
            weight = float(res.overlap_fraction)
            obs = self._observable([a, b], {(0, 1): 0.4})
            psi = normalize(Wavefunctional.from_states([(a, 0.8), (b, 0.6)]))
            full, masked = interference_term(psi, obs, k_min=2)
            diagonal = 0.64 * 1.0 + 0.36 * 2.0
            # Direct recomputation with the classified weight.
            cross = 2 * 0.8 * 0.6 * 0.4
            assert full == pytest.approx(diagonal + cross, abs=1e-14)
            assert masked == pytest.approx(diagonal + weight * cross, abs=1e-14)
            assert min(diagonal, full) <= masked <= max(diagonal, full)


class TestRuleFiles:
    def test_round_trip(self):
        a, b = rabi_pair()
        rules = [RewriteRule(0, a, b, 0.5), grow_rule(1, -0.75, species=2)]
        text = rul1_dumps(rules)
        back = rul1_loads(text)
        assert len(back) == 2
        assert rul1_dumps(back) == text
        assert back[0].coupling == 0.5
        assert back[1].coupling == -0.75
        assert back[0].pattern == a
        assert back[0].replacement == b

    def test_bad_header_rejected(self):
        with pytest.raises(RuleFileError):
            rul1_loads("NOPE\n")

    def test_truncated_block_rejected(self):
        a, b = rabi_pair()
        text = rul1_dumps([RewriteRule(0, a, b, 0.5)])
        with pytest.raises(RuleFileError, match="rule on line 2 ends before its 'end' line"):
            rul1_loads(text[: len(text) // 2])

    def test_errors_name_the_line_at_fault(self):
        a, b = rabi_pair()
        lines = rul1_dumps([RewriteRule(0, a, b, 0.5), grow_rule(1, -0.75)]).splitlines()
        second = next(i for i, ln in enumerate(lines) if ln.startswith("rule 1"))
        for i, replacement, message in (
            (second, "rul 1 -0.75", f"bad rule header on line {second + 1}:"),
            (second + 1, "patter", f"expected pattern block on line {second + 2}"),
            (second, "rule x -0.75", f"rule on line {second + 1}: invalid literal"),
            (second + 3, "v 0 1 -1 0", f"rule on line {second + 1}: bad SSG1 record on line {second + 4}:"),
        ):
            broken = lines[:i] + [replacement] + lines[i + 1 :]
            with pytest.raises(RuleFileError, match=re.escape(message)):
                rul1_loads("\n".join(broken))

    def test_disconnected_pattern_rejected(self):
        frag = SpaceState.build({0: (1, 1, 0), 1: (1, 1, 0)})
        with pytest.raises(ValueError, match="pattern fragment must be connected"):
            RewriteRule(0, frag, frag, 1.0)
        # A connected pattern with a disconnected replacement: an edge whose
        # ends come apart.
        edge = SpaceState.build({0: (1, 1, 0), 1: (1, 1, 0)}, [(0, 1, 1)])
        with pytest.raises(ValueError, match="replacement fragment must be connected"):
            RewriteRule(0, edge, frag, 1.0)
