import hashlib
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacestates import (
    AssocKind,
    Phase,
    SpaceGraph,
    SpaceState,
    Wavefunctional,
    canonicalize,
    classify_associability,
    common_subgraph_size,
    expand_reachable,
    gauge_equivalent,
    is_isomorphic,
    normalize,
    rul1_loads,
    spacegraph,
    ssg1_dumps,
    ssg1_loads,
)
from spacestates.corpus import random_relabeling, random_space_state
from spacestates.reference import _connected_subsets as reference_connected_subsets
from spacestates.reference import _induced
from spacestates.reference import (
    brute_force_assoc_kind,
    brute_force_common_subgraph_size,
    brute_force_isomorphic,
)

from conftest import nine_vertex_pair, path_state, uniform_path


class TestSpaceGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SpaceGraph.build([0, 1], [(0, 0, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            SpaceGraph.build([0, 1], [(0, 1, 1), (1, 0, 2)])

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="negative"):
            SpaceGraph.build([0, 1], [(0, 1, -1)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            SpaceGraph.build([], [])

    def test_rejects_float_labels(self):
        with pytest.raises(TypeError, match="exact"):
            SpaceGraph.build([0, 1], [(0, 1, 0.5)])

    def test_zero_lengths_allowed(self):
        g = SpaceGraph.build([0, 1], [(0, 1, 0)])
        assert g.edges[0][2] == 0


class TestCanonicalKey:
    def test_relabeling_of_path_gives_identical_key(self):
        a = path_state([(1, 1, 0)] * 3, [1, 2])
        b = SpaceState.build(
            {0: (1, 1, 0), 1: (1, 1, 0), 2: (1, 1, 0)}, [(2, 1, 1), (1, 0, 2)]
        )
        assert canonicalize(a) == canonicalize(b)

    def test_changing_one_edge_length_changes_key(self):
        a = path_state([(1, 1, 0)] * 3, [1, 2])
        b = path_state([(1, 1, 0)] * 3, [3, 2])
        assert canonicalize(a) != canonicalize(b)

    def test_key_ignores_cell_index(self):
        a = uniform_path(3)
        assert canonicalize(a) == canonicalize(a.with_cell_index((0, 1)))

    def test_key_agrees_with_permutation_oracle_on_1000_random_pairs(self, rng):
        # Half the pairs are planted relabelings, half independent draws.
        for trial in range(1000):
            a = random_space_state(rng, n_min=3, n_max=8)
            if trial % 2 == 0:
                b = random_relabeling(rng, a)
            else:
                b = random_space_state(rng, n_min=3, n_max=8)
            assert (canonicalize(a) == canonicalize(b)) == brute_force_isomorphic(a, b)

    def test_key_invariant_under_sampled_permutations(self, rng):
        for _ in range(40):
            a = random_space_state(rng, n_min=4, n_max=8)
            key = canonicalize(a)
            for _ in range(5):
                assert canonicalize(random_relabeling(rng, a)) == key

    def test_exhaustive_on_all_four_vertex_uniform_graphs(self):
        # Every pair among all 64 edge subsets on 4 uniform-label vertices;
        # uniform labels give the refinement nothing to work with, so this
        # exercises the individualization search exhaustively.
        import itertools

        fields = {v: (1, 1, 0) for v in range(4)}
        all_edges = list(itertools.combinations(range(4), 2))
        graphs = []
        for mask in range(64):
            edges = [(u, v, 1) for i, (u, v) in enumerate(all_edges) if mask >> i & 1]
            graphs.append(SpaceState.build(fields, edges))
        for i in range(64):
            for j in range(i, 64):
                fast = canonicalize(graphs[i]) == canonicalize(graphs[j])
                assert fast == brute_force_isomorphic(graphs[i], graphs[j])

    def test_symmetric_graphs_get_exact_keys(self):
        # A 6-cycle with uniform labels forces the individualization search.
        fields = {v: (1, 1, 0) for v in range(6)}
        cyc = SpaceState.build(fields, [(v, (v + 1) % 6, 1) for v in range(6)])
        rotated = SpaceState.build(fields, [((v + 2) % 6, (v + 3) % 6, 1) for v in range(6)])
        assert canonicalize(cyc) == canonicalize(rotated)
        chord = SpaceState.build(
            fields, [(v, (v + 1) % 6, 1) for v in range(5)] + [(0, 2, 1)]
        )
        assert canonicalize(cyc) != canonicalize(chord)



def uniform_graph(n, edges, species=None):
    """n vertices labeled (1, 1, 0), or (species[v], 1, 0), joined by edges."""
    species = species or [1] * n
    return SpaceState.build({v: (species[v], 1, 0) for v in range(n)}, edges)


def star(k, leaf_species=(1,), leaf_lengths=(1,)):
    """Hub 0 with k leaves; leaf i cycles through the given species and lengths."""
    species = [1] + [leaf_species[i % len(leaf_species)] for i in range(k)]
    edges = [(0, i + 1, leaf_lengths[i % len(leaf_lengths)]) for i in range(k)]
    return uniform_graph(k + 1, edges, species)


def clique(k):
    return uniform_graph(k, [(i, j, 1) for i in range(k) for j in range(i)])


def twin_heavy_corpus():
    graphs = []
    for k in range(2, 10):
        graphs += [star(k), star(k, leaf_species=(1, 2)), star(k, leaf_lengths=(1, 2))]
    graphs += [clique(k) for k in range(3, 10)]
    graphs.append(uniform_graph(6, [(i, j, 1) for i in range(3) for j in range(3, 6)]))  # K_{3,3}
    # The prism is 3-regular on 6 vertices like K_{3,3}, but has no twins.
    triangles = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)]
    graphs.append(uniform_graph(6, triangles + [(i, i + 3, 1) for i in range(3)]))
    graphs += [uniform_graph(n, [(i, i + 1, 1) for i in range(n - 1)]) for n in range(2, 10)]
    graphs += [uniform_graph(n, [(i, (i + 1) % n, 1) for i in range(n)]) for n in range(3, 10)]
    # A triangle beside a square: refinement leaves one cell of 7 that holds
    # two orbits, so pruning any non-twin there would change the key.
    square = [(3 + i, 3 + (i + 1) % 4, 1) for i in range(4)]
    graphs.append(uniform_graph(7, [(0, 1, 1), (1, 2, 1), (0, 2, 1)] + square))
    return graphs


def count_refinements(monkeypatch, limit):
    """Count calls of spacegraph._refine, one per search node; returns a
    one-item list. Fails as soon as the count passes `limit`, so that a
    search of n! nodes fails at once instead of running for minutes."""
    calls = [0]
    original = spacegraph._refine

    def counting(colors, adj):
        calls[0] += 1
        assert calls[0] <= limit, f"more than {limit} search nodes"
        return original(colors, adj)

    monkeypatch.setattr(spacegraph, "_refine", counting)
    return calls


class TestTwinPruning:
    def test_twin_heavy_keys_agree_with_permutation_oracle(self):
        small = [g for g in twin_heavy_corpus() if g.n <= 7]
        for i, a in enumerate(small):
            for b in small[i:]:
                assert (canonicalize(a) == canonicalize(b)) == brute_force_isomorphic(a, b)

    def test_twin_heavy_keys_invariant_under_relabeling(self, rng):
        for state in twin_heavy_corpus():
            key = canonicalize(state)
            for _ in range(20):
                assert canonicalize(random_relabeling(rng, state)) == key

    @pytest.mark.parametrize("name, state", [("star-9", star(9)), ("K9", clique(9))])
    def test_search_nodes_at_most_vertex_count(self, monkeypatch, name, state):
        # Without twin pruning both take n! leaves; counting nodes keeps the
        # check independent of host speed.
        expected = canonicalize(random_relabeling(random.Random(9), state))
        calls = count_refinements(monkeypatch, limit=state.n)
        assert ssg1_loads(ssg1_dumps(state)).canonical_key == expected
        assert calls[0] >= 1


def tuple_refine(colors, adj):
    """Color refinement keyed by (color, sorted (length, neighbour color)
    pairs) until the number of colors stops growing, ranked 0..m-1."""
    n_colors = len(set(colors))
    while True:
        keys = [(c, tuple(sorted((length, colors[u]) for u, length in nbrs))) for c, nbrs in zip(colors, adj)]
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ranking[key] for key in keys]
        if len(ranking) == n_colors:
            return colors
        n_colors = len(ranking)


class TestRefine:
    def test_discrete_input_comes_back_ranked(self):
        assert spacegraph._refine([1, 3], [((1, 0),), ((0, 0),)]) == [0, 1]

    def test_matches_tuple_keyed_refinement(self):
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 9)
            adj = [{} for _ in range(n)]
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    adj[u][v] = adj[v][u] = rng.randint(0, 3)
            pairs = [tuple(nbrs.items()) for nbrs in adj]
            # Colors past n, as a fragment's parent label ranks can be.
            colors = [rng.choice((0, 2, 5, 3 * n + 7)) for _ in range(n)]
            assert spacegraph._refine(colors, pairs) == tuple_refine(colors, pairs)


def key_digest(states):
    """SHA-256 over the sorted canonical keys, then the sorted gauge keys."""
    digest = hashlib.sha256()
    for key in sorted(s.canonical_key for s in states):
        digest.update(key + b"\n")
    for key in sorted(s.gauge_key for s in states):
        digest.update(key + b"\n")
    return digest.hexdigest()


class TestPinnedKeys:
    # Digests recorded before canonical labeling moved to int ranks and twin
    # pruning; the key bytes themselves, not only the shipped artifacts, must
    # not move.
    def test_random_corpus_keys_match_pinned_digest(self):
        rng = random.Random(6)
        states = [
            random_space_state(rng, n_min=1, n_max=10, species=(0, 1, 2), connected=i % 2 == 0)
            for i in range(500)
        ]
        assert key_digest(states) == "1dea05523db6e866ff2e41bfe882d62d0d753e1e8e8213a0c3530bda0857b9a4"

    def test_reference_basis_keys_match_pinned_digest(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        initial = ssg1_loads((configs / "reference_branching.ssg").read_text())
        rules = rul1_loads((configs / "reference_branching.rul").read_text())
        psi0 = normalize(Wavefunctional.from_states([(initial, 1.0 + 0j)]))
        basis = expand_reachable(psi0, rules, 96, True).basis
        assert len(basis) == 96
        assert key_digest(basis) == "eecec9ec13448eeea99f2b3e94cdfec8e4d43f2e73820a45123726d09a7c6501"

class TestIsomorphism:
    def test_identical_states_isomorphic(self):
        a = uniform_path(4)
        assert is_isomorphic(a, a)

    def test_different_vertex_counts_not_isomorphic(self):
        assert not is_isomorphic(uniform_path(3), uniform_path(4))

    def test_randomized_relabelings_all_match(self, rng):
        a = random_space_state(rng, n_min=7, n_max=7)
        for _ in range(500):
            assert is_isomorphic(a, random_relabeling(rng, a))

    def test_equivalence_relation_on_sampled_triples(self, rng):
        for _ in range(30):
            a = random_space_state(rng, n_min=4, n_max=7)
            b = random_relabeling(rng, a)
            c = random_relabeling(rng, b)
            assert is_isomorphic(a, a)
            assert is_isomorphic(a, b) == is_isomorphic(b, a)
            assert is_isomorphic(a, b) and is_isomorphic(b, c) and is_isomorphic(a, c)

    def test_phase_difference_breaks_isomorphism(self):
        a = uniform_path(3)
        b = a.gauge_rotated(Fraction(1, 4))
        assert not is_isomorphic(a, b)
        assert gauge_equivalent(a, b)


class TestAssociability:
    def test_state_with_itself_globally_associable_for_any_k(self):
        a = uniform_path(5)
        for k in range(1, 6):
            res = classify_associability(a, a, k)
            assert res.kind is AssocKind.GLOBALLY_ASSOCIABLE
            assert res.overlap_fraction == 1

    def test_global_phase_offset_still_globally_associable(self):
        a = path_state([(1, 2, Fraction(1, 8)), (2, 1, Fraction(3, 4))], [2])
        b = a.gauge_rotated(Fraction(5, 8))
        res = classify_associability(a, b, 2)
        assert res.kind is AssocKind.GLOBALLY_ASSOCIABLE

    def test_neutral_species_phase_is_not_gauge(self):
        a = path_state([(0, 1, 0), (0, 1, 0)], [1])
        b = path_state([(0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 2))], [1])
        assert not gauge_equivalent(a, b)

    def test_six_vertex_pair_sharing_four_vertex_region(self):
        # Shared region: a labeled 4-path; each state adds a distinct 2-arm.
        core = [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)]
        a = SpaceState.build(
            {**{i: core[i] for i in range(4)}, 4: (7, 1, 0), 5: (7, 2, 0)},
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
        )
        b = SpaceState.build(
            {**{i: core[i] for i in range(4)}, 4: (8, 1, 0), 5: (8, 2, 0)},
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1), (4, 5, 1)],
        )
        assert brute_force_common_subgraph_size(a, b) == 4
        res = classify_associability(a, b, k_min=3)
        assert res.kind is AssocKind.PARTIALLY_DISSOCIATED
        assert res.overlap_fraction == Fraction(4, 6)

    def test_disjoint_species_alphabets_completely_dissociated(self):
        a = path_state([(1, 1, 0), (2, 1, 0), (1, 1, 0)])
        b = path_state([(3, 1, 0), (4, 1, 0), (3, 1, 0)])
        res = classify_associability(a, b, k_min=2)
        assert res.kind is AssocKind.COMPLETELY_DISSOCIATED
        assert res.overlap_fraction <= Fraction(1, 3)

    def test_symmetric_in_arguments(self, rng):
        for _ in range(50):
            a = random_space_state(rng, n_min=3, n_max=7)
            b = random_space_state(rng, n_min=3, n_max=7)
            ra = classify_associability(a, b, 2)
            rb = classify_associability(b, a, 2)
            assert ra.kind is rb.kind
            assert ra.overlap_fraction == rb.overlap_fraction

    def test_agrees_with_brute_force_on_random_corpus(self, rng):
        for trial in range(120):
            a = random_space_state(rng, n_min=3, n_max=7)
            if trial % 3 == 0:
                b = random_relabeling(rng, a.gauge_rotated(Fraction(trial % 8, 8)))
            else:
                b = random_space_state(rng, n_min=3, n_max=7)
            fast = classify_associability(a, b, 2)
            assert fast.kind is brute_force_assoc_kind(a, b, 2)
            if fast.kind is not AssocKind.GLOBALLY_ASSOCIABLE:
                assert common_subgraph_size(a, b) == brute_force_common_subgraph_size(a, b)

    def test_long_path_overlap_is_exact_up_to_fragment_limit(self):
        assert common_subgraph_size(uniform_path(12), uniform_path(10)) == 10
        res = classify_associability(uniform_path(12), uniform_path(10), 2)
        assert res.kind is AssocKind.PARTIALLY_DISSOCIATED
        assert res.overlap_fraction == 1
        # C(14, k) <= 3432 for every k, so a 14-vertex state is never refused;
        # C(15, 6) = 5005 is above FRAGMENT_LIMIT.
        assert classify_associability(uniform_path(14), uniform_path(13), 2).overlap_fraction == 1
        with pytest.raises(spacegraph.FragmentLimitExceeded, match="15 vertices with fragment size 6"):
            classify_associability(uniform_path(15), uniform_path(14), 2)
        # The gauge keys of a gauge-equivalent pair are shared, but they are
        # not fragments: a rotated path shares no labeled vertex.
        p = uniform_path(3)
        assert common_subgraph_size(p, p.gauge_rotated(Fraction(1, 4))) == 0

    def test_k_min_validation(self):
        a = uniform_path(2)
        with pytest.raises(ValueError):
            classify_associability(a, a, 0)
        with pytest.raises(ValueError, match="k_min must be >= 1"):
            spacegraph.fragment_signatures(a, 0)

    def test_verdict_exact_above_exact_subgraph_limit(self):
        # Both states hold the same connected induced 4-vertex region, so
        # with k_min 4 they are partially dissociated, not completely, and
        # their overlap is 4/9 whatever k_min is.
        a, b = nine_vertex_pair()
        assert brute_force_common_subgraph_size(a, b) == 4
        assert brute_force_assoc_kind(a, b, 4) is AssocKind.PARTIALLY_DISSOCIATED
        for k_min in (2, 3, 4):
            res = classify_associability(a, b, k_min)
            assert res.kind is AssocKind.PARTIALLY_DISSOCIATED
            assert res.overlap_fraction == Fraction(4, 9)


class TestFragmentSignatures:
    def _by_combinations(self, state, k):
        return {
            b"f" + _induced(state, subset).canonical_key
            for subset in reference_connected_subsets(state, k)
        }

    def test_fragments_equal_induced_connected_subsets_by_combinations(self, rng):
        for _ in range(60):
            state = random_space_state(rng, n_min=1, n_max=8, connected=rng.random() < 0.7)
            for k in (1, 2, 3, 4):
                sigs = spacegraph.fragment_signatures(state, k)
                assert b"g" + state.gauge_key in sigs
                assert sigs - {b"g" + state.gauge_key} == self._by_combinations(state, k)

    def test_fragments_build_no_state(self, monkeypatch):
        # Fragments are labeled on the parent's small-int form: no SpaceGraph,
        # FieldConfig or SpaceState is built, and so none is validated.
        state = random_space_state(random.Random(11), n_min=8, n_max=8)
        assert state.gauge_key
        built = []
        for cls in (SpaceGraph, spacegraph.FieldConfig, SpaceState):

            def counting(self, check=cls.__post_init__):
                built.append(self)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        for k in (1, 2, 3, 4):
            assert len(spacegraph.fragment_signatures(state, k)) > 1
        assert built == []

    def test_two_vertex_fragments_are_the_labeled_edges(self):
        a = path_state([(1, 1, 0), (2, 1, 0), (1, 1, 0)], [1, 1])
        edge = path_state([(2, 1, 0), (1, 1, 0)], [1])
        assert spacegraph.fragment_signatures(a, 2) == {b"g" + a.gauge_key, b"f" + edge.canonical_key}

    @pytest.fixture
    def tried(self, monkeypatch):
        """The candidate subsets `fragment_signatures` tries, in order."""
        out = []

        def counting(items, k):
            for subset in itertools.combinations(items, k):
                out.append(subset)
                yield subset

        monkeypatch.setattr(spacegraph, "combinations", counting)
        return out

    def test_state_smaller_than_k_has_no_fragment(self, tried):
        k16 = clique(16)
        assert spacegraph.fragment_signatures(k16, 17) == {b"g" + k16.gauge_key}
        assert tried == []

    def test_dense_state_tries_only_its_candidates(self, tried):
        # The work is the C(n, k) candidates that check_fragment_count
        # bounds, not every connected subset smaller than k (about 2^n).
        spacegraph.fragment_signatures(clique(18), 17)
        assert len(tried) == 18
        tried.clear()
        k30 = clique(30)
        sigs = spacegraph.fragment_signatures(k30, 29)
        assert sigs == {b"g" + k30.gauge_key, b"f" + clique(29).canonical_key}
        assert len(tried) == 30

    def test_limit_refused_before_enumerating(self, monkeypatch):
        def fail(*_args):
            raise AssertionError("enumerated past the limit")

        monkeypatch.setattr(spacegraph, "_connected_subsets", fail)
        with pytest.raises(spacegraph.FragmentLimitExceeded, match="40 vertices with k_min 20"):
            spacegraph.fragment_signatures(uniform_path(40), 20)
        with pytest.raises(spacegraph.FragmentLimitExceeded):
            classify_associability(uniform_path(40), uniform_path(39), 20)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, rng):
        for _ in range(50):
            a = random_space_state(rng)
            text = ssg1_dumps(a)
            back = ssg1_loads(text)
            assert back == a
            assert ssg1_dumps(back) == text
            assert back.geometry == a.geometry
            assert back.fields == a.fields

    def test_header_required(self):
        with pytest.raises(ValueError, match="SSG1"):
            ssg1_loads("v 0 1 1 0\n")

    def test_errors_name_the_line_at_fault(self):
        for text, message in (
            ("SSG1\nv 0 1 1 0\nv 0 2 5 1/2\n", "duplicate SSG1 vertex 0 on line 3:"),
            ("\nSSG1\nv 0 1 x 0\n", "bad SSG1 record on line 3:"),
            ("SSG1\nv 0 1 1 0\n\ne 0 0 1\n", "bad SSG1 record on line 4: 'e 0 0 1' (self-loop"),
            ("SSG1\ne 0 1 1\nv 0 1 1 0\nv 1 1 1 0\ne 1 0 2\n", "on line 5: 'e 1 0 2' (duplicate edge"),
            ("\nSSG1\n\n", "SSG1 block headed on line 2 has no 'v' record"),
            # Numbers whose exact value would take seconds to build, or whose
            # text str() refuses, are refused before they are parsed.
            ("SSG1\nv 0 1 1 0\nv 1 1 1 0\ne 0 1 1e5000\n", "on line 4: 'e 0 1 1e5000' (number longer"),
            ("SSG1\nv 0 1 1e10000000 0\n", "bad SSG1 record on line 2:"),
            ("SSG1\nv 0 1 1 1E+5_000\n", "bad SSG1 record on line 2:"),
            ("SSG1\nv 0 1 1 0\nv 1 1 1 0\ne 0 1 " + "7" * 1001 + "\n", "bad SSG1 record on line 4:"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                ssg1_loads(text)

    def test_format_shape(self):
        text = ssg1_dumps(path_state([(1, Fraction(3, 2), Fraction(1, 4)), (2, 1, 0)], [Fraction(1, 3)]))
        lines = text.splitlines()
        assert lines[0] == "SSG1"
        assert lines[1] == "v 0 1 3/2 1/4"
        assert lines[2] == "v 1 2 1 0"
        assert lines[3] == "e 0 1 1/3"


@st.composite
def small_states(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    fields = {}
    for v in range(n):
        fields[v] = (
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=2)),
            Fraction(draw(st.integers(min_value=0, max_value=7)), 8),
        )
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v, draw(st.integers(min_value=0, max_value=2))))
    return SpaceState.build(fields, edges)


class TestProperties:
    @given(small_states(), st.permutations(list(range(5))))
    @settings(max_examples=60, deadline=None)
    def test_canonical_key_relabeling_invariant(self, state, perm):
        mapping = {v: perm[v] for v in state.geometry.vertices}
        relabeled = SpaceState.build(
            {
                mapping[v]: (rec.species_tag, rec.matter_amplitude, rec.u1_phase.turns)
                for v, rec in state.fields.fields
            },
            [(mapping[u], mapping[v], w) for u, v, w in state.geometry.edges],
        )
        assert canonicalize(relabeled) == canonicalize(state)

    @given(small_states(), st.integers(min_value=0, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_gauge_rotation_round_trip_exact(self, state, sixteenth):
        delta = Fraction(sixteenth, 16)
        assert state.gauge_rotated(delta).gauge_rotated(-delta) == state

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_phase_from_radians_in_range(self, radians):
        p = Phase.from_radians(radians)
        assert 0 <= p.turns < 1


@st.composite
def connected_pairs(draw):
    """Two random connected states of 3-10 vertices on species 1, matter in
    {1, 2} and lengths in {1, 2}, and a k_min in 1..4."""

    def state():
        n = draw(st.integers(min_value=3, max_value=10))
        fields = {v: (1, draw(st.sampled_from((1, 2))), 0) for v in range(n)}
        edges = {(draw(st.integers(0, v - 1)), v): draw(st.sampled_from((1, 2))) for v in range(1, n)}
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and draw(st.integers(0, 4)) == 0:
                    edges[(u, v)] = draw(st.sampled_from((1, 2)))
        return SpaceState.build(fields, [(u, v, w) for (u, v), w in edges.items()])

    return state(), state(), draw(st.integers(min_value=1, max_value=4))


@given(connected_pairs())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_verdict_agrees_with_brute_force_at_any_size(pair):
    a, b, k_min = pair
    assert classify_associability(a, b, k_min).kind is brute_force_assoc_kind(a, b, k_min)
    assert common_subgraph_size(a, b) == brute_force_common_subgraph_size(a, b)
