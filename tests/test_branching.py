import functools
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from spacestates import (
    AssocKind,
    EmptySupport,
    RewriteRule,
    SpaceState,
    Wavefunctional,
    asymmetry_experiment,
    classify_associability,
    degenerate_initial_state,
    irreversibility_scan,
    is_degenerate,
    normalize,
    track,
    vertex_count_partition,
)
from spacestates import branching
from spacestates.branching import _assoc_overlap, _components, branch_events_jsonl
from spacestates.corpus import random_space_state
from spacestates.macrostates import MacroPartition
from spacestates.reference import (
    brute_force_assoc_kind,
    pairwise_associable,
    pairwise_components,
    pairwise_irreversible,
    per_epoch_track,
)

from conftest import count_rule_applications, path_state, uniform_path


def species_pair(s1, s2, matter=1):
    return path_state([(s1, matter, 0), (s2, matter, 0)], [1])


# Scenario states: M bridges the two families; A-side uses species {1,2},
# B-side {3,4}, M spans {2,3}. With k_min=1 a shared vertex label associates.
# All epoch-0 states carry total matter 2 (one macro label); the grown
# epoch-1 states land in two different matter labels.
A1 = species_pair(1, 2)
M = species_pair(2, 3)
B1 = species_pair(3, 4)
A2 = path_state([(1, 1, 0), (2, 1, 0), (1, 2, 0)], [1, 1])
B2 = path_state([(3, 1, 0), (4, 1, 0), (3, 3, 0)], [1, 1])

from spacestates import total_matter_partition

SIDE_PARTITION = total_matter_partition(1)


class TestScenarioGeometry:
    def test_bridge_associates_both_families(self):
        assert classify_associability(A1, M, 1).kind is AssocKind.PARTIALLY_DISSOCIATED
        assert classify_associability(M, B1, 1).kind is AssocKind.PARTIALLY_DISSOCIATED
        assert classify_associability(A1, B1, 1).kind is AssocKind.COMPLETELY_DISSOCIATED
        assert classify_associability(A2, B2, 1).kind is AssocKind.COMPLETELY_DISSOCIATED
        # The oracle agrees on every scenario pair.
        for x in (A1, M, B1, A2, B2):
            for y in (A1, M, B1, A2, B2):
                assert classify_associability(x, y, 1).kind is brute_force_assoc_kind(x, y, 1)


class TestTrack:
    def test_constant_single_state_series_is_one_chain(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        tree = track([psi, psi, psi], vertex_count_partition(1), k_min=2)
        assert len(tree.roots) == 1
        assert tree.branch_counts() == [1, 1, 1]
        assert not tree.events
        chain = tree.nodes_at(2)[0]
        assert chain.parent is tree.nodes_at(1)[0]
        assert chain.parent.parent is tree.roots[0]

    def test_split_into_dissociated_halves_is_one_branch_event(self):
        # Epoch 0: one root {A1, M, B1}; epoch 1: the bridge has died out and
        # the support splits into completely dissociated halves in two
        # different macro labels.
        psi0 = Wavefunctional.from_states([(A1, 0.6), (M, 0.48), (B1, math.sqrt(1 - 0.36 - 0.2304))])
        psi1 = Wavefunctional.from_states([(A2, 0.6), (B2, 0.8)])
        tree = track([psi0, psi1], SIDE_PARTITION, k_min=1)
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.weight == pytest.approx(1.0, abs=1e-12)
        events = [e for e in tree.events if e.kind == "branch"]
        assert len(events) == 1
        (event,) = events
        children = [tree.node(cid) for cid in event.child_ids]
        assert sorted(c.macro_label for c in children) == ["matter_4", "matter_5"]
        assert sum(c.weight for c in children) == pytest.approx(root.weight, abs=1e-9)

    def test_direct_component_computation_confirms_nodes(self):
        psi0 = Wavefunctional.from_states([(A1, 0.6), (M, 0.48), (B1, math.sqrt(1 - 0.36 - 0.2304))])
        tree = track([psi0], SIDE_PARTITION, k_min=1)
        # Brute-force components: A1-M-B1 all connected through M.
        assert len(tree.nodes_at(0)) == 1
        psi_nobridge = normalize(Wavefunctional.from_states([(A1, 0.6), (B1, 0.8)]))
        tree2 = track([psi_nobridge], SIDE_PARTITION, k_min=1)
        assert len(tree2.nodes_at(0)) == 2

    def test_weights_non_increasing_along_chain_under_pure_splitting(self):
        psi0 = Wavefunctional.from_states([(A1, 0.6), (M, 0.48), (B1, math.sqrt(1 - 0.36 - 0.2304))])
        psi1 = Wavefunctional.from_states([(A2, 0.6), (B2, 0.8)])
        tree = track([psi0, psi1], SIDE_PARTITION, k_min=1)
        for node in tree.nodes_at(1):
            assert node.weight <= node.parent.weight + 1e-12

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySupport):
            track([], vertex_count_partition(1))

    def test_empty_support_rejected(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        empty = Wavefunctional.from_states([])
        with pytest.raises(EmptySupport):
            track([psi, empty], vertex_count_partition(1))

    def test_cell_variants_share_component(self):
        a = uniform_path(2)
        psi = Wavefunctional.from_states([(a, 0.6), (a.with_cell_index((1,)), 0.8)])
        tree = track([psi], vertex_count_partition(1), k_min=2)
        assert len(tree.nodes_at(0)) == 1
        assert tree.nodes_at(0)[0].weight == pytest.approx(1.0)

    def test_components_found_once_per_support(self, monkeypatch):
        # Amplitudes and cell indices change from epoch to epoch, but the
        # canonical keys in the support do not, so neither do the components.
        supports = []

        def counting(states, k_min):
            supports.append(sorted(states))
            return _components(states, k_min)

        monkeypatch.setattr(branching, "_components", counting)
        series = [
            Wavefunctional.from_states([(A1, 0.6), (M, 0.48), (B1, math.sqrt(1 - 0.36 - 0.2304))]),
            Wavefunctional.from_states([(A1, 0.8), (M, 0.36), (B1, math.sqrt(1 - 0.64 - 0.1296))]),
            Wavefunctional.from_states([(A1, 0.6), (A1.with_cell_index((1,)), 0.48), (M, 0.48), (B1, 0.42)]),
            Wavefunctional.from_states([(A1, 0.1), (M, 0.1), (B1, 0.1)]),
        ]
        tree = track(series, SIDE_PARTITION, k_min=1)
        assert supports == [sorted({A1.canonical_key, M.canonical_key, B1.canonical_key})]
        assert tree.branch_counts() == [1, 1, 1, 1]
        assert sorted(tree.states) == supports[0]


class TestIrreversibility:
    def _split_tree(self, epoch2_states):
        psi0 = Wavefunctional.from_states([(A1, 0.6), (M, 0.48), (B1, math.sqrt(1 - 0.36 - 0.2304))])
        psi1 = Wavefunctional.from_states([(A2, 0.6), (B2, 0.8)])
        psi2 = Wavefunctional.from_states(epoch2_states)
        return track([psi0, psi1, psi2], SIDE_PARTITION, k_min=1)

    def test_disjoint_species_branches_irreversible(self):
        tree = self._split_tree([(A2, 0.6), (B2, 0.8)])
        irreversibility_scan(tree, horizon=2)
        (event,) = [e for e in tree.events if e.kind == "branch" and e.epoch == 1]
        assert event.irreversible is True
        assert event.horizon == 2

    def test_reappearing_bridge_marks_reversible(self):
        # A bridge state reenters the support one epoch after the split.
        tree = self._split_tree([(A2, 0.6), (M, 0.48), (B2, math.sqrt(1 - 0.36 - 0.2304))])
        irreversibility_scan(tree, horizon=2)
        (event,) = [e for e in tree.events if e.kind == "branch" and e.epoch == 1]
        assert event.irreversible is False

    def test_horizon_zero_vacuously_irreversible(self):
        tree = self._split_tree([(A2, 0.6), (M, 0.48), (B2, math.sqrt(1 - 0.36 - 0.2304))])
        irreversibility_scan(tree, horizon=0)
        (event,) = [e for e in tree.events if e.kind == "branch" and e.epoch == 1]
        assert event.irreversible is True

    def test_monotone_in_horizon(self):
        # Irreversible at horizon h stays irreversible at every h' <= h.
        tree = self._split_tree([(A2, 0.6), (B2, 0.8)])
        verdicts = []
        for h in (2, 1, 0):
            irreversibility_scan(tree, horizon=h)
            (event,) = [e for e in tree.events if e.kind == "branch" and e.epoch == 1]
            verdicts.append(event.irreversible)
        assert verdicts[0] is True
        assert all(verdicts)

    def test_jsonl_records_all_fields(self):
        tree = self._split_tree([(A2, 0.6), (B2, 0.8)])
        irreversibility_scan(tree, horizon=1)
        import json

        lines = branch_events_jsonl(tree).splitlines()
        assert lines
        record = json.loads(lines[0])
        assert {"epoch", "event", "parent_id", "child_ids", "weights", "irreversible", "horizon"} <= set(record)


class TestDegenerateState:
    def test_construction_is_degenerate(self):
        s = degenerate_initial_state(3)
        assert is_degenerate(s)
        assert all(length == 0 for _u, _v, length in s.geometry.edges)
        assert s.fields.is_homogeneous()

    def test_nonzero_length_not_degenerate(self):
        assert not is_degenerate(uniform_path(3, length=1))

    def test_inhomogeneous_fields_not_degenerate(self):
        s = path_state([(1, 1, 0), (1, 2, 0)], [0])
        assert not is_degenerate(s)


class TestAsymmetryExperiment:
    def _rules(self):
        pattern = SpaceState.build({0: (1, 1, 0)})
        rep1 = SpaceState.build({0: (1, 1, 0), 1: (1, 1, 0)}, [(0, 1, 1)])
        rep2 = SpaceState.build({0: (1, 1, 0), 1: (2, 1, 0)}, [(0, 1, 2)])
        return [RewriteRule(0, pattern, rep1, 0.9), RewriteRule(1, pattern, rep2, 0.7)]

    def test_zero_rules_constant_branch_count(self):
        summary = asymmetry_experiment([], vertex_count_partition(1), epochs=3, seed=1)
        assert summary.forward.branch_counts == [1, 1, 1, 1]
        assert summary.backward.branch_counts == [1, 1, 1, 1]

    def test_forward_root_unique_and_entropy_grows_from_zero(self):
        summary = asymmetry_experiment(
            self._rules(), vertex_count_partition(1), epochs=4, seed=3, max_dim=48
        )
        assert summary.forward.branch_counts[0] == 1
        assert summary.forward.entropies[0] == 0.0
        assert summary.forward.entropies[-1] >= 0.0
        assert all(a <= b for a, b in zip(summary.forward.branch_counts, summary.forward.branch_counts[1:]))

    def test_backward_run_collapses_to_root(self):
        summary = asymmetry_experiment(
            self._rules(), vertex_count_partition(1), epochs=4, seed=5, max_dim=48
        )
        assert summary.backward.branch_counts[-1] == 1
        assert summary.backward.branch_counts[0] > 1

    def test_requires_degenerate_initial_state(self):
        with pytest.raises(ValueError, match="degenerate"):
            asymmetry_experiment(
                self._rules(),
                vertex_count_partition(1),
                epochs=2,
                seed=0,
                initial_state=uniform_path(2, length=1),
            )

    def test_seed_changes_couplings_not_structure(self):
        a = asymmetry_experiment(self._rules(), vertex_count_partition(1), epochs=3, seed=0, max_dim=48)
        b = asymmetry_experiment(self._rules(), vertex_count_partition(1), epochs=3, seed=1, max_dim=48)
        assert a.forward.branch_counts == b.forward.branch_counts
        assert a.forward.entropies != b.forward.entropies

    def test_seeds_share_one_expansion(self, monkeypatch):
        # Seeds only jitter the couplings, so the basis is expanded once and
        # re-weighted for every later seed.
        calls = count_rule_applications(monkeypatch)
        for seed in range(3):
            asymmetry_experiment(self._rules(), vertex_count_partition(1), epochs=1, seed=seed, max_dim=48)
        assert calls[0] == 48 * 2

    def test_action_keeps_every_integer_field_of_propagator_evolution(self, monkeypatch):
        # Past the crossover `evolve` applies the Taylor action; with the
        # crossover moved out of reach the same seeds take the propagator.
        from spacestates import Generator, dynamics, rul1_loads

        rules = rul1_loads((CONFIG_DIR / "reference_branching.rul").read_text())
        propagators = []
        propagator = Generator.propagator
        monkeypatch.setattr(Generator, "propagator", lambda g, dt: propagators.append(dt) or propagator(g, dt))

        def summaries():
            runs = [(seed, 0.2, 300) for seed in range(12)] + [(seed, 0.25, 200) for seed in range(4)]
            return [
                asymmetry_experiment(rules, vertex_count_partition(1), 6, seed, dt=dt, max_dim=max_dim)
                for seed, dt, max_dim in runs
            ]

        action = summaries()
        assert propagators == []
        monkeypatch.setattr(dynamics, "ACTION_MIN_DIM", 10**9)
        dense = summaries()
        assert len(propagators) == 2 * 6 * len(dense)
        for a, d in zip(action, dense):
            for x, y in ((a.forward, d.forward), (a.backward, d.backward)):
                assert (x.branch_counts, x.branch_events, x.merge_events) == (
                    y.branch_counts,
                    y.branch_events,
                    y.merge_events,
                )
                assert max(abs(p - q) for p, q in zip(x.entropies, y.entropies)) <= 1e-14

    def test_seeds_share_components_per_support(self, monkeypatch):
        # Both directions of every seed meet the same supports, so each
        # support's components are found once for all of them.
        supports = []

        def counting(states, k_min):
            supports.append(frozenset(states))
            return _components(states, k_min)

        monkeypatch.setattr(branching, "_components", counting)
        for seed in range(3):
            asymmetry_experiment(self._rules(), vertex_count_partition(1), epochs=4, seed=seed, max_dim=48)
        assert len(supports) == len(set(supports)) == 2

    def test_child_keys_within_parent_support_reachability(self):
        # Every child node's keys lie in the coupling-graph closure of its
        # parent's keys, and node weights match a direct recomputation.
        from spacestates import Wavefunctional, evolve, expand_reachable, normalize

        rules = self._rules()
        part = vertex_count_partition(1)
        psi0 = normalize(
            Wavefunctional.from_states([(degenerate_initial_state(2), 1.0 + 0j)])
        )
        gen = expand_reachable(psi0, rules, 48, accept_truncation=True)
        series = [psi0]
        for _ in range(4):
            series.append(evolve(series[-1], gen, 0.2, 1))
        tree = track(series, part, k_min=2)

        adjacency = {i: set() for i in range(gen.dim)}
        for i in range(gen.dim):
            for j in range(gen.dim):
                if i != j and gen.matrix[i, j] != 0:
                    adjacency[i].add(j)
        index = gen.index()

        def closure(keys):
            seen = {index[k] for k in keys}
            stack = list(seen)
            while stack:
                i = stack.pop()
                for j in adjacency[i]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            return seen

        for node in tree.nodes:
            recomputed = sum(
                abs(series[node.epoch].entries[k][1]) ** 2 for k in node.member_keys
            )
            assert node.weight == pytest.approx(recomputed, abs=1e-15)
            if node.parent is not None:
                reachable = closure(node.parent.member_keys)
                assert {index[k] for k in node.member_keys} <= reachable


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@functools.lru_cache(maxsize=None)
def reference_series(max_dim):
    """Forward and backward epoch series of the shipped reference config."""
    from spacestates import evolve, expand_reachable, rul1_loads, ssg1_loads

    rules = rul1_loads((CONFIG_DIR / "reference_branching.rul").read_text())
    initial = ssg1_loads((CONFIG_DIR / "reference_branching.ssg").read_text())
    forward = [normalize(Wavefunctional.from_states([(initial, 1.0)]))]
    gen = expand_reachable(forward[0], rules, max_dim, accept_truncation=True)
    for _ in range(6):
        forward.append(evolve(forward[-1], gen, 0.2, 1))
    backward = [forward[-1]]
    for _ in range(6):
        backward.append(evolve(backward[-1], gen, -0.2, 1))
    return forward, backward


def check_against_oracles(series, k_min):
    """Components of every epoch and irreversible flags at every horizon
    equal the pairwise oracles'; returns the tree and its branch events."""
    for psi in series:
        states = {key[0]: psi.entries[key][0] for key in psi.sorted_keys()}
        assert _components(states, k_min) == pairwise_components(states, k_min)
    tree = track(series, vertex_count_partition(1), k_min)
    for horizon in range(len(series)):
        irreversibility_scan(tree, horizon)
        flags = [e.irreversible for e in tree.events if e.kind == "branch"]
        assert flags == pairwise_irreversible(tree, horizon)
    return tree, len(flags)


class TestPairwiseOracles:
    """The one-pass signature paths against the pairwise loops of reference.py."""

    @pytest.mark.parametrize("k_min", (1, 2, 3))
    @pytest.mark.parametrize("max_dim", (96, 300))
    def test_reference_supports_match_oracles(self, max_dim, k_min):
        for series in reference_series(max_dim):
            check_against_oracles(series, k_min)

    def test_random_supports_match_oracles(self):
        rng = random.Random(7)
        events = 0
        for _ in range(6):
            pool = [random_space_state(rng, n_min=2, n_max=5, species=(1, 2)) for _ in range(14)]
            series = [
                Wavefunctional.from_states((s, rng.uniform(0.1, 1.0)) for s in rng.sample(pool, 8))
                for _ in range(4)
            ]
            for k_min in (1, 2, 3):
                tree, branch_events = check_against_oracles(series, k_min)
                events += branch_events
                for child in tree.nodes:
                    for parent in tree.nodes:
                        pairs = sum(
                            pairwise_associable(tree.states[ck], tree.states[pk], k_min)
                            for ck in {k[0] for k in child.member_keys}
                            for pk in {k[0] for k in parent.member_keys}
                        )
                        assert _assoc_overlap(child, parent, tree.states, k_min) == pairs
        assert events > 0



def tree_records(tree):
    """Every node (id, epoch, label, member keys, exact weight, parent id,
    child ids), the root ids and the events of a tree."""
    nodes = [
        (n.node_id, n.epoch, n.macro_label, n.member_keys, n.weight,
         None if n.parent is None else n.parent.node_id, [c.node_id for c in n.children])
        for n in tree.nodes
    ]
    return nodes, [r.node_id for r in tree.roots], tree.events, sorted(tree.states), tree.epochs


def link_kinds(tree):
    """Counts of children whose key overlap ties between parents, and of
    children linked by the associability fallback."""
    ties = fallbacks = 0
    for child in tree.nodes:
        if child.epoch == 0 or child.parent is None:
            continue
        overlaps = [len(child.member_keys & p.member_keys) for p in tree.nodes_at(child.epoch - 1)]
        ties += max(overlaps) > 0 and overlaps.count(max(overlaps)) > 1
        fallbacks += max(overlaps) == 0
    return ties, fallbacks


class TestIncrementalTrack:
    """`track` against `reference.per_epoch_track`, which does every epoch in full."""

    @pytest.mark.parametrize("k_min", (1, 2, 3))
    @pytest.mark.parametrize("max_dim", (96, 300))
    def test_reference_series_match_per_epoch_track(self, max_dim, k_min):
        part = vertex_count_partition(1)
        for series in reference_series(max_dim):
            # The support is the whole basis for five epochs in a row, so
            # most epochs reuse their groups.
            assert sum(a.entries.keys() == b.entries.keys() for a, b in zip(series, series[1:])) == 5
            assert tree_records(track(series, part, k_min)) == tree_records(per_epoch_track(series, part, k_min))

    def test_scenario_series_match_per_epoch_track(self):
        # Two dissociated sides merge through the bridge M with tied key
        # overlaps, stay merged (adding the A1 cell variant, which shares
        # A1's canonical key), split when M leaves and are replaced by grown
        # states that no key links.
        a1_cell = A1.with_cell_index((1,))
        supports = [
            [(A1, 0.6), (B1, 0.8)],
            [(A1, 0.5), (M, 0.5), (B1, math.sqrt(0.5))],
            [(A1, 0.3), (M, 0.4), (B1, math.sqrt(0.75))],
            [(A1, 0.6), (a1_cell, 0.48), (M, 0.48), (B1, 0.42)],
            [(A1, 0.8), (B1, 0.6)],
            [(A2, 0.6), (B2, 0.8)],
        ]
        series = [Wavefunctional.from_states(pairs) for pairs in supports]
        tree = track(series, SIDE_PARTITION, k_min=1)
        assert tree_records(tree) == tree_records(per_epoch_track(series, SIDE_PARTITION, k_min=1))
        assert tree.branch_counts() == [2, 1, 1, 1, 2, 2]
        assert link_kinds(tree) == (1, 2)
        assert [e.kind for e in tree.events] == ["merge", "branch"]

    def test_random_series_match_per_epoch_track(self):
        # Paths over three species blocks: {1, 2} and {3, 4} associate only
        # through a {2, 3} bridge, so nodes split and merge, with some ties.
        # The series revisits three supports, in stretches and returns.
        rng = random.Random(11)

        def random_path(species):
            n = rng.randint(2, 4)
            labels = [(rng.choice(species), 1, 0) for _ in range(n)]
            return path_state(labels, [rng.randint(1, 2) for _ in range(n - 1)])

        stretches = returns = ties = fallbacks = 0
        for _ in range(8):
            pool = [random_path(species) for species in [(1, 2)] * 3 + [(3, 4)] * 3 + [(2, 3)] * 2]
            pool += [s.with_cell_index((1,)) for s in rng.sample(pool, 2)]
            supports = [rng.sample(pool, rng.randint(1, 6)) for _ in range(3)]
            picks = [rng.randrange(3) for _ in range(8)]
            stretches += sum(a == b for a, b in zip(picks, picks[1:]))
            returns += sum(p != picks[i - 1] and p in picks[: i - 1] for i, p in enumerate(picks) if i > 1)
            series = [
                Wavefunctional.from_states((s, rng.uniform(0.1, 1.0)) for s in supports[p]) for p in picks
            ]
            for k_min in (1, 2, 3):
                tree = track(series, vertex_count_partition(1), k_min)
                assert tree_records(tree) == tree_records(per_epoch_track(series, vertex_count_partition(1), k_min))
                t, f = link_kinds(tree)
                ties, fallbacks = ties + t, fallbacks + f
        assert min(stretches, returns, ties, fallbacks) > 0

    def test_classifier_runs_once_per_canonical_key(self):
        calls = Counter()

        def classify(state):
            calls[state.canonical_key] += 1
            return str(state.n)

        part = MacroPartition("counting", classify)
        a1_cell = A1.with_cell_index((1,))
        scenario = [
            Wavefunctional.from_states([(A1, 0.6), (a1_cell, 0.8)]),
            Wavefunctional.from_states([(A1, 0.6), (M, 0.8)]),
            Wavefunctional.from_states([(a1_cell, 0.6), (B1, 0.8)]),
        ]
        for series in (*reference_series(96), scenario):
            calls.clear()
            tree = track(series, part, k_min=2)
            assert calls == Counter(dict.fromkeys(tree.states, 1))
