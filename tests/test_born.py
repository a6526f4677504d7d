import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from spacestates import (
    DepthExceeded,
    MacroPartition,
    Wavefunctional,
    build_refinement,
    count_estimate,
    gauge_absorb,
    normalize,
    sample_selflocation,
    vertex_count_partition,
)
from spacestates.born import DRAW_CHUNK, _draw_counts
from spacestates.corpus import random_wavefunctional
from spacestates.reference import bisection_refinement, oneshot_draw_counts

from conftest import uniform_path


def view_of(pairs):
    return gauge_absorb(normalize(Wavefunctional.from_states(pairs)))


def cell_variants(state, n_bits, count):
    return [state.with_cell_index(tuple(int(b) for b in format(i, f"0{n_bits}b"))) for i in range(count)]


class TestBuildRefinement:
    def test_uniform_two_items_split_one_each(self):
        a, b = uniform_path(2), uniform_path(3)
        view = view_of([(a, 1.0), (b, 1.0)])
        tree = bisection_refinement(view, 1, vertex_count_partition(1))
        cells = tree.cells(1)
        assert [len(c) for c in cells] == [1, 1]

    def test_half_quarter_quarter_splits_cleanly(self):
        # Squared weights (1/2, 1/4, 1/4): cell one holds A alone, cell two
        # holds B and C. A's half is carried by two exact quarter sub-cells
        # because no float density squares to exactly one half.
        a, b, c = uniform_path(2), uniform_path(3), uniform_path(4)
        view = view_of(
            [(a.with_cell_index((0,)), 0.5), (a.with_cell_index((1,)), 0.5), (b, 0.5), (c, 0.5)]
        )
        tree = bisection_refinement(view, 1, vertex_count_partition(1))
        cells = tree.cells(1)
        keys0 = {item.key[0] for item in cells[0]}
        keys1 = {item.key[0] for item in cells[1]}
        assert keys0 == {a.canonical_key}
        assert keys1 == {b.canonical_key, c.canonical_key}
        assert tree.cell_weight(1, 0) == tree.cell_weight(1, 1) == Fraction(1, 2)

    def test_fifty_item_vector_has_exact_cell_weights_at_depth_ten(self, rng):
        part = vertex_count_partition(1)
        states = [uniform_path(n) for n in range(2, 7)]
        pairs = []
        for s in states:
            for v in cell_variants(s, 4, 10):
                pairs.append((v, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        assert len(pairs) == 50
        tree = bisection_refinement(view_of(pairs), 10, part)
        total = tree.total_weight()
        for depth in (1, 4, 7, 10):
            target = total / 2**depth
            for i in range(2**depth):
                assert abs(tree.cell_weight(depth, i) - target) <= Fraction(1, 10**12)

    def test_deeper_levels_refine_parents(self, rng):
        part = vertex_count_partition(1)
        psi = random_wavefunctional(rng, n_entries=12)
        tree = bisection_refinement(gauge_absorb(psi), 5, part)
        for depth in range(5):
            for i, parent in enumerate(tree.cells(depth)):
                left, right = tree.cells(depth + 1)[2 * i], tree.cells(depth + 1)[2 * i + 1]
                assert {it.key for it in left + right} == {it.key for it in parent}
                assert sum(it.weight for it in left + right) == sum(it.weight for it in parent)

    def test_depth_limit_enforced(self, rng):
        view = view_of([(uniform_path(2), 1.0)])
        with pytest.raises(DepthExceeded):
            build_refinement(view, 25)

    def test_unnormalized_view_rejected(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 0.5)])
        with pytest.raises(ValueError, match="normalized"):
            build_refinement(gauge_absorb(psi), 2)

    def test_empty_view_rejected(self):
        empty = gauge_absorb(Wavefunctional.from_states([]))
        with pytest.raises(ValueError, match="empty"):
            build_refinement(empty, 2)


def assert_agrees_with_bisection(view, part, depth_max, order_by=True):
    """Closed-form counts equal the bisection oracle's at every depth; with
    order_by False both lay the line out by basis key alone."""
    order = part if order_by else None
    closed = build_refinement(view, depth_max, order)
    oracle = bisection_refinement(view, depth_max, order)
    for depth in range(depth_max + 1):
        report = count_estimate(closed, part, depth)
        counts = {lc.label: lc.n_alpha for lc in report.per_label}
        assert (counts, report.straddlers) == oracle.count(part, depth), depth


class TestClosedFormAgainstBisection:
    """The closed-form counts equal the materialized bisection's counts."""

    def test_label_heavy_random_views_agree_up_to_depth_twelve(self, rng):
        part = vertex_count_partition(1)
        for _ in range(8):
            pairs = []
            for n in range(2, 2 + rng.randint(5, 9)):
                for v in cell_variants(uniform_path(n), 3, rng.randint(1, 8)):
                    pairs.append((v, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
            assert_agrees_with_bisection(view_of(pairs), part, 12)

    def test_two_label_boundaries_in_one_cell_count_one_straddler(self):
        # Squared weights 0.3 / 0.02 / 0.68: both interior boundaries lie in
        # cell [1/4, 1/2) at depth 2, which straddles once, not twice.
        part = vertex_count_partition(1)
        a, b, c = uniform_path(2), uniform_path(3), uniform_path(4)
        view = view_of([(a, math.sqrt(0.3)), (b, math.sqrt(0.02)), (c, math.sqrt(0.68))])
        report = count_estimate(build_refinement(view, 2, part), part, 2)
        assert report.straddlers == 1
        assert [lc.n_alpha for lc in report.per_label] == [1, 0, 2]
        assert_agrees_with_bisection(view, part, 12)

    def test_unordered_partition_agrees(self, rng):
        # Built without a partition, labels interleave along the line; the
        # closed form counts every maximal run of one label.
        view = gauge_absorb(random_wavefunctional(rng, n_entries=16))
        assert_agrees_with_bisection(view, vertex_count_partition(1), 10, order_by=False)


class TestCountEstimate:
    def test_single_label_support_estimates_one_at_every_depth(self):
        a = uniform_path(3)
        pairs = [(v, 1.0) for v in cell_variants(a, 3, 8)]
        tree = build_refinement(view_of(pairs), 3, vertex_count_partition(1))
        for depth in range(4):
            report = count_estimate(tree, vertex_count_partition(1), depth)
            assert report.straddlers == 0
            (lc,) = report.per_label
            assert lc.estimate == 1

    def test_uniform_four_items_three_in_label_depth_two(self):
        a, b = uniform_path(2), uniform_path(3)
        pairs = [(v, 0.5) for v in cell_variants(a, 2, 3)] + [(b, 0.5)]
        part = vertex_count_partition(1)
        tree = build_refinement(view_of(pairs), 2, part)
        report = count_estimate(tree, part, 2)
        by = report.by_label()
        assert by["2"].estimate == Fraction(3, 4)
        assert by["2"].exact == Fraction(3, 4)
        assert by["3"].estimate == Fraction(1, 4)
        assert report.straddlers == 0

    def test_estimate_within_straddler_bound_for_random_states(self, rng):
        part = vertex_count_partition(1)
        states = [uniform_path(n) for n in range(2, 6)]
        pairs = []
        for s in states:
            for v in cell_variants(s, 5, 32):
                pairs.append((v, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        tree = build_refinement(view_of(pairs), 8, part)
        bounds = []
        for depth in range(9):
            report = count_estimate(tree, part, depth)
            assert sum(lc.n_alpha for lc in report.per_label) + report.straddlers == 2**depth
            assert report.straddlers <= len(report.per_label) - 1 or report.straddlers == 0
            for lc in report.per_label:
                assert abs(lc.estimate - lc.exact) <= lc.bound
            bounds.append(Fraction(report.straddlers, 2**depth))
        assert all(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:]))

    def test_partitions_sharing_a_name_count_apart(self):
        view = gauge_absorb(random_wavefunctional(random.Random(1), 8))
        tree = build_refinement(view, 4)
        by_size = MacroPartition("p", lambda s: "small" if s.n < 6 else "big")
        count_estimate(tree, by_size, 4)
        report = count_estimate(tree, MacroPartition("p", lambda s: "x"), 4)
        assert [(lc.label, lc.n_alpha) for lc in report.per_label] == [("x", 16)]

    def test_depth_beyond_tree_rejected(self):
        tree = build_refinement(view_of([(uniform_path(2), 1.0)]), 2)
        with pytest.raises(ValueError):
            count_estimate(tree, vertex_count_partition(1), 3)


class TestSampler:
    def test_single_state_support_gives_frequency_one(self):
        view = view_of([(uniform_path(3), 1.0)])
        freqs = sample_selflocation(view, vertex_count_partition(1), 1000, seed=1)
        assert freqs == {"3": 1.0}

    def test_two_label_binomial_bounds(self):
        a, b = uniform_path(2), uniform_path(3)
        view = view_of([(a, 0.8), (b, 0.6)])  # weights 0.64 / 0.36
        freqs = sample_selflocation(view, vertex_count_partition(1), 10**6, seed=20260808)
        assert abs(freqs["2"] - 0.64) <= 0.002
        assert abs(freqs["3"] - 0.36) <= 0.002

    def test_frequencies_sum_to_one(self, rng):
        view = gauge_absorb(normalize(random_wavefunctional(rng, n_entries=12)))
        freqs = sample_selflocation(view, vertex_count_partition(1), 5000, seed=3)
        assert math.isclose(sum(freqs.values()), 1.0, abs_tol=1e-12)

    def test_deterministic_for_fixed_seed(self, rng):
        view = gauge_absorb(normalize(random_wavefunctional(rng, n_entries=8)))
        part = vertex_count_partition(1)
        assert sample_selflocation(view, part, 10000, 5) == sample_selflocation(view, part, 10000, 5)

    def test_four_label_chi_squared(self):
        states = [uniform_path(n) for n in (2, 3, 4, 5)]
        amps = [0.7, 0.5, 0.4, math.sqrt(1 - 0.49 - 0.25 - 0.16)]
        view = view_of(list(zip(states, amps)))
        part = vertex_count_partition(1)
        weights = {str(s.n): abs(a) ** 2 for s, a in zip(states, amps)}
        samples = 10**6
        freqs = sample_selflocation(view, part, samples, seed=99)
        chi2 = sum(
            (freqs[lab] * samples - weights[lab] * samples) ** 2 / (weights[lab] * samples)
            for lab in weights
        )
        assert chi2 < stats.chi2.ppf(1 - 1e-3, df=3)


def assert_counts_match_oneshot(probs, samples, seed):
    counts = _draw_counts(probs, samples, seed)
    assert np.array_equal(counts, oneshot_draw_counts(probs, samples, seed))
    assert counts.sum() == samples


class TestDrawCountsAgainstOneShot:
    """Guide-table counts over chunked draws equal one `searchsorted` over
    all draws at once, index for index."""

    def test_equal_weights_put_cum_on_bucket_edges(self):
        assert_counts_match_oneshot(np.full(16, 1 / 16), 196_615, seed=16)

    @pytest.mark.parametrize("gap", [2.0**-4, 2.0**-8, 2.0**-17])
    def test_total_below_one_clamps_to_last_index(self, gap):
        # cum = (1/2, 1 - 2 gap, 1 - gap). Draws above cum[-1] search past
        # its end and are clamped to the last index. Of the 64 buckets, they
        # fall in ones holding no cut (2^-4), or in the last one, which holds
        # the cut 1 - 2 gap and is searched (2^-8, 2^-17). The sample count
        # is fixed so that some draw lands above cum[-1] at every gap.
        probs = np.array([0.5, 0.5 - 2 * gap, gap])
        samples, seed = 196_615, 4
        draws = np.random.Generator(np.random.Philox(seed)).random(samples)
        assert np.count_nonzero(draws >= np.cumsum(probs)[-1]) > 0
        assert_counts_match_oneshot(probs, samples, seed)

    def test_single_entry(self):
        assert_counts_match_oneshot(np.array([1.0]), 196_615, seed=1)

    @pytest.mark.parametrize(
        "samples",
        [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 7, 65_535, 65_536, 65_537, 196_615],
    )
    def test_sample_counts_around_the_chunk_size(self, samples):
        amps = np.random.default_rng(96).random(96)
        assert_counts_match_oneshot(amps**2 / (amps**2).sum(), samples, seed=samples)

    @pytest.mark.parametrize("states", [1, 2, 7, 96, 300, 2048])
    def test_state_counts_from_one_to_the_validator_limit(self, states):
        amps = np.random.default_rng(states).random(states)
        assert_counts_match_oneshot(amps**2 / (amps**2).sum(), 196_615, seed=states)

    @settings(max_examples=25, deadline=None)
    @given(
        amps=st.lists(st.floats(0, 1), min_size=1, max_size=300),
        samples=st.integers(1, 131_075),
        seed=st.integers(0, 2**32),
    )
    def test_random_weight_vectors(self, amps, samples, seed):
        # Zero and subnormal amplitudes repeat cum values and empty buckets.
        sq = np.array(amps) ** 2
        assume(sq.sum() > 0)
        assert_counts_match_oneshot(sq / sq.sum(), samples, seed)


def test_sampler_memory_does_not_grow_with_samples():
    states = [uniform_path(n) for n in (2, 3, 4, 5)]
    view = view_of(list(zip(states, [0.7, 0.5, 0.4, math.sqrt(0.1)])))
    part = vertex_count_partition(1)

    def traced_peak(samples):
        tracemalloc.start()
        try:
            sample_selflocation(view, part, samples, seed=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(200_000) < 2**19
    assert traced_peak(2_000_000) < 2**19
