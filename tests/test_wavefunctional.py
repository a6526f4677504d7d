import cmath
import math

import pytest

from spacestates import (
    MacroPartition,
    NoChargedField,
    Phase,
    UnknownLabel,
    Wavefunctional,
    ZeroState,
    builtin_classifiers,
    gauge_absorb,
    gauge_rotate,
    inner_product,
    macro_weight,
    macro_weights,
    norm,
    normalize,
    project,
    reconstruct,
    restricted_sq_norm,
    total_matter_partition,
    vertex_count_partition,
    wfn1_dumps,
    wfn1_loads,
)
from spacestates.corpus import random_wavefunctional
from spacestates.reference import dense_inner_product
from spacestates.wavefunctional import PRUNE_TOLERANCE

from conftest import path_state, uniform_path


def basis_states(n):
    return [uniform_path(k + 1) for k in range(n)]


class TestConstruction:
    def test_duplicate_states_merge_into_one_entry(self):
        a = uniform_path(3)
        relabeled = path_state([(1, 1, 0)] * 3, [1, 1])
        psi = Wavefunctional.from_states([(a, 0.5), (relabeled, 0.25)])
        assert len(psi) == 1
        assert psi.amplitude(a) == 0.75

    def test_cell_index_distinguishes_entries(self):
        a = uniform_path(3)
        psi = Wavefunctional.from_states([(a, 0.5), (a.with_cell_index((1,)), 0.5)])
        assert len(psi) == 2

    def test_prunes_tiny_amplitudes(self):
        a, b = uniform_path(2), uniform_path(3)
        psi = Wavefunctional.from_states([(a, 1.0), (b, PRUNE_TOLERANCE / 2)])
        assert len(psi) == 1

    def test_cancellation_prunes(self):
        a = uniform_path(3)
        psi = Wavefunctional.from_states([(a, 0.5), (a, -0.5)])
        assert len(psi) == 0


class TestInnerProduct:
    def test_unit_entry_with_itself(self):
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        assert inner_product(psi, psi) == 1.0

    def test_disjoint_supports_orthogonal(self):
        a = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        b = Wavefunctional.from_states([(uniform_path(3), 1.0)])
        assert inner_product(a, b) == 0.0

    def test_matches_dense_reference_on_random_vectors(self, rng):
        states = basis_states(8)
        for _ in range(20):
            a = Wavefunctional.from_states(
                [(s, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for s in states]
            )
            b = Wavefunctional.from_states(
                [(s, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for s in states[3:]]
            )
            assert abs(inner_product(a, b) - dense_inner_product(a, b)) <= 1e-15

    def test_conjugate_symmetry(self, rng):
        for _ in range(10):
            a = random_wavefunctional(rng, n_entries=6)
            b = random_wavefunctional(rng, n_entries=6)
            assert cmath.isclose(
                inner_product(a, b), inner_product(b, a).conjugate(), abs_tol=1e-15
            )

    def test_linear_in_second_argument(self):
        states = basis_states(3)
        a = Wavefunctional.from_states([(s, 1.0) for s in states])
        b = Wavefunctional.from_states([(states[0], 0.5j), (states[1], -0.25)])
        scaled = Wavefunctional.from_states([(s, 3 * amp) for _, (s, amp) in b.entries.items()])
        assert cmath.isclose(inner_product(a, scaled), 3 * inner_product(a, b), abs_tol=1e-14)


class TestNormalize:
    def test_amplitude_two_becomes_one(self):
        psi = normalize(Wavefunctional.from_states([(uniform_path(2), 2.0)]))
        assert psi.amplitude(uniform_path(2)) == 1.0

    def test_two_entry_direction(self):
        a, b = uniform_path(2), uniform_path(3)
        psi = normalize(Wavefunctional.from_states([(a, 1.0), (b, 1j)]))
        assert cmath.isclose(psi.amplitude(a), 1 / math.sqrt(2), abs_tol=1e-15)
        assert cmath.isclose(psi.amplitude(b), 1j / math.sqrt(2), abs_tol=1e-15)

    def test_random_64_entry_norm(self, rng):
        states = basis_states(64)
        psi = normalize(
            Wavefunctional.from_states(
                [(s, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for s in states]
            )
        )
        assert abs(norm(psi) - 1.0) <= 1e-12

    def test_zero_state_raises(self):
        with pytest.raises(ZeroState):
            normalize(Wavefunctional.from_states([]))


class TestGaugeAbsorb:
    def test_imaginary_amplitude_forces_quarter_turn(self):
        a = uniform_path(3)
        psi = Wavefunctional.from_states([(a, 0.6j)])
        view = gauge_absorb(psi)
        ((key, (_, density)),) = view.entries.items()
        assert density == 0.6
        state = view.absorbed_state(key)
        for v in state.charged_vertices():
            assert math.isclose(state.fields.get(v).u1_phase.radians, math.pi / 2, abs_tol=1e-15)

    def test_negative_amplitude_absorbs_half_turn(self):
        psi = Wavefunctional.from_states([(uniform_path(2), -0.25)])
        view = gauge_absorb(psi)
        ((_, density),) = view.entries.values()
        (theta,) = view.gauge_log.values()
        assert density == 0.25
        assert math.isclose(theta, math.pi, abs_tol=1e-15)

    def test_neutral_only_state_cannot_absorb(self):
        neutral = path_state([(0, 1, 0), (0, 1, 0)], [1])
        with pytest.raises(NoChargedField):
            gauge_absorb(Wavefunctional.from_states([(neutral, 1.0)]))

    def test_round_trip_reconstruction(self, rng):
        for _ in range(20):
            psi = random_wavefunctional(rng, n_entries=8)
            view = gauge_absorb(psi)
            assert all(r >= 0 for _s, r in view.entries.values())
            back = reconstruct(view)
            assert set(back.entries) == set(psi.entries)
            for key, (source, amp) in psi.entries.items():
                assert abs(back.entries[key][1] - amp) <= 1e-15
                # The view keeps the source state itself, not a rotated copy.
                assert view.entries[key][0] is source
                assert back.entries[key][0] is source
                # `==` compares canonical keys only, so compare the exact
                # geometry and fields of the absorbed state rotated back.
                absorbed = view.absorbed_state(key)
                assert absorbed.gauge_key == source.gauge_key
                undone = absorbed.gauge_rotated(-Phase.from_radians(view.gauge_log[key]).turns)
                assert undone.geometry == source.geometry
                assert undone.fields == source.fields
                for part in builtin_classifiers():
                    assert part.label_of(absorbed) == part.label_of(source)

    def test_densities_never_negative(self, rng):
        for _ in range(10):
            view = gauge_absorb(random_wavefunctional(rng, n_entries=10))
            assert all(r >= 0 for _s, r in view.entries.values())


class TestProjection:
    def test_projecting_full_support_is_identity(self):
        part = vertex_count_partition(10)
        psi = Wavefunctional.from_states([(uniform_path(2), 0.6), (uniform_path(3), 0.8)])
        assert project(psi, part, "0-9").entries == psi.entries

    def test_projecting_empty_label_gives_zero_state(self):
        part = vertex_count_partition(1)
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        assert len(project(psi, part, "7")) == 0

    def test_idempotent(self, rng):
        part = vertex_count_partition(1)
        psi = random_wavefunctional(rng, n_entries=10)
        once = project(psi, part, "4")
        assert project(once, part, "4").entries == once.entries

    def test_pythagoras_on_mixed_state(self, rng):
        part = vertex_count_partition(1)
        psi = normalize(random_wavefunctional(rng, n_entries=10))
        labels = {part.label_of(s) for s in psi.states()}
        total = sum(norm(project(psi, part, lab)) ** 2 for lab in labels)
        assert abs(total - norm(psi) ** 2) <= 1e-15

    def test_unknown_label_rejected(self):
        part = MacroPartition("two", lambda s: "a" if s.n < 3 else "b", labels=frozenset("ab"))
        psi = Wavefunctional.from_states([(uniform_path(2), 1.0)])
        with pytest.raises(UnknownLabel):
            project(psi, part, "c")
        with pytest.raises(UnknownLabel):
            macro_weight(psi, part, "zzz")


class TestMacroWeight:
    def test_uniform_four_entry_state_three_in_label(self):
        # Three 2-vertex states (distinct cells) and one 3-vertex state.
        a, b = uniform_path(2), uniform_path(3)
        psi = normalize(
            Wavefunctional.from_states(
                [
                    (a, 0.5),
                    (a.with_cell_index((0,)), 0.5),
                    (a.with_cell_index((1,)), 0.5),
                    (b, 0.5),
                ]
            )
        )
        part = vertex_count_partition(1)
        assert math.isclose(macro_weight(psi, part, "2"), 0.75, abs_tol=1e-15)

    def test_single_entry_weight_is_one(self):
        psi = normalize(Wavefunctional.from_states([(uniform_path(4), 2.0j)]))
        assert math.isclose(macro_weight(psi, vertex_count_partition(1), "4"), 1.0, abs_tol=1e-15)

    def test_matches_dense_projector_expectation(self, rng):
        import numpy as np

        part = vertex_count_partition(1)
        for _ in range(10):
            psi = normalize(random_wavefunctional(rng, n_entries=12))
            keys = psi.sorted_keys()
            vec = np.array([psi.entries[k][1] for k in keys])
            for lab in {part.label_of(s) for s in psi.states()}:
                diag = np.array(
                    [1.0 if part.label_of(psi.entries[k][0]) == lab else 0.0 for k in keys]
                )
                expect = float(np.vdot(vec, diag * vec).real)
                assert abs(macro_weight(psi, part, lab) - expect) <= 1e-14

    def test_weights_sum_to_one(self, rng):
        part = total_matter_partition(1)
        for _ in range(10):
            psi = normalize(random_wavefunctional(rng, n_entries=10))
            assert abs(sum(macro_weights(psi, part).values()) - 1.0) <= 1e-12

    def test_restricted_view_norm_equals_macro_weight(self, rng):
        part = vertex_count_partition(1)
        for _ in range(20):
            psi = normalize(random_wavefunctional(rng, n_entries=10))
            view = gauge_absorb(psi)
            for lab in {part.label_of(s) for s in psi.states()}:
                assert abs(
                    restricted_sq_norm(view, part, lab) - macro_weight(psi, part, lab)
                ) <= 1e-12


class TestGaugeInvariance:
    def test_macro_weights_and_overlaps_invariant_under_global_rotation(self, rng):
        part = vertex_count_partition(1)
        psi = normalize(random_wavefunctional(rng, n_entries=8))
        phi = normalize(random_wavefunctional(rng, n_entries=8))
        base_weights = macro_weights(psi, part)
        base_overlap = abs(inner_product(psi, phi))
        for _ in range(16):
            theta = rng.uniform(0, 2 * math.pi)
            psi_r = gauge_rotate(psi, theta)
            phi_r = gauge_rotate(phi, theta)
            rotated = macro_weights(psi_r, part)
            assert set(rotated) == set(base_weights)
            for lab, w in base_weights.items():
                assert abs(rotated[lab] - w) <= 1e-12
            assert abs(abs(inner_product(psi_r, phi_r)) - base_overlap) <= 1e-12

    def test_gauge_rotate_requires_charged_fields(self):
        neutral = path_state([(0, 1, 0), (0, 1, 0)], [1])
        psi = Wavefunctional.from_states([(neutral, 1.0)])
        with pytest.raises(NoChargedField):
            gauge_rotate(psi, 0.3)


class TestDump:
    def test_wfn1_round_trip(self, rng):
        for _ in range(10):
            psi = random_wavefunctional(rng, n_entries=6)
            text = wfn1_dumps(psi)
            back = wfn1_loads(text)
            assert set(back.entries) == set(psi.entries)
            for key in psi.entries:
                assert back.entries[key][1] == psi.entries[key][1]
                assert back.entries[key][0] == psi.entries[key][0]
            assert wfn1_dumps(back) == text

    def test_wfn1_preserves_cell_bits(self):
        a = uniform_path(2).with_cell_index((1, 0, 1))
        psi = Wavefunctional.from_states([(a, 0.5 - 0.25j)])
        back = wfn1_loads(wfn1_dumps(psi))
        ((state, amp),) = back.entries.values()
        assert state.cell_index == (1, 0, 1)
        assert amp == 0.5 - 0.25j

    def test_header_required(self):
        with pytest.raises(ValueError, match="WFN1"):
            wfn1_loads("entry 00 - 1.0 0.0\n")

    def test_corrupted_or_truncated_dump_names_the_line(self, rng):
        psi = random_wavefunctional(rng, n_entries=4)
        lines = wfn1_dumps(psi).splitlines()
        assert lines[0].endswith(" entries=4") and lines[1].startswith("entry ")
        key = lines[1].split()[1]
        last_entry = max(i for i, line in enumerate(lines, 1) if line.startswith("entry "))
        record = lines[1].split()[:3]
        nan_entry, inf_entry = " ".join(record + ["nan", "0.0"]), " ".join(record + ["0.0", "inf"])
        for text, message in (
            (wfn1_dumps(psi).replace(lines[1], nan_entry, 1), "line 2: .*amplitude must be finite"),
            (wfn1_dumps(psi).replace(lines[1], inf_entry, 1), "line 2: .*amplitude must be finite"),
            (wfn1_dumps(psi).replace(key, "zz", 1), "key on line 2 does not match"),
            (wfn1_dumps(psi).replace(" entries=4", " entries=5", 1), "line 1 says entries=5, but 4"),
            (wfn1_dumps(psi).replace(" entries=4", "", 1), "bad WFN1 header on line 1"),
            ("\n".join(lines[: lines.index("end") + 1]) + "\n", "line 1 says entries=4, but 1"),
            ("\n".join(lines[:-1]) + "\n", f"entry on line {last_entry} ends before its 'end' line"),
        ):
            with pytest.raises(ValueError, match=message):
                wfn1_loads(text)

    def test_cell_digit_other_than_bit_names_the_line(self):
        psi = Wavefunctional.from_states([(uniform_path(2).with_cell_index((1, 0, 1)), 1.0)])
        text = wfn1_dumps(psi).replace(" 101 ", " 121 ")
        with pytest.raises(ValueError, match="line 2: .*cell bits"):
            wfn1_loads(text)
