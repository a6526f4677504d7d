"""Property tests for the numeric invariants that hold for any amplitudes."""

import cmath

from hypothesis import given, settings
from hypothesis import strategies as st

from spacestates import (
    Wavefunctional,
    build_refinement,
    count_estimate,
    gauge_absorb,
    inner_product,
    macro_weights,
    norm,
    normalize,
    project,
    reconstruct,
    vertex_count_partition,
)
from spacestates.reference import bisection_refinement

from conftest import uniform_path

BASIS = [uniform_path(n) for n in range(2, 8)]

amplitudes = st.lists(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=len(BASIS),
    max_size=len(BASIS),
)


def state_of(amps):
    return Wavefunctional.from_states(zip(BASIS, amps))


@given(amplitudes, amplitudes)
@settings(max_examples=60, deadline=None)
def test_inner_product_conjugate_symmetric(amps_a, amps_b):
    a, b = state_of(amps_a), state_of(amps_b)
    assert cmath.isclose(inner_product(a, b), inner_product(b, a).conjugate(), abs_tol=1e-9)


@given(amplitudes, amplitudes, st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_inner_product_linear_in_second_argument(amps_a, amps_b, scale):
    a, b = state_of(amps_a), state_of(amps_b)
    scaled = Wavefunctional.from_states([(s, scale * amp) for s, amp in zip(BASIS, amps_b)])
    lhs = inner_product(a, scaled)
    rhs = scale * inner_product(a, b)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


@given(amplitudes)
@settings(max_examples=60, deadline=None)
def test_normalize_then_norm_is_one(amps):
    psi = normalize(state_of(amps))
    assert abs(norm(psi) - 1.0) <= 1e-12


@given(amplitudes)
@settings(max_examples=60, deadline=None)
def test_gauge_absorb_round_trip_and_nonnegative_densities(amps):
    psi = normalize(state_of(amps))
    view = gauge_absorb(psi)
    assert all(r >= 0 for _s, r in view.entries.values())
    back = reconstruct(view)
    assert set(back.entries) == set(psi.entries)
    for key in psi.entries:
        assert abs(back.entries[key][1] - psi.entries[key][1]) <= 1e-15


@given(amplitudes)
@settings(max_examples=60, deadline=None)
def test_projections_resolve_the_identity(amps):
    part = vertex_count_partition(1)
    psi = normalize(state_of(amps))
    weights = macro_weights(psi, part)
    assert abs(sum(weights.values()) - 1.0) <= 1e-12
    for label, weight in weights.items():
        assert abs(norm(project(psi, part, label)) ** 2 - weight) <= 1e-12


@given(amplitudes, st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_closed_form_counts_match_bisection_oracle(amps, depth):
    part = vertex_count_partition(1)
    view = gauge_absorb(normalize(state_of(amps)))
    report = count_estimate(build_refinement(view, depth, part), part, depth)
    counts = {lc.label: lc.n_alpha for lc in report.per_label}
    assert (counts, report.straddlers) == bisection_refinement(view, depth, part).count(part, depth)
    assert sum(counts.values()) + report.straddlers == 2**depth
