"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from spacestates import (
    Generator,
    LocalObservable,
    Phase,
    RewriteRule,
    SpaceState,
    Wavefunctional,
    build_refinement,
    builtin_classifiers,
    classify_associability,
    count_estimate,
    evolve,
    expand_reachable,
    gauge_absorb,
    gauge_rotate,
    inner_product,
    interference_term,
    macro_weight,
    macro_weights,
    norm,
    normalize,
    restricted_sq_norm,
    rul1_loads,
    sample_selflocation,
    track,
    verify_projector_algebra,
    vertex_count_partition,
)
from spacestates import born
from spacestates.branching import asymmetry_experiment
from spacestates.cli import ExperimentConfig, run
from spacestates.corpus import random_relabeling, random_space_state, random_wavefunctional
from spacestates.reference import brute_force_assoc_kind, oneshot_draw_counts

from conftest import path_state, uniform_path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def cell_variants(state, count):
    bits = max(1, (count - 1).bit_length())
    return [
        state.with_cell_index(tuple(int(b) for b in format(i, f"0{bits}b")))
        for i in range(count)
    ]


def test_criterion_01_counting_born_convergence():
    part = vertex_count_partition(1)
    base = [uniform_path(n) for n in (2, 3, 4, 5)]
    for s in base:
        s.canonical_key
    start = time.monotonic()
    for trial in range(20):
        rng = random.Random(4000 + trial)
        pairs = []
        for s in base:
            for variant in cell_variants(s, 1024):
                pairs.append((variant, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        psi = normalize(Wavefunctional.from_states(pairs))
        view = gauge_absorb(psi)
        assert len(view) == 4096
        tree = build_refinement(view, 12, part)
        for depth in range(13):
            rep = count_estimate(tree, part, depth)
            assert rep.straddlers <= 3
            for lc in rep.per_label:
                assert abs(lc.estimate - lc.exact) <= lc.bound
                assert lc.bound <= Fraction(3, 2**depth)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("criterion-1 counting-born-convergence", f"{elapsed:.1f}s for 20 states")


def test_criterion_02_density_restriction_norm_identity():
    rng = random.Random(501)
    part = vertex_count_partition(1)
    for _ in range(100):
        psi = normalize(random_wavefunctional(rng, n_entries=10))
        view = gauge_absorb(psi)
        for label in {part.label_of(s) for s in psi.states()}:
            lhs = restricted_sq_norm(view, part, label)
            rhs = macro_weight(psi, part, label)
            assert abs(lhs - rhs) <= 1e-12
    report("criterion-2 densitized-restriction-norm-identity")


def test_criterion_03_gauge_absorption():
    rng = random.Random(733)
    part = vertex_count_partition(1)
    from spacestates import reconstruct

    worst = 0.0
    for _ in range(25):
        psi = normalize(random_wavefunctional(rng, n_entries=8))
        view = gauge_absorb(psi)
        assert all(r >= 0 for _s, r in view.entries.values())
        back = reconstruct(view)
        assert set(back.entries) == set(psi.entries)
        for key, (source, amp) in psi.entries.items():
            worst = max(worst, abs(back.entries[key][1] - amp))
            assert view.entries[key][0] is source
            # Absorb the phase through the accessor and rotate it back:
            # exact geometry and fields, since `==` compares keys only.
            absorbed = view.absorbed_state(key)
            assert absorbed.gauge_key == source.gauge_key
            undone = absorbed.gauge_rotated(-Phase.from_radians(view.gauge_log[key]).turns)
            assert (undone.geometry, undone.fields) == (source.geometry, source.fields)
    assert worst <= 1e-15

    psi = normalize(random_wavefunctional(rng, n_entries=8))
    phi = normalize(random_wavefunctional(rng, n_entries=8))
    weights = macro_weights(psi, part)
    overlap = abs(inner_product(psi, phi))
    for _ in range(16):
        theta = rng.uniform(0, 2 * math.pi)
        psi_r, phi_r = gauge_rotate(psi, theta), gauge_rotate(phi, theta)
        rotated = macro_weights(psi_r, part)
        assert set(rotated) == set(weights)
        assert all(abs(rotated[k] - weights[k]) <= 1e-12 for k in weights)
        assert abs(abs(inner_product(psi_r, phi_r)) - overlap) <= 1e-12
    report("criterion-3 gauge-absorption", f"max round-trip error {worst:.2e}")


def test_criterion_04_unitarity():
    rng = random.Random(65)
    states = []
    seen = set()
    while len(states) < 64:
        s = random_space_state(rng, n_min=4, n_max=7)
        if s.canonical_key not in seen:
            seen.add(s.canonical_key)
            states.append(s)
    nrng = np.random.Generator(np.random.Philox(64))
    a = nrng.normal(size=(64, 64)) + 1j * nrng.normal(size=(64, 64))
    gen = Generator(tuple(states), a + a.conj().T, frozenset())
    psi = normalize(
        Wavefunctional.from_states(zip(states, nrng.normal(size=64) + 1j * nrng.normal(size=64)))
    )
    out = evolve(psi, gen, dt=0.01, steps=1000)
    drift = abs(norm(out) - 1.0)
    assert drift < 1e-10

    a_state = SpaceState.build({0: (1, 1, 0), 1: (2, 1, 0)}, [(0, 1, 1)])
    b_state = SpaceState.build({0: (1, 2, 0), 1: (2, 2, 0)}, [(0, 1, 1)])
    g = 0.5
    gen2 = expand_reachable(
        Wavefunctional.from_states([(a_state, 1.0)]), [RewriteRule(0, a_state, b_state, g)], 4
    )
    out2 = evolve(Wavefunctional.from_states([(a_state, 1.0)]), gen2, dt=math.pi / (2 * g), steps=1)
    assert abs(out2.amplitude(a_state)) <= 1e-10
    assert abs(out2.amplitude(b_state) - (-1j)) <= 1e-10
    report("criterion-4 unitarity", f"norm drift {drift:.2e} over 1000 steps")


def test_criterion_05_dissociation_masking():
    a = path_state([(1, 1, 0), (2, 1, 0)])
    b = path_state([(3, 1, 0), (4, 1, 0)])
    matrix = np.array([[1.0, 0.7], [0.7, 2.0]], dtype=complex)
    obs = LocalObservable((a, b), matrix)
    psi = normalize(Wavefunctional.from_states([(a, 1.0), (b, 1.0)]))
    full, masked = interference_term(psi, obs, k_min=2)
    # The cross term is dropped exactly: masked is bit-identical to the same
    # expectation with the off-diagonal element zeroed (or set to anything).
    obs_zero = LocalObservable((a, b), np.diag([1.0, 2.0]).astype(complex))
    obs_other = LocalObservable((a, b), np.array([[1.0, 9.9], [9.9, 2.0]], dtype=complex))
    assert masked == interference_term(psi, obs_zero, k_min=2)[1]
    assert masked == interference_term(psi, obs_other, k_min=2)[1]
    assert masked == pytest.approx(0.5 * 1.0 + 0.5 * 2.0, abs=1e-15)
    assert full == pytest.approx(masked + 0.7, abs=1e-15)
    assert full != masked

    c = uniform_path(3)
    d = c.gauge_rotated(Fraction(3, 8))
    obs2 = LocalObservable((c, d), np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]], dtype=complex))
    psi2 = normalize(Wavefunctional.from_states([(c, 0.6), (d, 0.8j)]))
    full2, masked2 = interference_term(psi2, obs2, k_min=2)
    assert abs(full2 - masked2) <= 1e-14
    report("criterion-5 dissociation-masking")


def test_criterion_06_associability_oracle_equivalence():
    rng = random.Random(606)
    start = time.monotonic()
    agreements = 0
    total = 1000
    for trial in range(total):
        a = random_space_state(rng, n_min=4, n_max=8)
        mode = trial % 4
        if mode == 0:
            b = random_space_state(rng, n_min=4, n_max=8)
        elif mode == 1:
            b = random_relabeling(rng, a)
        elif mode == 2:
            b = random_relabeling(rng, a.gauge_rotated(Fraction(rng.randrange(8), 8)))
        else:
            b = random_space_state(rng, n_min=4, n_max=8)
        fast = classify_associability(a, b, 2).kind
        slow = brute_force_assoc_kind(a, b, 2)
        agreements += fast is slow
    elapsed = time.monotonic() - start
    assert agreements == total
    assert elapsed < 60.0
    report("criterion-6 associability-oracle-equivalence", f"{total}/{total} in {elapsed:.1f}s")


def test_criterion_07_projector_algebra():
    rng = random.Random(77)
    corpus = [random_space_state(rng) for _ in range(500)]
    for part in builtin_classifiers():
        result = verify_projector_algebra(part, corpus)
        assert result.passed, f"{part.name}: {result.violations}"
    report("criterion-7 projector-algebra", "3 partitions x 500 states")


def test_criterion_08_selflocation_sampling(monkeypatch):
    part = vertex_count_partition(1)
    a, b = uniform_path(2), uniform_path(3)
    view = gauge_absorb(normalize(Wavefunctional.from_states([(a, 0.8), (b, 0.6)])))
    freqs = sample_selflocation(view, part, 10**6, seed=808)
    assert abs(freqs["2"] - 0.64) <= 0.002
    assert abs(freqs["3"] - 0.36) <= 0.002

    states = [uniform_path(n) for n in (2, 3, 4, 5)]
    amps = [0.7, 0.5, 0.4, math.sqrt(1 - 0.49 - 0.25 - 0.16)]
    weights = {str(s.n): x**2 for s, x in zip(states, amps)}
    view4 = gauge_absorb(normalize(Wavefunctional.from_states(list(zip(states, amps)))))
    samples = 10**6
    freqs4 = sample_selflocation(view4, part, samples, seed=4808)
    chi2 = sum(
        (freqs4[lab] * samples - weights[lab] * samples) ** 2 / (weights[lab] * samples)
        for lab in weights
    )
    threshold = stats.chi2.ppf(1 - 1e-3, df=3)
    assert chi2 < threshold

    # The streamed guide-table counts give the very frequencies of one
    # searchsorted over all draws at once.
    monkeypatch.setattr(born, "_draw_counts", oneshot_draw_counts)
    assert sample_selflocation(view, part, 10**6, seed=808) == freqs
    assert sample_selflocation(view4, part, samples, seed=4808) == freqs4
    report("criterion-8 selflocation-sampling", f"chi2 {chi2:.2f} < {threshold:.2f}")


# SHA-256 of the JSON list, per seed 0..99, of [branch counts, branch events,
# merge events, entropies rounded to 12 places] forward and backward, as
# recorded with the pairwise component loop before branch components came
# from fragment signatures.
CRITERION_9_SUMMARY_SHA256 = "ca6f4cc8e8289da1337d3d8129ad8e80ca8d781bf682fd06ca9b07cc7a517a97"


def test_criterion_09_branching_structure():
    rules = rul1_loads((CONFIG_DIR / "reference_branching.rul").read_text())
    part = vertex_count_partition(1)
    non_decreasing = 0
    rows = []
    for seed in range(100):
        summary = asymmetry_experiment(
            rules, part, epochs=6, seed=seed, dt=0.2, max_dim=96, k_min=2
        )
        counts = summary.forward.branch_counts
        if all(x <= y for x, y in zip(counts, counts[1:])):
            non_decreasing += 1
        rows.append(
            [
                [d.branch_counts, d.branch_events, d.merge_events, [round(h, 12) for h in d.entropies]]
                for d in (summary.forward, summary.backward)
            ]
        )
    # The summaries are those of the pairwise component loop, unchanged.
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CRITERION_9_SUMMARY_SHA256

    # Structural checks on the shipped configuration itself.
    config = ExperimentConfig.from_file(str(CONFIG_DIR / "reference_branching.json"))
    from spacestates import ssg1_loads
    from spacestates.dynamics import expand_reachable as expand

    initial = ssg1_loads((CONFIG_DIR / "reference_branching.ssg").read_text())
    psi0 = normalize(Wavefunctional.from_states([(initial, 1.0)]))
    gen = expand(psi0, rules, config.max_dim, accept_truncation=True)
    series = [psi0]
    for _ in range(config.epochs):
        series.append(evolve(series[-1], gen, config.dt, config.steps))
    tree = track(series, part, config.k_min)
    assert len(tree.roots) == 1
    for event in tree.events:
        if event.kind != "branch":
            continue
        parent = tree.node(event.parent_ids[0])
        assert abs(sum(event.weights) - parent.weight) <= 1e-9

    # Regression value measured once on this configuration and frozen.
    assert non_decreasing >= 95
    report("criterion-9 branching-structure", f"{non_decreasing}/100 seeds non-decreasing")


def test_criterion_10_determinism(tmp_path):
    for name in ("two_state_rabi", "reference_branching"):
        digests = []
        for label in ("a", "b"):
            out = tmp_path / f"{name}-{label}"
            config = ExperimentConfig.from_file(
                str(CONFIG_DIR / f"{name}.json"), {"out_dir": str(out)}
            )
            run(config)
            digests.append(
                {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.iterdir())
                }
            )
        assert digests[0] == digests[1], name
    report("criterion-10 determinism", "2 configs x 2 runs byte-identical")
