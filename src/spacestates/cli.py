"""Experiment runner: config parsing, pipeline orchestration, file emission.

Configs are single JSON files with a strict key schema (unknown keys are
rejected). Identical config and seed produce byte-identical artifacts: all
floats are serialized as shortest round-trip decimals, every collection is
emitted in sorted order, and no timestamps enter any file.

Exit codes: 0 ok, 1 config error (including a value of the wrong type, in
the file or in an override, `max_dim`, `epochs`, `steps`, `samples` or
`verify_corpus` above its limit, and a k_min whose fragment count on the
expanded basis exceeds `spacegraph.FRAGMENT_LIMIT`), 2 rule file error,
3 truncation refused (the reachable closure passes `max_dim` without
`accept_truncation`), 4 numerical failure (norm drift or non-finite
amplitudes), 5 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .born import MAX_DEPTH, build_refinement, count_estimate, sample_selflocation
from .branching import branch_events_jsonl, irreversibility_scan, track
from .corpus import distinct_states, random_space_state, random_wavefunctional
from .dynamics import (
    ACTION_MIN_DIM,
    Generator,
    NumericalFailure,
    RuleFileError,
    TruncationExceeded,
    evolve,
    expand_reachable,
    rul1_loads,
)
from .macrostates import MacroPartition, builtin_classifiers, partition_by_name, verify_projector_algebra
from .reference import bisection_refinement, brute_force_assoc_kind, brute_force_common_subgraph_size, expm_eigh
from .spacegraph import (
    AssocKind,
    FragmentLimitExceeded,
    Phase,
    check_fragment_count,
    classify_associability,
    ssg1_loads,
)
from .wavefunctional import (
    Wavefunctional,
    gauge_absorb,
    macro_weights,
    norm,
    normalize,
    reconstruct,
    wfn1_dumps,
)

ENV_PREFIX = "SPACESTATES_"
NORM_DRIFT_LIMIT = 1e-8

# Upper bounds on the sizes a config may ask for, so that every accepted
# config runs in bounded time and memory. The dense float64 generator takes
# 32 MiB at MAX_DIM_LIMIT. From `dynamics.ACTION_MIN_DIM` states on,
# evolution applies the Taylor action and forms no n x n propagator, so a
# fresh `run` of the reference config at 2048 peaks at about 83 MB in 1.3 s
# (2 cores, 1 BLAS thread). A time step whose Taylor plan needs more
# products than the basis has states still takes the dense Padé propagator,
# which peaks at about 628 MB at 2048.
MAX_DIM_LIMIT = 2048
EPOCHS_LIMIT = 1000
STEPS_LIMIT = 1000
# Drawing takes about 11 ns a sample (16 ns over 2048 states; 20M samples,
# one core, Python 3.11, numpy 2.4), so SAMPLES_LIMIT allows about 11-16 s
# of drawing. The verify corpus takes about 200 us a state, so its limit
# allows about 20 s.
SAMPLES_LIMIT = 10**9
VERIFY_CORPUS_LIMIT = 100_000


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    """The config schema: each init field is one config key, with its type
    and default; a field without a default is a required key. The `key`
    metadata names the JSON key where it differs from the field name."""

    rules_file: str
    initial_state_file: str
    partition_spec: dict = field(metadata={"key": "partition"})
    k_min: int = 2
    dt: float = 0.1
    steps: int = 1
    epochs: int = 4
    depth_max: int = 10
    samples: int = 100_000
    seed: int = 0
    out_dir: str = "out"
    max_dim: int = 128
    accept_truncation: bool = False
    # Absent means `epochs`; JSON null is refused like any other wrong type.
    horizon: int | None = None
    verify_corpus: int = 200
    base_dir: Path = field(default=Path(), init=False)

    def __post_init__(self) -> None:
        if self.horizon is None:
            self.horizon = self.epochs

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "ExperimentConfig":
        """Read, type-check and validate a config; `overrides` replace file
        keys and pass the same checks."""
        p = Path(path)
        try:
            raw = json.loads(p.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw.update(overrides or {})
        keys = {_key(f): f for f in fields(cls) if f.init}
        unknown = sorted(set(raw) - set(keys))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        types = get_type_hints(cls)
        values: dict = {}
        for key, f in keys.items():
            if key in raw:
                values[f.name] = _checked(key, raw[key], types[f.name])
            elif f.default is MISSING:
                raise ConfigError(f"missing required config key: {key}")

        part = values["partition_spec"]
        unknown_part = sorted(set(part) - {"name", "params"})
        if unknown_part:
            raise ConfigError(f"unknown partition keys: {', '.join(unknown_part)}")
        if "name" not in part or not isinstance(part["name"], str):
            raise ConfigError("partition.name is required")
        params = part.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("partition.params must be an object")
        values["partition_spec"] = {"name": part["name"], "params": params}

        cfg = cls(**values)
        cfg.base_dir = p.parent
        cfg.validate()
        return cfg

    def validate(self) -> None:
        checks = [
            (self.k_min >= 1, "k_min must be >= 1"),
            (math.isfinite(self.dt) and self.dt != 0, "dt must be finite and nonzero"),
            (1 <= self.steps <= STEPS_LIMIT, f"steps must be in [1, {STEPS_LIMIT}]"),
            (0 <= self.epochs <= EPOCHS_LIMIT, f"epochs must be in [0, {EPOCHS_LIMIT}]"),
            (0 <= self.depth_max <= MAX_DEPTH, f"depth_max must be in [0, {MAX_DEPTH}]"),
            (1 <= self.samples <= SAMPLES_LIMIT, f"samples must be in [1, {SAMPLES_LIMIT}]"),
            (self.seed >= 0, "seed must be >= 0"),
            (1 <= self.max_dim <= MAX_DIM_LIMIT, f"max_dim must be in [1, {MAX_DIM_LIMIT}]"),
            (self.horizon >= 0, "horizon must be >= 0"),
            (0 <= self.verify_corpus <= VERIFY_CORPUS_LIMIT, f"verify_corpus must be in [0, {VERIFY_CORPUS_LIMIT}]"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def partition(self) -> MacroPartition:
        try:
            return partition_by_name(self.partition_spec["name"], self.partition_spec["params"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad partition: {exc}") from exc

    def resolved(self, input_sha256: dict[str, str]) -> dict:
        """Every config key but `out_dir`, as hashed into the manifest: `dt`
        is written as its repr, and `rules_file` and `initial_state_file` as
        the SHA-256 of the file's bytes, given in `input_sha256` by key, so
        that the hash names the inputs run, not the paths they were read from."""
        out = {_key(f): getattr(self, f.name) for f in fields(self) if f.init and f.name != "out_dir"}
        out["dt"] = repr(self.dt)
        out.update(input_sha256)
        return out

    def sha256(self, input_sha256: dict[str, str]) -> str:
        blob = json.dumps(self.resolved(input_sha256), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def resolve_path(self, relative: str) -> Path:
        p = Path(relative)
        return p if p.is_absolute() else self.base_dir / p


def _key(f: Field) -> str:
    return f.metadata.get("key", f.name)


def _checked(key: str, value, typ):
    """`value` if it has type `typ`, an int widened to float where a float is
    expected; bool is not an int here, and null is no value."""
    if typ is float and type(value) is int:
        value = float(value)
    if value is None or isinstance(value, bool) != (typ is bool) or not isinstance(value, typ):
        name = getattr(typ, "__name__", typ)
        raise ConfigError(f"bad type for {key}: expected {name}, got {type(value).__name__}")
    return value


def _load_inputs(config: ExperimentConfig):
    """The initial state, the rules, and the SHA-256 of each input file's
    bytes by config key, each file read once."""
    initial_path = config.resolve_path(config.initial_state_file)
    try:
        initial_bytes = initial_path.read_bytes()
        initial = ssg1_loads(initial_bytes.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load initial state {initial_path}: {exc}") from exc
    rules_path = config.resolve_path(config.rules_file)
    try:
        rules_bytes = rules_path.read_bytes()
        rules = rul1_loads(rules_bytes.decode("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise RuleFileError(f"cannot read rules file: {exc}") from exc
    except RuleFileError as exc:
        raise RuleFileError(f"{rules_path}: {exc}") from exc
    digests = {
        "initial_state_file": hashlib.sha256(initial_bytes).hexdigest(),
        "rules_file": hashlib.sha256(rules_bytes).hexdigest(),
    }
    return initial, rules, digests


def run(config: ExperimentConfig) -> dict[str, str]:
    """Execute the pipeline and write all artifacts; returns {filename: sha256}."""
    partition = config.partition()
    initial, rules, input_sha256 = _load_inputs(config)
    psi0 = normalize(Wavefunctional.from_states([(initial, 1.0 + 0j)]))
    gen = expand_reachable(psi0, rules, config.max_dim, config.accept_truncation)
    # Branch tracking labels every connected k_min-vertex fragment of every
    # support state; C(n, k_min) grows with n, so the largest state decides.
    try:
        check_fragment_count(max(state.n for state in gen.basis), config.k_min)
    except FragmentLimitExceeded as exc:
        raise ConfigError(f"k_min too large for the expanded basis: {exc}") from None

    series = [psi0]
    for _ in range(config.epochs):
        nxt = evolve(series[-1], gen, config.dt, config.steps)
        drift = abs(norm(nxt) - 1.0)
        if drift > NORM_DRIFT_LIMIT:
            raise NumericalFailure(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT}")
        series.append(nxt)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, str] = {}

    def emit(name: str, text: str) -> None:
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        artifacts[name] = hashlib.sha256(data).hexdigest()

    weight_rows = ["epoch,label,weight"]
    for epoch, psi in enumerate(series):
        for label, weight in macro_weights(psi, partition).items():
            weight_rows.append(f"{epoch},{label},{weight!r}")
    emit("weights.csv", "\n".join(weight_rows) + "\n")

    tree = track(series, partition, config.k_min)
    irreversibility_scan(tree, config.horizon)
    emit("branches.jsonl", branch_events_jsonl(tree))
    summary_rows = ["epoch,branch_count,entropy"]
    entropies = tree.entropies()
    for epoch, count in enumerate(tree.branch_counts()):
        summary_rows.append(f"{epoch},{count},{entropies[epoch]!r}")
    emit("branch_summary.csv", "\n".join(summary_rows) + "\n")

    view = gauge_absorb(normalize(series[-1]))
    refinement = build_refinement(view, config.depth_max, partition)
    count_rows = ["depth,label,n_alpha,straddlers,estimate,exact,bound"]
    for depth in range(config.depth_max + 1):
        report = count_estimate(refinement, partition, depth)
        for lc in report.per_label:
            count_rows.append(
                f"{depth},{lc.label},{lc.n_alpha},{report.straddlers},"
                f"{float(lc.estimate)!r},{float(lc.exact)!r},{float(lc.bound)!r}"
            )
    emit("count_report.csv", "\n".join(count_rows) + "\n")

    freqs = sample_selflocation(view, partition, config.samples, config.seed)
    sampler_rows = ["label,frequency"]
    sampler_rows.extend(f"{label},{freq!r}" for label, freq in freqs.items())
    emit("sampler.csv", "\n".join(sampler_rows) + "\n")

    emit("initial_state.wfn", wfn1_dumps(psi0))
    emit("final_state.wfn", wfn1_dumps(series[-1]))

    manifest = {
        "config_sha256": config.sha256(input_sha256),
        "files": dict(sorted(artifacts.items())),
        "seed": config.seed,
        "tool_version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return artifacts


# ---------------------------------------------------------------------------
# Verification suite.
# ---------------------------------------------------------------------------


def verify(config: ExperimentConfig) -> tuple[list[str], bool]:
    """Run the invariant suite; returns (report lines, all_passed)."""
    lines: list[str] = []
    ok = True

    def record(name: str, status: str, detail: str = "") -> None:
        nonlocal ok
        if status == "FAIL":
            ok = False
        lines.append(f"{status} {name}" + (f": {detail}" if detail else ""))

    rng = random.Random(config.seed)
    corpus = [random_space_state(rng) for _ in range(config.verify_corpus)]

    # Projector algebra on every builtin partition.
    if not corpus:
        record("projector-algebra", "SKIP", "empty corpus")
    else:
        bad = []
        for partition in builtin_classifiers():
            report = verify_projector_algebra(partition, corpus)
            if not report.passed:
                bad.append(f"{partition.name}: {report.violations}")
        record("projector-algebra", "FAIL" if bad else "PASS", "; ".join(bad))

    # Unitarity of evolution on a synthetic 64-dimensional generator.
    states = distinct_states(rng, 64)
    nrng = np.random.Generator(np.random.Philox(config.seed))
    a = nrng.normal(size=(64, 64)) + 1j * nrng.normal(size=(64, 64))
    h = a + a.conj().T
    gen = Generator(tuple(states), h, frozenset())
    amps = nrng.normal(size=64) + 1j * nrng.normal(size=64)
    psi = normalize(Wavefunctional.from_states(zip(states, amps)))
    evolved = evolve(psi, gen, dt=0.02, steps=100)
    drift = abs(norm(evolved) - 1.0)
    # The Padé propagator against an independent eigendecomposition.
    deviation = float(np.abs(gen.propagator(0.02) - expm_eigh(h, 0.02)).max())
    record(
        "unitarity",
        "PASS" if drift < 1e-10 and deviation <= 1e-12 else "FAIL",
        f"norm drift {drift:.3e}, propagator deviation from eigh {deviation:.3e}",
    )

    # Gauge absorption round trip: amplitudes through reconstruct(), states
    # through the absorbed state, which must keep the source's gauge class
    # and give back its exact fields when rotated back by theta.
    worst = 0.0
    checked = moved = 0
    for _ in range(10):
        psi = random_wavefunctional(rng, n_entries=8)
        view = gauge_absorb(psi)
        if any(r < 0 for _s, r in view.entries.values()):
            record("gauge-roundtrip", "FAIL", "negative density")
            break
        back = reconstruct(view)
        if set(back.entries) != set(psi.entries):
            record("gauge-roundtrip", "FAIL", "support changed")
            break
        worst = max(
            worst,
            max(abs(back.entries[k][1] - psi.entries[k][1]) for k in psi.entries),
        )
        for key, (source, _amp) in psi.entries.items():
            absorbed = view.absorbed_state(key)
            undone = absorbed.gauge_rotated(-Phase.from_radians(view.gauge_log[key]).turns)
            checked += 1
            moved += absorbed.gauge_key != source.gauge_key or (
                (undone.geometry, undone.fields) != (source.geometry, source.fields)
            )
    else:
        record(
            "gauge-roundtrip",
            "PASS" if worst <= 1e-15 and not moved else "FAIL",
            f"max amplitude error {worst:.3e}, {checked - moved}/{checked} absorbed states round-trip",
        )

    # Refinement: the bisection oracle's cells have equal exact weight, and
    # the closed-form counts equal the oracle's cell-by-cell counts, both on
    # random weights and on equal weights of 1/16, whose label boundaries
    # fall exactly on cell edges.
    partition = config.partition()
    psi = random_wavefunctional(rng, n_entries=24)
    equal = Wavefunctional.from_states((state, 0.25) for state in list(psi.states())[:16])
    views = (gauge_absorb(psi), gauge_absorb(equal))
    depth_max = 8
    worst = 0.0
    disagree = 0
    for view in views:
        oracle = bisection_refinement(view, depth_max, partition)
        refinement = build_refinement(view, depth_max, partition)
        for depth in range(depth_max + 1):
            target = oracle.total_weight() / 2**depth
            for i in range(2**depth):
                worst = max(worst, abs(float(oracle.cell_weight(depth, i) - target)))
            report = count_estimate(refinement, partition, depth)
            closed = ({lc.label: lc.n_alpha for lc in report.per_label}, report.straddlers)
            disagree += closed != oracle.count(partition, depth)
    record(
        "refinement-weights",
        "PASS" if worst <= 1e-12 and not disagree else "FAIL",
        f"max cell deviation {worst:.3e}, closed-form counts differ at {disagree} "
        f"of {len(views) * (depth_max + 1)} depths",
    )

    # Associability classifier against the brute-force oracle.
    if not corpus:
        record("oracle-equivalence", "SKIP", "empty corpus")
    else:
        # Kinds on every pair; overlaps (fraction times the smaller vertex
        # count) on every pair that is not globally associable.
        pairs = min(len(corpus) // 2, 40)
        overlaps = bad_kinds = bad_overlaps = 0
        for a, b in zip(corpus[0 : 2 * pairs : 2], corpus[1 : 2 * pairs : 2]):
            res = classify_associability(a, b, config.k_min)
            bad_kinds += res.kind is not brute_force_assoc_kind(a, b, config.k_min)
            if res.kind is not AssocKind.GLOBALLY_ASSOCIABLE:
                overlaps += 1
                size = res.overlap_fraction * min(a.n, b.n)
                bad_overlaps += size != brute_force_common_subgraph_size(a, b)
        record(
            "oracle-equivalence",
            "PASS" if bad_kinds == bad_overlaps == 0 else "FAIL",
            f"{pairs - bad_kinds}/{pairs} kinds agree, {overlaps - bad_overlaps}/{overlaps} overlaps agree",
        )

    # One step from ACTION_MIN_DIM states on, taken by `Generator.step` as a
    # run at that size takes it, against the eigendecomposition: a real
    # symmetric generator with about six nonzeros per row, like the
    # reference config's.
    n = ACTION_MIN_DIM
    a = np.where(nrng.random((n, n)) < 3.0 / n, nrng.normal(size=(n, n)), 0.0)
    h = a + a.T
    gen = Generator(tuple(distinct_states(rng, n)), h, frozenset())
    v = nrng.normal(size=n) + 1j * nrng.normal(size=n)
    v /= np.linalg.norm(v)
    deviation = float(np.abs(gen.step(0.2)(v) - expm_eigh(h, 0.2) @ v).max())
    record(
        "taylor-action",
        "PASS" if deviation <= 1e-12 else "FAIL",
        f"{n}-state real generator, deviation from eigh {deviation:.3e}",
    )

    return lines, ok


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _env_overrides() -> dict:
    overrides = {}
    seed = os.environ.get(ENV_PREFIX + "SEED")
    if seed:
        try:
            overrides["seed"] = int(seed)
        except ValueError:
            raise ConfigError(f"{ENV_PREFIX}SEED must be an integer, got {seed!r}") from None
    if os.environ.get(ENV_PREFIX + "OUT"):
        overrides["out_dir"] = os.environ[ENV_PREFIX + "OUT"]
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spacestates",
        description="Branching-wavefunctional experiments on labeled-graph geometries. "
        f"Environment overrides: {ENV_PREFIX}SEED, {ENV_PREFIX}OUT (command-line flags win).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        overrides = _env_overrides()
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        config = ExperimentConfig.from_file(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            artifacts = run(config)
            print(f"wrote {len(artifacts) + 1} artifacts to {config.out_dir}")
            return 0
        lines, ok = verify(config)
        for line in lines:
            print(line)
        return 0 if ok else 5
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RuleFileError as exc:
        print(f"rule file error: {exc}", file=sys.stderr)
        return 2
    except TruncationExceeded as exc:
        print(f"truncation refused: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
