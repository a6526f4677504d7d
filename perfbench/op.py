"""One benchmark operation in a fresh interpreter.

    python3 perfbench/op.py JOB_JSON RESULT_JSON T0

``T0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so
``setup_s`` covers interpreter start, importing spacestates and loading and
validating the generated config and inputs. ``wall_s`` runs from there until
the last artifact is written (``run``) or the last seed finishes (``sweep``).

Job kinds (``setup_only`` stops a run or sweep job after its set-up):
  run    - ``cli.run`` on a generated config (what ``spacestates run`` does)
  sweep  - ``branching.asymmetry_experiment`` over consecutive coupling seeds
  probe  - cold ``canonicalize`` on a star and a clique (traced runs only)
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


# ---------------------------------------------------------------------------
# Layers: which function each span wraps, and the counters read off results.
# ---------------------------------------------------------------------------


def _after_expand(tracer, gen, _args) -> None:
    tracer.bump("dynamics.basis_dim", gen.dim)
    tracer.bump("dynamics.boundary_states", len(gen.boundary))
    tracer.captured.setdefault("basis", gen.basis)


def _after_evolve(tracer, out, args) -> None:
    def sq(psi):
        return sum(abs(amp) ** 2 for _state, amp in psi.entries.values())

    tracer.high("dynamics.norm_drift_max", abs(sq(out) ** 0.5 - sq(args[0]) ** 0.5))


def _after_track(tracer, tree, _args) -> None:
    tracer.bump("branching.nodes", len(tree.nodes))
    tracer.bump("branching.events", len(tree.events))


def _after_count(tracer, report, _args) -> None:
    tracer.bump("born.cells", 2**report.depth)
    tracer.bump("born.straddlers", report.straddlers)


def install_layers(tracer) -> None:
    from spacestates import born, branching, cli, dynamics, macrostates, spacegraph, wavefunctional

    fn, method = tracer.patch_function, tracer.patch_method
    fn(cli, "run", "cli.run")
    fn(branching, "asymmetry_experiment", "branching.asymmetry_experiment")
    fn(wavefunctional, "canonicalize", "spacegraph.canonicalize")
    fn(spacegraph, "classify_cached", "spacegraph.classify")
    fn(spacegraph, "classify_associability", "spacegraph.classify_miss")
    fn(dynamics, "expand_reachable", "dynamics.expand", _after_expand)
    fn(dynamics, "rule_applications", "dynamics.rule_app")
    fn(dynamics, "find_matches", "dynamics.match")
    fn(dynamics, "apply_rule", "dynamics.apply")
    fn(dynamics, "evolve", "dynamics.evolve", _after_evolve)
    method(dynamics.Generator, "propagator", "dynamics.propagator")
    method(wavefunctional.Wavefunctional, "from_states", "wavefunctional.from_states")
    fn(wavefunctional, "gauge_absorb", "wavefunctional.gauge")
    fn(wavefunctional, "normalize", "wavefunctional.normalize")
    fn(wavefunctional, "macro_weights", "wavefunctional.macro_weights")
    fn(wavefunctional, "wfn1_dumps", "wavefunctional.wfn1")
    method(macrostates.MacroPartition, "label_of", "macrostates.label")
    fn(branching, "track", "branching.track", _after_track)
    fn(branching, "irreversibility_scan", "branching.irrev")
    fn(born, "build_refinement", "born.refine")
    fn(born, "count_estimate", "born.count", _after_count)
    fn(born, "sample_selflocation", "born.sample")


def twin_stats(basis) -> tuple[float, int]:
    """Share of states with at least one twin pair, and the largest twin
    class. Vertices u, v are twins when their field labels are equal and
    their neighbourhoods, edge lengths included, agree outside {u, v}."""
    with_twin = 0
    largest = 1
    for state in basis:
        adj = state.geometry.adjacency()
        labels = {v: rec.label() for v, rec in state.fields.fields}
        verts = state.geometry.vertices
        cls = {v: v for v in verts}
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                if labels[u] != labels[v]:
                    continue
                nu = {w: x for w, x in adj[u].items() if w != v}
                nv = {w: x for w, x in adj[v].items() if w != u}
                if nu == nv:
                    cls[v] = cls[u]
        sizes: dict[int, int] = {}
        for v in verts:
            sizes[cls[v]] = sizes.get(cls[v], 0) + 1
        biggest = max(sizes.values())
        with_twin += biggest > 1
        largest = max(largest, biggest)
    return (with_twin / len(basis) if basis else 0.0), largest


# ---------------------------------------------------------------------------
# Job kinds.
# ---------------------------------------------------------------------------


def _setup(job: dict):
    """Import spacestates, load and validate the config and inputs."""
    from spacestates import cli, rul1_loads, ssg1_loads
    from spacestates.macrostates import partition_by_name

    if job["kind"] == "run":
        cfg = cli.ExperimentConfig.from_file(job["config"], {"out_dir": job.get("out_dir", "out")})
        cfg.partition()
        ssg1_loads(cfg.resolve_path(cfg.initial_state_file).read_text())
        rul1_loads(cfg.resolve_path(cfg.rules_file).read_text())
        return cfg
    if job["kind"] == "sweep":
        with open(job["config"]) as fh:
            spec = json.load(fh)
        with open(spec["rules_file"]) as fh:
            rules = rul1_loads(fh.read())
        part = spec["partition"]
        return spec, rules, partition_by_name(part["name"], part["params"])
    return None


def _run(cfg) -> None:
    from spacestates import cli

    cli.run(cfg)


def _sweep(setup) -> list[dict]:
    from spacestates import branching

    spec, rules, partition = setup
    out = []
    for seed in range(spec["seed_start"], spec["seed_start"] + spec["seeds"]):
        summary = branching.asymmetry_experiment(
            rules,
            partition,
            spec["epochs"],
            seed,
            dt=spec["dt"],
            max_dim=spec["max_dim"],
            k_min=spec["k_min"],
        )
        out.append(
            {
                "seed": seed,
                "forward": summary.forward.branch_counts,
                "backward": summary.backward.branch_counts,
                "events": [
                    summary.forward.branch_events,
                    summary.forward.merge_events,
                    summary.backward.branch_events,
                    summary.backward.merge_events,
                ],
                "entropy_forward": summary.forward.entropies,
                "entropy_backward": summary.backward.entropies,
            }
        )
    return out


def _probe(job: dict) -> dict:
    """Cold canonical labeling of a hub with k identical leaves and of K_k."""
    from spacestates import SpaceState, canonicalize

    out = {}
    for name, k, edges in (
        ("star", job["star_leaves"], [(0, i, 1) for i in range(1, job["star_leaves"] + 1)]),
        ("clique", job["clique_size"], [(i, j, 1) for i in range(job["clique_size"]) for j in range(i)]),
    ):
        n = k + 1 if name == "star" else k
        state = SpaceState.build({v: (1, 1, 0) for v in range(n)}, edges)
        start = time.perf_counter()
        canonicalize(state)
        out[f"canon_{name}_s"] = time.perf_counter() - start
    return out


def main(argv: list[str]) -> int:
    job_path, result_path, t0 = argv[0], argv[1], float(argv[2])
    with open(job_path) as fh:
        job = json.load(fh)
    setup = _setup(job)
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - t0, "environment": _environment()}

    if job["kind"] == "probe":
        result.update(_probe(job))
    elif not job.get("setup_only"):
        tracer = None
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer(job["run_id"])
            install_layers(tracer)
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        try:
            if job["kind"] == "run":
                _run(setup)
            else:
                seeds = _sweep(setup)
            wall1, cpu1 = time.perf_counter(), _cpu_s()
        finally:
            if tracer is not None:
                tracer.restore()
        result.update(wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0)
        if job["kind"] == "sweep":
            with open(job["out_dir"] + "/sweep.json", "w") as fh:
                json.dump(seeds, fh, sort_keys=True)
        if tracer is not None:
            from tracing import inclusive_times, self_by_name

            tracer.write(job["spans_path"])
            share, largest = twin_stats(tracer.captured.get("basis", ()))
            result["trace"] = {
                "inclusive_s": inclusive_times(tracer.spans),
                "self_s": self_by_name(tracer.spans),
                "counts": dict(tracer.counts),
                "maxima": tracer.maxima,
                "spans": len(tracer.spans),
                "missing": tracer.missing,
                "twin_share": share,
                "twin_class_max": largest,
            }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
