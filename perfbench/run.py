"""The spacestates benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One closed-loop client: every operation runs in a fresh interpreter, and the
next starts only after the previous one has finished and its outputs have
been checked. Operations start until ``--seconds`` have passed (at least
one; with ``--trace 1`` at least one traced and one untraced).

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s``,
``cpu_s`` and ``peak_rss_mb``, each the median over the run's samples.
``setup_s`` also samples ``SETUP_PROBES`` set-up-only processes.
``fail_frac`` (failed / attempted operations; an operation is one run, or
one seed of the sweep) is printed in the summary and carried by the
``attempted`` and ``failed`` fields of the result.

``--trace 1`` alternates traced and untraced operations and reports the
per-layer metrics named in ``BENCHMARK.json``, the tracing overhead (traced
minus untraced median ``wall_s``), the traced wall time that no layer below
the root span covers (``trace.unattributed_s``) and the symmetric
canonical-labeling probes.

The last line of standard output is the JSON result; the lines before it
give the environment and a readable summary. Everything written goes under
``perfbench/.work``. The benchmark exits with code 2, printing no result,
when the package or the reference config cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import BENCH_DIR, BLAS_THREADS, ROOT, WORKLOADS, prepare, run_child

WORK_ROOT = BENCH_DIR / ".work"
GOLDEN_DIR = BENCH_DIR / "golden"
SETUP_PROBES = 3
# Sized so that each takes about a second at the commit that introduced
# the benchmark (star with 7 leaves ~0.65 s, K7 ~1.6 s; one more vertex
# costs about 10x).
STAR_LEAVES = 7
CLIQUE_SIZE = 7
# The span each operation's traced call opens; every other span is a layer below it.
ROOT_SPANS = ("cli.run", "branching.asymmetry_experiment")

# Per-layer metric -> span whose outermost inclusive time it reports.
SPAN_TIMES = {
    "spacegraph.canonicalize_s": "spacegraph.canonicalize",
    "spacegraph.classify_s": "spacegraph.classify_miss",
    "dynamics.expand_s": "dynamics.expand",
    "dynamics.match_s": "dynamics.match",
    "dynamics.apply_s": "dynamics.apply",
    "dynamics.evolve_s": "dynamics.evolve",
    "dynamics.propagator_s": "dynamics.propagator",
    "wavefunctional.from_states_s": "wavefunctional.from_states",
    "wavefunctional.gauge_s": "wavefunctional.gauge",
    "wavefunctional.normalize_s": "wavefunctional.normalize",
    "wavefunctional.macro_weights_s": "wavefunctional.macro_weights",
    "wavefunctional.wfn1_s": "wavefunctional.wfn1",
    "macrostates.label_s": "macrostates.label",
    "branching.track_s": "branching.track",
    "branching.irrev_s": "branching.irrev",
    "born.refine_s": "born.refine",
    "born.count_s": "born.count",
    "born.sample_s": "born.sample",
}
# Per-layer metric -> exact counter (span call counts and result counters).
COUNTERS = {
    "spacegraph.canonicalize_calls": "spacegraph.canonicalize",
    "spacegraph.classify_calls": "spacegraph.classify",
    "spacegraph.classify_miss": "spacegraph.classify_miss",
    "dynamics.rule_app_calls": "dynamics.rule_app",
    "dynamics.basis_dim": "dynamics.basis_dim",
    "dynamics.boundary_states": "dynamics.boundary_states",
    "dynamics.propagator_calls": "dynamics.propagator",
    "macrostates.label_calls": "macrostates.label",
    "branching.nodes": "branching.nodes",
    "branching.events": "branching.events",
    "born.cells": "born.cells",
    "born.straddlers": "born.straddlers",
}


def tail_percentile(values: list[float]):
    """The highest of a few standard percentiles that has at least ten
    samples beyond it, as (percentile, value), or None."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = len(ordered) * (1 - p / 100)
        if beyond >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def environment(child_env: dict, seed: int, variant: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload_seed": seed,
        "input_variant": variant,
        **child_env,
    }


class Run:
    """One invocation: the operations made, their samples and failures."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.seed, self.trace = name, seed, trace
        self.spec = WORKLOADS[name]
        self.work = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.job = prepare(name, seed, self.work)
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        if self.spec["kind"] == "run":
            self.golden = golden[str(self.job["variant"])]
            self.samples = json.loads(Path(self.job["config"]).read_text())["samples"]
        else:
            self.golden = golden
            first = self.job["variant"] * self.spec["seeds"]
            self.seeds = list(range(first, first + self.spec["seeds"]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.ops: list[dict] = []

    def child(self, kind: str, tag: str, **extra) -> dict | None:
        job = {**self.job, "kind": kind, "trace": False, "run_id": f"{self.work.name}/{tag}", **extra}
        result = run_child(job, self.work, tag)
        if result is not None and kind != "probe":
            self.setup_s.append(result["setup_s"])
        return result

    def check(self, out: Path) -> tuple[int, list[str]]:
        """(failed operations, problems) for one output directory."""
        if self.spec["kind"] == "run":
            problems = checks.check_run(out, self.golden, self.samples)
            return int(bool(problems)), problems
        bad = checks.check_sweep(out, self.golden, self.seeds)
        return len(bad), [p for ps in bad.values() for p in ps]

    def operation(self, index: int, traced: bool) -> None:
        out = self.work / f"out{index}"
        out.mkdir()
        tag = f"op{index}"
        result = self.child(
            self.spec["kind"], tag, out_dir=str(out), trace=traced, spans_path=str(self.work / f"spans-{tag}.jsonl")
        )
        per_op = 1 if self.spec["kind"] == "run" else len(self.seeds)
        self.attempted += per_op
        if result is None:
            self.failed += per_op
            self.problems.append(f"{tag}: process failed")
            return
        failed, problems = self.check(out)
        self.failed += failed
        self.problems += [f"{tag}: {p}" for p in problems[:5]]
        result.update(out=str(out), traced=traced, ok=not problems)
        self.ops.append(result)

    def measure(self, seconds: float) -> None:
        """Make the remaining set-up probes, then operations until ``seconds``
        have passed, then the mutation self-check."""
        for i in range(1, SETUP_PROBES):
            if self.child(self.spec["kind"], f"setup{i}", setup_only=True) is None:
                self.problems.append(f"setup{i}: process failed")
        deadline = time.monotonic() + seconds
        index = 0
        while True:
            self.operation(index, traced=self.trace and index % 2 == 0)
            index += 1
            if time.monotonic() >= deadline and (not self.trace or index >= 2):
                break
        passing = [op for op in self.ops if op["ok"]]
        if passing:
            missed = checks.mutation_self_check(Path(passing[-1]["out"]), self.work / "mutant", lambda d: self.check(d)[0])
            self.problems += [f"mutation self-check: {m} was not rejected" for m in missed]

    # -- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict[str, list[float]]:
        plain = [op for op in self.ops if not op["traced"]]
        return {
            "setup_s": self.setup_s,
            "wall_s": [op["wall_s"] for op in plain],
            "cpu_s": [op["cpu_s"] for op in plain],
            "peak_rss_mb": [op["peak_rss_mb"] for op in plain],
        }

    def per_layer(self) -> dict[str, float]:
        traced = [op for op in self.ops if op["traced"]]
        plain = [op for op in self.ops if not op["traced"]]
        if not traced or not plain:
            self.problems.append("trace: no traced or no untraced operation completed")
            return {}
        probe = self.child("probe", "probe", star_leaves=STAR_LEAVES, clique_size=CLIQUE_SIZE)
        if probe is None:
            self.problems.append("probe: process failed")
            return {}
        first = traced[0]["trace"]
        for op in traced[1:]:
            if op["trace"]["counts"] != first["counts"]:
                self.problems.append("trace: exact counters differ between traced operations")
        reference = Path(plain[0]["out"])
        for op in traced:
            if not _same_outputs(Path(op["out"]), reference):
                self.problems.append(f"trace: traced outputs in {op['out']} differ from untraced ones")

        def med(fn) -> float:
            return statistics.median(fn(op) for op in traced)

        metrics = {m: med(lambda op, s=s: op["trace"]["inclusive_s"].get(s, 0.0)) for m, s in SPAN_TIMES.items()}
        metrics.update({m: float(first["counts"].get(c, 0)) for m, c in COUNTERS.items()})
        calls = first["counts"].get("spacegraph.classify", 0)
        metrics["spacegraph.assoc_hit_ratio"] = 1 - first["counts"].get("spacegraph.classify_miss", 0) / calls if calls else 0.0
        metrics["spacegraph.twin_share"] = first["twin_share"]
        metrics["spacegraph.twin_class_max"] = float(first["twin_class_max"])
        metrics["spacegraph.canon_star_s"] = probe["canon_star_s"]
        metrics["spacegraph.canon_clique_s"] = probe["canon_clique_s"]
        metrics["dynamics.norm_drift_max"] = max(op["trace"]["maxima"].get("dynamics.norm_drift_max", 0.0) for op in traced)
        metrics["cli.run_self_s"] = med(lambda op: op["trace"]["self_s"].get("cli.run", 0.0))
        metrics["branching.asymmetry_self_s"] = med(
            lambda op: op["trace"]["self_s"].get("branching.asymmetry_experiment", 0.0)
        )

        def below_root(op) -> float:
            return sum(v for k, v in op["trace"]["self_s"].items() if k not in ROOT_SPANS)

        traced_wall = med(lambda op: op["wall_s"])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(op["wall_s"] for op in plain)
        # Traced wall time that no layer below the root span covers: the
        # root's own body plus the driver loop around it. The self times of
        # all spans, the root's included, add up to the traced wall time by
        # construction, so that sum is not checked.
        metrics["trace.unattributed_s"] = med(lambda op: op["wall_s"] - below_root(op))
        metrics["trace.spans"] = float(first["spans"])
        for op in traced:
            self.problems += [f"trace: could not wrap {m}" for m in op["trace"]["missing"]]
        return metrics


def _same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict | None:
    """Measure one workload and print its summary; returns the result, or
    None when the workload's inputs or the package cannot be loaded."""
    try:
        run = Run(name, seed, trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot prepare {name}: {exc}", file=sys.stderr)
        return None
    # The first set-up probe; if it fails, the package itself cannot be loaded.
    first = run.child(run.spec["kind"], "setup0", setup_only=True)
    if first is None:
        print("perfbench: spacestates could not be imported and set up", file=sys.stderr)
        return None
    env = environment(first["environment"], seed, run.job["variant"])
    run.measure(seconds)

    samples = run.end_to_end()
    if trace:
        declared = bench["per_layer"]
        values = run.per_layer()
    else:
        declared = bench["end_to_end"]
        values = {m: statistics.median(v) for m, v in samples.items() if v}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        run.problems.append(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}

    why = {w["name"]: w["why"] for w in bench["workloads"]}
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {name} seed {seed}: {why.get(name, '')}")
    if not trace:
        for metric, vals in samples.items():
            tail = tail_percentile(vals)
            extra = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "too few samples for a tail percentile"
            unit = metrics.get(metric, {}).get("unit", "")
            print(f"  {metric:<12} median {values.get(metric, float('nan')):.4f} {unit:<3} n={len(vals):<3} {extra}")
    elif "trace.unattributed_s" in values:
        rest = values["trace.unattributed_s"]
        print(
            f"  trace: layers below the root span cover all but {rest:.4f} s "
            f"({rest / values['trace.wall_s']:.1%}) of the traced wall time; "
            f"tracing overhead {values['trace.overhead_s']:.4f} s"
        )
    print(f"  fail_frac    {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.4f} ratio")
    for problem in run.problems:
        print(f"  problem: {problem}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (run.work / "result.json").write_text(
        json.dumps({**result, "environment": env, "samples": samples}, indent=2, sort_keys=True) + "\n"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), bench)
        if result is None:
            return 2
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]], sort_keys=True))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
                },
                sort_keys=True,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
