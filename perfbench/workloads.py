"""Workload definitions, seeded input generation and the child-process runner.

Every workload starts from the shipped reference config. The benchmark writes
the program's inputs into a work directory from the workload seed; the
program receives only those generated files.

* ``grow_ref300`` and ``refine_ref20`` write a config and a copy of the
  reference rules whose couplings are jittered by up to +-10% from the seed.
* ``sweep_ref96`` writes a sweep spec and an unjittered copy of the reference
  rules (criterion 9's parameters); the seed picks a window of consecutive
  coupling seeds, which ``asymmetry_experiment`` jitters itself.

Seeds map onto ``VARIANTS`` distinct inputs (seed modulo ``VARIANTS``), one
per golden record taken at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = ROOT / "configs" / "reference_branching"
VARIANTS = 16
COUPLING_JITTER = 0.1
# BLAS threads in every child; at or below the core count so that a change
# trading CPU for wall time shows up in cpu_s.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    "grow_ref300": {"kind": "run", "max_dim": 300, "depth_max": 10, "samples": 200_000},
    "refine_ref20": {"kind": "run", "max_dim": 96, "depth_max": 20, "samples": 2_000_000},
    "sweep_ref96": {
        "kind": "sweep",
        "epochs": 6,
        "dt": 0.2,
        "max_dim": 96,
        "k_min": 2,
        "seeds": 20,
    },
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def jittered_rules(text: str, seed: int) -> str:
    """The RUL1 text with every ``rule <id> <coupling>`` line rescaled by a
    seeded factor in [1 - COUPLING_JITTER, 1 + COUPLING_JITTER]."""
    rng = random.Random(seed)
    out = []
    for line in text.splitlines():
        head = line.split()
        if len(head) == 3 and head[0] == "rule":
            factor = 1.0 + COUPLING_JITTER * (2.0 * rng.random() - 1.0)
            line = f"rule {head[1]} {float(head[2]) * factor!r}"
        out.append(line)
    return "\n".join(out) + "\n"


def prepare(name: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs into ``work``; returns the job template."""
    spec = WORKLOADS[name]
    v = variant(seed)
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    rules_text = REFERENCE.with_suffix(".rul").read_text()
    reference = json.loads(REFERENCE.with_suffix(".json").read_text())
    if spec["kind"] == "run":
        (inputs / "rules.rul").write_text(jittered_rules(rules_text, v))
        shutil.copyfile(REFERENCE.with_suffix(".ssg"), inputs / "initial.ssg")
        config = dict(reference)
        config.update(
            rules_file="rules.rul",
            initial_state_file="initial.ssg",
            max_dim=spec["max_dim"],
            depth_max=spec["depth_max"],
            samples=spec["samples"],
            seed=v,
            out_dir="out",
        )
    else:
        (inputs / "rules.rul").write_text(rules_text)
        config = {
            "rules_file": str(inputs / "rules.rul"),
            "partition": reference["partition"],
            "seed_start": v * spec["seeds"],
            **{k: spec[k] for k in ("epochs", "dt", "max_dim", "k_min", "seeds")},
        }
    config_path = inputs / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return {"kind": spec["kind"], "config": str(config_path), "variant": v}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(job: dict, work: Path, tag: str) -> dict | None:
    """Run one job in a fresh interpreter; returns its result, or None when
    the child failed (its stderr is passed through)."""
    job_path = work / f"{tag}.job.json"
    result_path = work / f"{tag}.result.json"
    job_path.write_text(json.dumps(job, sort_keys=True))
    result_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "op.py"), str(job_path), str(result_path), repr(t0)],
            env=child_env(),
            cwd=str(work),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{tag}: killed after {CHILD_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(f"{tag}: exit code {proc.returncode}\n{proc.stderr[-4000:]}")
        return None
    return json.loads(result_path.read_text())
