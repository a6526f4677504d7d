"""Record the golden outputs that the benchmark's checks compare against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

For every input variant of each named workload (default: all), runs the
operation once, untraced, and stores what ``checks.summarize_run`` or
``checks.summarize_sweep`` extracts in ``perfbench/golden/<workload>.json``.
Record only at a commit whose outputs are known to be right: from then on a
run whose integers differ from these records counts as failed.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import GOLDEN_DIR, WORK_ROOT
from workloads import VARIANTS, WORKLOADS, prepare, run_child


def record(name: str) -> dict:
    work = WORK_ROOT / f"golden-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    golden: dict = {}
    for variant in range(VARIANTS):
        job = prepare(name, variant, work)
        out = work / f"out{variant}"
        out.mkdir()
        job.update(out_dir=str(out), trace=False, run_id=f"golden/{name}/{variant}")
        if run_child(job, work, f"v{variant}") is None:
            raise SystemExit(f"{name} variant {variant} failed")
        if job["kind"] == "run":
            golden[str(variant)] = checks.summarize_run(out)
        else:
            golden.update(checks.summarize_sweep(out))
        print(f"{name} variant {variant} recorded", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return golden


def main(names: list[str]) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        golden = record(name)
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
