"""Output checks behind ``fail_frac``.

They are tolerant of numeric noise but not of wrong results, so no byte
digest of an artifact is compared with a stored one:

* the manifest lists the seven artifacts and its hashes match the files;
* per-epoch macro weights sum to 1;
* every ``count_report.csv`` row satisfies ``|estimate - exact| <= bound``;
* sampler frequencies lie within a binomial tolerance of the exact weights;
* integers (branch counts, events, ``n_alpha``, straddlers, support sizes)
  equal the golden record taken when the benchmark was introduced, and
  floats match it within ``FLOAT_TOL`` (sampler frequencies within
  ``SAMPLER_SLACK`` draws);
* for the sweep, every seed's forward and backward branch counts and event
  counts equal the golden record, entropies within ``FLOAT_TOL``.

Each check function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

ARTIFACTS = frozenset(
    {
        "branch_summary.csv",
        "branches.jsonl",
        "count_report.csv",
        "final_state.wfn",
        "initial_state.wfn",
        "sampler.csv",
        "weights.csv",
    }
)
FLOAT_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-7
SAMPLER_Z = 6.0
SAMPLER_SLACK = 3
INT_COLUMNS = frozenset({"epoch", "branch_count", "depth", "n_alpha", "straddlers"})
STR_COLUMNS = frozenset({"label"})


def _rounded(x: float) -> float:
    # Ten significant digits keep stored values well inside FLOAT_TOL.
    return float(f"{x:.10g}")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        typed = {}
        for key, value in row.items():
            if key in INT_COLUMNS:
                typed[key] = int(value)
            elif key in STR_COLUMNS:
                typed[key] = value
            else:
                typed[key] = float(value)
        out.append(typed)
    return out


def _wfn_entries(path: Path) -> int:
    header = path.read_text().split("\n", 1)[0].split()
    return int(dict(part.split("=") for part in header[1:])["entries"])


def _read_run(out: Path) -> dict:
    return {name: _read_csv(out / f"{name}.csv") for name in ("weights", "branch_summary", "count_report", "sampler")}


def summarize_run(out: Path, tables: dict | None = None) -> dict:
    """The parts of a ``spacestates run`` output that the golden record pins.
    ``estimate`` and ``bound`` are left out: ``check_run`` derives them from
    ``n_alpha`` and ``straddlers``."""
    t = tables or _read_run(out)
    events = []
    for line in (out / "branches.jsonl").read_text().splitlines():
        record = json.loads(line)
        record["weights"] = [_rounded(w) for w in record["weights"]]
        events.append(record)
    return {
        "weights": [[r["epoch"], r["label"], _rounded(r["weight"])] for r in t["weights"]],
        "branch_summary": [[r["epoch"], r["branch_count"], _rounded(r["entropy"])] for r in t["branch_summary"]],
        "branches": events,
        "count_report": [[r["depth"], r["label"], r["n_alpha"], r["straddlers"]] for r in t["count_report"]],
        "exact": [[r["label"], _rounded(r["exact"])] for r in t["count_report"] if r["depth"] == 0],
        "sampler": [[r["label"], _rounded(r["frequency"])] for r in t["sampler"]],
        "entries": [_wfn_entries(out / "initial_state.wfn"), _wfn_entries(out / "final_state.wfn")],
    }


def summarize_sweep(out: Path) -> dict:
    """Per seed: forward and backward branch counts, the four event counts
    and both entropy series."""
    return {
        str(rec["seed"]): [
            rec["forward"],
            rec["backward"],
            rec["events"],
            [_rounded(h) for h in rec["entropy_forward"] + rec["entropy_backward"]],
        ]
        for rec in json.loads((out / "sweep.json").read_text())
    }


def compare(expected, actual, tol: float = FLOAT_TOL, path: str = "") -> list[str]:
    """Differences between two JSON-like values: floats within ``tol``,
    everything else (ints, strings, bools, structure) exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        ok = isinstance(expected, float) and isinstance(actual, float) and abs(expected - actual) <= tol
        return [] if ok else [f"{path}: {actual!r} != golden {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != golden {sorted(expected)}"]
        return [p for k in sorted(expected) for p in compare(expected[k], actual[k], tol, f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(actual)} items != golden {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in compare(e, a, tol, f"{path}[{i}]")]
    return [] if expected == actual and type(expected) is type(actual) else [f"{path}: {actual!r} != golden {expected!r}"]


def check_run(out: Path, golden: dict, samples: int) -> list[str]:
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        files = manifest["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"]
    if set(files) != ARTIFACTS:
        return [f"manifest lists {sorted(files)}"]
    problems = []
    for name, digest in sorted(files.items()):
        path = out / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: hash does not match the manifest")
    if problems:
        return problems
    try:
        tables = _read_run(out)
        got = summarize_run(out, tables)
    except (OSError, ValueError, KeyError) as exc:
        return [f"artifacts unreadable: {exc}"]

    sums: dict[int, float] = {}
    for row in tables["weights"]:
        sums[row["epoch"]] = sums.get(row["epoch"], 0.0) + row["weight"]
    problems += [f"weights.csv: epoch {e} sums to {s!r}" for e, s in sums.items() if abs(s - 1.0) > WEIGHT_SUM_TOL]

    exact = {}
    for row in tables["count_report"]:
        cells = 2 ** row["depth"]
        where = f"count_report.csv: depth {row['depth']} label {row['label']}"
        if row["estimate"] != row["n_alpha"] / cells or row["bound"] != row["straddlers"] / cells:
            problems.append(f"{where}: estimate or bound disagrees with the counts")
        if abs(row["estimate"] - row["exact"]) > row["bound"] + 1e-12:
            problems.append(f"{where}: estimate outside its bound")
        if row["depth"] == 0:
            exact[row["label"]] = row["exact"]
    for row in tables["sampler"]:
        p = exact.get(row["label"])
        if p is None:
            problems.append(f"sampler.csv: unknown label {row['label']}")
            continue
        tol = SAMPLER_Z * math.sqrt(max(p * (1 - p), 0.0) / samples) + 1.0 / samples
        if abs(row["frequency"] - p) > tol:
            problems.append(f"sampler.csv: label {row['label']} frequency {row['frequency']!r} vs weight {p!r}")

    sampler_tol = max(FLOAT_TOL, SAMPLER_SLACK / samples)
    for key in sorted(golden):
        tol = sampler_tol if key == "sampler" else FLOAT_TOL
        problems += compare(golden[key], got.get(key), tol, key)
    return problems


def check_sweep(out: Path, golden: dict, seeds: list[int]) -> dict[int, list[str]]:
    """Problems per failing seed; a seed is one operation of the sweep."""
    try:
        got = summarize_sweep(out)
    except (OSError, ValueError, KeyError) as exc:
        return {s: [f"sweep.json unreadable: {exc}"] for s in seeds}
    failures = {}
    for s in seeds:
        if str(s) not in got:
            failures[s] = [f"seed {s}: missing from sweep.json"]
        elif problems := compare(golden[str(s)], got[str(s)], FLOAT_TOL, f"seed {s}"):
            failures[s] = problems
    return failures


# ---------------------------------------------------------------------------
# Mutation self-check: every corruption below must be reported as a failure.
# ---------------------------------------------------------------------------


def _rehash(out: Path, name: str) -> None:
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _edit_csv_cell(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = fn(cells[i])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _run_mutations():
    def corrupt_byte(out: Path) -> None:
        data = bytearray((out / "weights.csv").read_bytes())
        data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
        (out / "weights.csv").write_bytes(bytes(data))

    def alter_n_alpha(out: Path) -> None:
        _edit_csv_cell(out / "count_report.csv", 1, "n_alpha", lambda v: str(int(v) + 1))
        _rehash(out, "count_report.csv")

    def alter_branch_count(out: Path) -> None:
        _edit_csv_cell(out / "branch_summary.csv", 2, "branch_count", lambda v: str(int(v) + 1))
        _rehash(out, "branch_summary.csv")

    def scale_weight(out: Path) -> None:
        _edit_csv_cell(out / "weights.csv", 2, "weight", lambda v: repr(float(v) * (1 + 1e-6)))
        _rehash(out, "weights.csv")

    return [corrupt_byte, alter_n_alpha, alter_branch_count, scale_weight]


def _sweep_mutations():
    def edit(out: Path, fn) -> None:
        seeds = json.loads((out / "sweep.json").read_text())
        fn(seeds[-1])
        (out / "sweep.json").write_text(json.dumps(seeds, sort_keys=True))

    def alter_forward(out: Path) -> None:
        edit(out, lambda rec: rec["forward"].__setitem__(-1, rec["forward"][-1] + 1))

    def alter_backward(out: Path) -> None:
        edit(out, lambda rec: rec["backward"].__setitem__(0, rec["backward"][0] + 1))

    def drop_seed(out: Path) -> None:
        seeds = json.loads((out / "sweep.json").read_text())
        (out / "sweep.json").write_text(json.dumps(seeds[:-1], sort_keys=True))

    return [alter_forward, alter_backward, drop_seed]


def mutation_self_check(out: Path, scratch: Path, check) -> list[str]:
    """Apply each mutation to a copy of a passing output directory and
    return the names of those that ``check(copy)`` failed to reject."""
    mutations = _sweep_mutations() if (out / "sweep.json").exists() else _run_mutations()
    missed = []
    for mutate in mutations:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(out, scratch)
        mutate(scratch)
        if not check(scratch):
            missed.append(mutate.__name__)
    shutil.rmtree(scratch, ignore_errors=True)
    return missed
