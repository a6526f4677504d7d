"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys

import pytest

import checks
import op
from run import GOLDEN_DIR
from tracing import Tracer, inclusive_times, self_times
from workloads import ROOT, prepare, run_child

sys.path.insert(0, str(ROOT / "src"))


def test_self_times_of_nested_spans():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["a", 0, 5.0, 9.0],
        ["a", 3, 6.0, 7.0],  # same name nested: counted once in inclusive time
        ["c", 0, 8.5, 12.0],  # overlaps the sibling and outlives the parent
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 1, 3 - 1, 1, 4 - 1, 1, 3.5])
    assert inclusive_times(spans) == pytest.approx({"root": 10, "a": 7, "b": 1, "c": 3.5})


def _layer_owners():
    from spacestates import dynamics, macrostates, wavefunctional

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "spacestates"]
    return modules + [dynamics.Generator, wavefunctional.Wavefunctional, macrostates.MacroPartition]


def test_every_wrapped_attribute_is_restored(tmp_path):
    from spacestates import cli

    owners = _layer_owners()
    before = [(o, dict(vars(o))) for o in owners]
    config = cli.ExperimentConfig.from_file(
        str(ROOT / "configs" / "reference_branching.json"),
        {"out_dir": str(tmp_path), "depth_max": 6, "samples": 1000, "max_dim": 24},
    )
    tracer = Tracer("restore-test")
    op.install_layers(tracer)
    try:
        cli.run(config)
    finally:
        tracer.restore()
    assert tracer.missing == []
    assert {"cli.run", "dynamics.expand", "spacegraph.canonicalize", "born.refine"} <= set(tracer.counts)
    for owner, attrs in before:
        after = vars(owner)
        changed = [k for k, v in attrs.items() if after.get(k) is not v]
        assert changed == [], f"{owner} still has wrapped {changed}"


@pytest.fixture(scope="module")
def grow_outputs(tmp_path_factory):
    """grow_ref300, variant 0, run once untraced and once traced."""
    work = tmp_path_factory.mktemp("grow")
    job = prepare("grow_ref300", 0, work)
    outs = {}
    for traced in (False, True):
        out = work / f"out-{traced}"
        out.mkdir()
        job.update(out_dir=str(out), trace=traced, run_id="test", spans_path=str(work / f"spans-{traced}.jsonl"))
        result = run_child(job, work, f"op-{traced}")
        assert result is not None
        outs[traced] = (out, result)
    return outs


def test_traced_run_writes_identical_artifacts(grow_outputs):
    (plain, _), (traced, result) = grow_outputs[False], grow_outputs[True]
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
    assert result["trace"]["counts"]["dynamics.basis_dim"] == 300


def test_checks_pass_and_reject_mutations_of_a_run(grow_outputs, tmp_path):
    out, _ = grow_outputs[False]
    golden = json.loads((GOLDEN_DIR / "grow_ref300.json").read_text())["0"]
    assert checks.check_run(out, golden, 200_000) == []
    missed = checks.mutation_self_check(out, tmp_path / "m", lambda d: checks.check_run(d, golden, 200_000))
    assert missed == []


def test_checks_pass_and_reject_mutations_of_a_sweep(tmp_path):
    job = prepare("sweep_ref96", 1, tmp_path)
    spec = json.loads((tmp_path / "inputs" / "config.json").read_text())
    spec["seeds"] = 2
    (tmp_path / "inputs" / "config.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    out.mkdir()
    job.update(out_dir=str(out), trace=False, run_id="test")
    assert run_child(job, tmp_path, "sweep") is not None
    golden = json.loads((GOLDEN_DIR / "sweep_ref96.json").read_text())
    seeds = [spec["seed_start"], spec["seed_start"] + 1]
    assert checks.check_sweep(out, golden, seeds) == {}
    missed = checks.mutation_self_check(out, tmp_path / "m", lambda d: checks.check_sweep(d, golden, seeds))
    assert missed == []


def test_compare_tolerates_float_noise_only():
    golden = {"n": 3, "w": [0.5, 0.25], "label": "2"}
    assert checks.compare(golden, {"n": 3, "w": [0.5 + 1e-12, 0.25], "label": "2"}) == []
    assert checks.compare(golden, {"n": 4, "w": [0.5, 0.25], "label": "2"})
    assert checks.compare(golden, {"n": 3, "w": [0.5 + 1e-6, 0.25], "label": "2"})
    assert checks.compare(golden, {"n": 3.0, "w": [0.5, 0.25], "label": "2"})
