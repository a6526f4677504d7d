import hashlib
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacestates import Wavefunctional, cli, dynamics, wfn1_loads
from spacestates.cli import SAMPLES_LIMIT, VERIFY_CORPUS_LIMIT, ConfigError, ExperimentConfig, _load_inputs, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def invoke(*argv):
    return main(list(argv))


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads((CONFIG_DIR / "two_state_rabi.json").read_text())
    cfg["rules_file"] = str(CONFIG_DIR / "two_state_rabi.rul")
    cfg["initial_state_file"] = str(CONFIG_DIR / "two_state_rabi.ssg")
    cfg["out_dir"] = str(tmp_path / "out")
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def reference_config(tmp_path, **overrides):
    cfg = json.loads((CONFIG_DIR / "reference_branching.json").read_text())
    cfg["rules_file"] = str(CONFIG_DIR / "reference_branching.rul")
    cfg["initial_state_file"] = str(CONFIG_DIR / "reference_branching.ssg")
    cfg["out_dir"] = str(tmp_path / "out")
    cfg.update(overrides)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(cfg))
    return path


def config_hash(path, overrides=None):
    """The `config_sha256` that `run` writes for the config at `path`."""
    config = ExperimentConfig.from_file(str(path), overrides)
    return config.sha256(_load_inputs(config)[2])


def hashes(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out_dir).iterdir())
    }


class TestConfigParsing:
    def test_unknown_key_rejected_with_key_name(self, tmp_path, capsys):
        path = write_config(tmp_path, mystery_knob=3)
        assert invoke("run", str(path)) == 1
        assert "mystery_knob" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path):
        cfg = json.loads(write_config(tmp_path).read_text())
        del cfg["rules_file"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="rules_file"):
            ExperimentConfig.from_file(str(path))

    def test_bad_types_and_ranges(self, tmp_path, capsys):
        for bad in (
            {"k_min": 0},
            {"dt": 0},
            {"steps": 0},
            {"depth_max": 99},
            {"samples": "many"},
            {"epochs": -1},
            {"partition": {"name": "no_such_partition"}},
            {"partition": {"name": "vertex_count", "extra": 1}},
            {"max_dim": 2049},
            {"epochs": 1001},
            {"steps": 1001},
            {"samples": SAMPLES_LIMIT + 1},
            {"verify_corpus": VERIFY_CORPUS_LIMIT + 1},
            {"horizon": None},
        ):
            path = write_config(tmp_path, **bad)
            assert invoke("run", str(path)) == 1, bad
            assert next(iter(bad)) in capsys.readouterr().err, bad
            assert not (tmp_path / "out").exists(), bad

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        assert invoke("run", str(path)) == 1

    def test_bool_not_accepted_as_int(self, tmp_path):
        path = write_config(tmp_path, seed=True)
        assert invoke("run", str(path)) == 1

    def test_override_of_wrong_type_names_the_key(self, tmp_path):
        path = str(write_config(tmp_path))
        for bad in ({"seed": "x"}, {"seed": True}, {"out_dir": 3}, {"horizon": None}, {"dt": "0.1"}):
            with pytest.raises(ConfigError, match=f"bad type for {next(iter(bad))}"):
                ExperimentConfig.from_file(path, bad)

    def test_every_key_but_out_dir_enters_the_hash(self, tmp_path):
        # The input files enter the hash by their bytes, so the other rule
        # and state files differ from the shipped ones in content.
        rules = (CONFIG_DIR / "two_state_rabi.rul").read_text()
        (tmp_path / "other.rul").write_text(rules.replace("rule 0 0.5", "rule 0 0.25"))
        (tmp_path / "other.ssg").write_text((CONFIG_DIR / "two_state_rabi.ssg").read_text() + "v 2 1 1 0\n")
        changed = {
            "rules_file": "other.rul",
            "initial_state_file": "other.ssg",
            "partition": {"name": "vertex_count"},
            "k_min": 3,
            "dt": 0.25,
            "steps": 2,
            "epochs": 5,
            "depth_max": 7,
            "samples": 99,
            "seed": 8,
            "max_dim": 9,
            "accept_truncation": True,
            "horizon": 3,
            "verify_corpus": 5,
        }
        keys = {f.metadata.get("key", f.name) for f in fields(ExperimentConfig) if f.init}
        assert set(changed) == keys - {"out_dir"}
        base = config_hash(write_config(tmp_path))
        for key, value in changed.items():
            assert config_hash(write_config(tmp_path, **{key: value})) != base, key
        assert config_hash(write_config(tmp_path), {"out_dir": "elsewhere"}) == base

    def test_hash_names_input_contents_not_paths(self, tmp_path):
        # Identical inputs under two paths give one hash; an input edited in
        # place gives another.
        manifests = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            for suffix in (".rul", ".ssg"):
                (tmp_path / name / f"rabi{suffix}").write_bytes((CONFIG_DIR / f"two_state_rabi{suffix}").read_bytes())
            path = write_config(
                tmp_path,
                name=f"{name}.json",
                rules_file=f"{name}/rabi.rul",
                initial_state_file=f"{name}/rabi.ssg",
                out_dir=str(tmp_path / name / "out"),
            )
            assert invoke("run", str(path)) == 0
            manifests.append(json.loads((tmp_path / name / "out" / "manifest.json").read_text()))
        assert manifests[0] == manifests[1]
        rules = tmp_path / "b" / "rabi.rul"
        rules.write_text(rules.read_text().replace("rule 0 0.5", "rule 0 0.25"))
        assert config_hash(tmp_path / "b.json") != manifests[0]["config_sha256"]

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        # The sampler's counter-based generator takes only non-negative seeds.
        assert invoke("run", str(write_config(tmp_path, seed=-1))) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert invoke("run", str(write_config(tmp_path)), "--seed", "-1") == 1


class TestRun:
    def test_rabi_weights_match_closed_form(self, tmp_path):
        path = write_config(tmp_path)
        assert invoke("run", str(path)) == 0
        rows = (tmp_path / "out" / "weights.csv").read_text().splitlines()[1:]
        g, dt = 0.5, 0.3
        for row in rows:
            epoch, label, weight = row.split(",")
            t = int(epoch) * dt
            expect = math.cos(g * t) ** 2 if label == "matter_2" else math.sin(g * t) ** 2
            assert abs(float(weight) - expect) <= 1e-12

    def test_artifacts_byte_identical_across_runs(self, tmp_path):
        path = write_config(tmp_path)
        assert invoke("run", str(path), "--out", str(tmp_path / "a")) == 0
        assert invoke("run", str(path), "--out", str(tmp_path / "b")) == 0
        assert hashes(tmp_path / "a") == hashes(tmp_path / "b")

    def test_seed_override_changes_sampler_only(self, tmp_path):
        path = write_config(tmp_path)
        assert invoke("run", str(path), "--out", str(tmp_path / "a"), "--seed", "1") == 0
        assert invoke("run", str(path), "--out", str(tmp_path / "b"), "--seed", "2") == 0
        ha, hb = hashes(tmp_path / "a"), hashes(tmp_path / "b")
        assert ha["weights.csv"] == hb["weights.csv"]
        assert ha["sampler.csv"] != hb["sampler.csv"]

    def test_manifest_lists_every_artifact_with_matching_hash(self, tmp_path):
        path = write_config(tmp_path)
        assert invoke("run", str(path)) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == emitted
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert manifest["tool_version"]
        assert manifest["config_sha256"]

    def test_state_dumps_reload(self, tmp_path):
        path = write_config(tmp_path)
        assert invoke("run", str(path)) == 0
        final = wfn1_loads((tmp_path / "out" / "final_state.wfn").read_text())
        assert len(final) >= 1

    def test_truncation_refused_exits_3(self, tmp_path):
        path = reference_config(tmp_path, accept_truncation=False)
        assert invoke("run", str(path)) == 3

    def test_truncation_refused_by_size_alone_exits_3(self, tmp_path):
        # At max_dim 3 the basis fills at the end of level 0, and every
        # result of the next level is outside it by its vertex count alone.
        path = reference_config(tmp_path, max_dim=3, accept_truncation=False)
        assert invoke("run", str(path)) == 3

    def test_corrupt_rule_file_exits_2(self, tmp_path):
        bad_rules = tmp_path / "bad.rul"
        bad_rules.write_text("RUL1\nrule zero nan\n")
        path = write_config(tmp_path, rules_file=str(bad_rules))
        assert invoke("run", str(path)) == 2

    def test_rule_file_not_utf8_exits_2(self, tmp_path, capsys):
        bad_rules = tmp_path / "latin1.rul"
        bad_rules.write_bytes((CONFIG_DIR / "two_state_rabi.rul").read_bytes() + b"\xe9\n")
        assert invoke("run", str(write_config(tmp_path, rules_file=str(bad_rules)))) == 2
        assert "cannot read rules file" in capsys.readouterr().err

    def test_missing_rule_file_exits_2(self, tmp_path):
        path = write_config(tmp_path, rules_file=str(tmp_path / "nope.rul"))
        assert invoke("run", str(path)) == 2

    def test_zero_denominator_in_initial_state_exits_1(self, tmp_path, capsys):
        bad_state = tmp_path / "bad.ssg"
        bad_state.write_text("SSG1\nv 0 1 1/0 0\n")
        path = write_config(tmp_path, initial_state_file=str(bad_state))
        assert invoke("run", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bad SSG1 record on line 2:" in err
        assert str(bad_state) in err

    def test_zero_denominator_in_rule_pattern_exits_2(self, tmp_path, capsys):
        rules = (CONFIG_DIR / "two_state_rabi.rul").read_text()
        bad_rules = tmp_path / "bad.rul"
        bad_rules.write_text(rules.replace("v 0 1 1 0", "v 0 1 1/0 0", 1))
        path = write_config(tmp_path, rules_file=str(bad_rules))
        assert invoke("run", str(path)) == 2
        err = capsys.readouterr().err
        # Line 5 of the rule file, inside the pattern of the rule on line 2.
        assert "rule on line 2: bad SSG1 record on line 5:" in err
        assert str(bad_rules) in err

    def test_oversized_number_exits_1_in_initial_state_and_2_in_rules(self, tmp_path, capsys):
        # 1e5000 parses, but str() of its 5001-digit numerator raises while
        # the state is labeled; it is refused as a bad record instead.
        bad_state = tmp_path / "huge.ssg"
        bad_state.write_text("SSG1\nv 0 1 1 0\nv 1 1 1 0\ne 0 1 1e5000\n")
        assert invoke("run", str(write_config(tmp_path, initial_state_file=str(bad_state)))) == 1
        assert "bad SSG1 record on line 4: 'e 0 1 1e5000'" in capsys.readouterr().err
        bad_rules = tmp_path / "huge.rul"
        rules = (CONFIG_DIR / "two_state_rabi.rul").read_text()
        bad_rules.write_text(rules.replace("v 0 1 1 0", "v 0 1 1e5000 0", 1))
        assert invoke("run", str(write_config(tmp_path, rules_file=str(bad_rules)))) == 2
        assert "rule on line 2: bad SSG1 record on line 5:" in capsys.readouterr().err

    def test_duplicate_vertex_in_initial_state_exits_1(self, tmp_path, capsys):
        bad_state = tmp_path / "dup.ssg"
        bad_state.write_text("SSG1\nv 0 1 1 0\nv 0 2 5 1/2\n")
        path = write_config(tmp_path, initial_state_file=str(bad_state))
        assert invoke("run", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "duplicate SSG1 vertex 0 on line 3:" in err

    def test_duplicate_vertex_in_rule_replacement_exits_2(self, tmp_path, capsys):
        rules = (CONFIG_DIR / "two_state_rabi.rul").read_text()
        bad_rules = tmp_path / "dup.rul"
        bad_rules.write_text(rules.replace("v 1 2 2 0", "v 0 2 2 0", 1))
        path = write_config(tmp_path, rules_file=str(bad_rules))
        assert invoke("run", str(path)) == 2
        assert "duplicate SSG1 vertex 0 on line 11:" in capsys.readouterr().err

    def test_overflowing_coupling_exits_4(self, tmp_path, capsys):
        rules = (CONFIG_DIR / "two_state_rabi.rul").read_text()
        huge_rules = tmp_path / "huge.rul"
        huge_rules.write_text(rules.replace("rule 0 0.5", "rule 0 1e308"))
        path = write_config(tmp_path, rules_file=str(huge_rules))
        assert invoke("run", str(path)) == 4
        assert "not finite (dt 0.3, largest |H| entry 1.000e+308)" in capsys.readouterr().err

    def test_overflowing_reference_couplings_exit_4(self, tmp_path, capsys):
        # Summed couplings of 1e308 overflow generator entries to inf, so the
        # generator's 1-norm is infinite; generator assembly warns of it. At
        # max_dim 300, past the action's crossover, the infinite norm has no
        # Taylor plan and falls back to the propagator too.
        rules = (CONFIG_DIR / "reference_branching.rul").read_text()
        huge_rules = tmp_path / "huge.rul"
        huge_rules.write_text(rules.replace("rule 0 0.9", "rule 0 1e308").replace("rule 1 0.7", "rule 1 1e308"))
        for max_dim in (96, 300):
            path = reference_config(tmp_path, rules_file=str(huge_rules), max_dim=max_dim)
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert invoke("run", str(path)) == 4
            assert "not finite (dt 0.2, largest |H| entry inf)" in capsys.readouterr().err

    def test_norm_drift_exits_4_and_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, dt=1e12)
        assert invoke("run", str(path)) == 4
        assert re.search(r"norm drift \S+ exceeds 1e-08", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_too_many_fragments_exits_1(self, tmp_path, capsys):
        # K20 matches no rule, so the basis is K20 alone; branch tracking at
        # k_min 10 would label up to C(20, 10) = 184756 fragments.
        dense = tmp_path / "k20.ssg"
        dense.write_text(
            "SSG1\n"
            + "".join(f"v {v} 1 1 0\n" for v in range(20))
            + "".join(f"e {u} {v} 1\n" for v in range(20) for u in range(v))
        )
        path = write_config(tmp_path, initial_state_file=str(dense), k_min=10)
        assert invoke("run", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "20 vertices with k_min 10" in err
        assert not (tmp_path / "out").exists()

    def test_largest_accepted_depth_completes(self, tmp_path):
        path = reference_config(tmp_path, depth_max=24)
        assert invoke("run", str(path)) == 0
        rows = (tmp_path / "out" / "count_report.csv").read_text().splitlines()[1:]
        by_depth: dict[int, list[list[str]]] = {}
        for row in rows:
            fields = row.split(",")
            by_depth.setdefault(int(fields[0]), []).append(fields)
        assert sorted(by_depth) == list(range(25))
        for depth, fields in by_depth.items():
            straddlers = int(fields[0][3])
            assert sum(int(f[2]) for f in fields) + straddlers == 2**depth
            for f in fields:
                # estimate and bound are dyadic, so exact in binary; only the
                # label weight is rounded once to the nearest double.
                estimate, exact, bound = float(f[4]), float(f[5]), float(f[6])
                assert abs(estimate - exact) <= bound + 2**-53


    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv("SPACESTATES_SEED", "123")
        assert invoke("run", str(path), "--out", str(tmp_path / "env")) == 0
        monkeypatch.delenv("SPACESTATES_SEED")
        assert invoke("run", str(path), "--out", str(tmp_path / "flag"), "--seed", "123") == 0
        assert hashes(tmp_path / "env") == hashes(tmp_path / "flag")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_non_integer_env_seed_exits_1(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("SPACESTATES_SEED", "x")
        assert invoke(command, str(write_config(tmp_path))) == 1
        assert "SPACESTATES_SEED" in capsys.readouterr().err


class TestVerify:
    def test_default_config_passes_all_checks(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_corpus=60)
        assert invoke("verify", str(path)) == 0
        out = capsys.readouterr().out
        assert "PASS projector-algebra" in out
        assert "PASS unitarity" in out
        assert "PASS gauge-roundtrip" in out
        assert "PASS refinement-weights" in out
        assert "PASS oracle-equivalence: 30/30 kinds agree" in out
        assert f"PASS taylor-action: {dynamics.ACTION_MIN_DIM}-state real generator" in out
        overlaps = re.search(r"kinds agree, (\d+)/(\d+) overlaps agree", out)
        assert overlaps and overlaps[1] == overlaps[2] != "0"
        assert "FAIL" not in out

    def test_injected_norm_fault_fails_unitarity(self, tmp_path, capsys, monkeypatch):
        # A norm off by 1e-6 with the propagator still on eigh: the drift
        # alone must fail the check.
        norm = cli.norm
        monkeypatch.setattr(cli, "norm", lambda psi: norm(psi) + 1e-6)
        path = write_config(tmp_path, verify_corpus=20)
        assert invoke("verify", str(path)) == 5
        out = capsys.readouterr().out
        assert re.search(r"FAIL unitarity: norm drift 1\.000e-06, propagator deviation from eigh \S+e-1[5-9]", out)
        assert "PASS taylor-action" in out

    def test_propagator_off_eigh_fails_unitarity(self, tmp_path, capsys, monkeypatch):
        # A time step off by one part in 1e10 keeps the propagator unitary,
        # so only the comparison with the eigh oracle can catch it.
        exp = dynamics._exp_hermitian
        monkeypatch.setattr(dynamics, "_exp_hermitian", lambda h, t: exp(h, t * (1 + 1e-10)))
        path = write_config(tmp_path, verify_corpus=0)
        assert invoke("verify", str(path)) == 5
        out = capsys.readouterr().out
        assert re.search(r"FAIL unitarity: norm drift \S+e-1[5-9], propagator deviation from eigh", out)

    def test_action_off_eigh_fails_taylor_action(self, tmp_path, capsys, monkeypatch):
        # The check steps past the crossover, where a run applies the
        # Taylor action rather than the propagator.
        action = dynamics._taylor_action

        def off(operator, v, dt, plan):
            return action(operator, v, dt * (1 + 1e-10), plan)

        monkeypatch.setattr(dynamics, "_taylor_action", off)
        path = write_config(tmp_path, verify_corpus=0)
        assert invoke("verify", str(path)) == 5
        out = capsys.readouterr().out
        assert "PASS unitarity" in out
        assert re.search(r"FAIL taylor-action: \d+-state real generator, deviation from eigh \S+e-1[01]", out)

    def test_empty_corpus_reports_skip_not_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_corpus=0)
        assert invoke("verify", str(path)) == 0
        out = capsys.readouterr().out
        assert "SKIP oracle-equivalence" in out
        assert "SKIP projector-algebra" in out

    def test_console_entry_point(self, tmp_path):
        path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "spacestates.cli", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "artifacts" in proc.stdout


def test_run_imports_nothing_past_the_package(tmp_path):
    # A module first imported inside `run` adds its load time to the run's
    # wall time; scipy alone takes about 0.3 s and 28 MB.
    script = (
        "import json, sys\n"
        "import spacestates, spacestates.cli\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "config = spacestates.cli.ExperimentConfig.from_file(sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "spacestates.cli.run(config)\n"
        "print(json.dumps([scipy, sorted(set(sys.modules) - before)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(write_config(tmp_path))], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]


# SHA-256 of every artifact of `spacestates run` on the shipped configs,
# recorded before the refinement count moved to its closed form. A change
# that alters one on purpose updates it here and says why.
# - manifest.json (two_state_rabi 4c7c3cc8… -> b29e9a59…, reference_branching
#   6ca84be9… -> ccffee91…): `config_sha256` hashes the SHA-256 of the rules
#   and initial-state files' bytes in place of their paths.
# - reference_branching branch_summary.csv, branches.jsonl, count_report.csv,
#   final_state.wfn, weights.csv and manifest.json: the propagator is a numpy
#   Padé exponential in place of scipy's `expm`. Every float moves by at most
#   4.4e-16 and every integer is unchanged.
PINNED_DIGESTS = {
    "two_state_rabi": {
        "branch_summary.csv": "f74478ffc86307911d1f1fb92bca52bbfca81344538a21d55908ab9e4339b822",
        "branches.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "count_report.csv": "cb214e14318998079e1174f15baafe42b25314602213b78e2366a49305704b12",
        "final_state.wfn": "8090d49449d5d9af8ea6ff9d57e2cd1e3d8ec5f3802d8ce7af22f5cf21a725c8",
        "initial_state.wfn": "2bd50b17f73ce525d3c7cd4ff57b4557608cfbef58d9f42a799d8fa6a58e9849",
        "manifest.json": "b29e9a59e79550121561b55cd55ed23ef1a0db8fc67d94a7c8f2d1d81fcb4792",
        "sampler.csv": "742275a9f6bb0c46ad962a87ee34117db710f4a4cb290853efc083bfc793ba5d",
        "weights.csv": "dfd5f39f1d41d3c01a823b153a69e71299111186f27c79e15c27a4d5a7bda752",
    },
    "reference_branching": {
        "branch_summary.csv": "deeaf2aebe669c09b29aa57fbb031c0fe2fe7cc5f4e3ad0a7ec7de3a3484b04b",
        "branches.jsonl": "888f2f24f6a636bbabbf23a51853903618bd5a5894d75ac4734016178d591da4",
        "count_report.csv": "dbb72bee2b1be5ff677f5d7351628dce12ba84dfa7478c529017f0d6751844ab",
        "final_state.wfn": "d4663359718789d62699fd6b68531722dd78888d97e83548e74a58cebf1082ca",
        "initial_state.wfn": "96b6fedf517c91fe9017228e4e9618456a2c6a1f5bf68f6945de45a48997d539",
        "manifest.json": "6312a4d02ea269cef6515ffd41d5cd3672bc408d04e56a61b7f17185ff7ddfdd",
        "sampler.csv": "3fbf658d51b589ebd1dc1f69d562d1f495264b116f9dc3c4d5a85d9decb2de34",
        "weights.csv": "3015cc0c23bc724533432cecc0cc0db8ec091468c8368830ba881f6c7004c0fc",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_shipped_config_artifacts_match_pinned_digests(tmp_path, name):
    assert invoke("run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / name)) == 0
    assert hashes(tmp_path / name) == PINNED_DIGESTS[name]


# The runs above evolve below `dynamics.ACTION_MIN_DIM`, by the propagator.
# At max_dim 300 the reference config evolves by the Taylor action; these
# digests were recorded before evolution's choice of path moved into
# `Generator.step`.
ACTION_PATH_DIGESTS = {
    "branch_summary.csv": "1a60616d0d87cc40805edd2ec65e94562026db1bc7b9398edc1d4f48d06fc75b",
    "branches.jsonl": "67a61e264ab21e69dbe833257d7e282e0cea55d39f91323c5a22277389d19d5f",
    "count_report.csv": "5c3aef5485e4bb4f2057524c5db12f0de74edd1f3b81dc64eeef2de4a14531ba",
    "final_state.wfn": "fe7a447fb5fd63f83b48a6ee9de27a86a93133823efd2ea2943d9fa3ace13d19",
    "initial_state.wfn": "96b6fedf517c91fe9017228e4e9618456a2c6a1f5bf68f6945de45a48997d539",
    "manifest.json": "5353554635bcc023dfae432de738aa27bb0a6c43940680a8f08b5b2107cc02ac",
    "sampler.csv": "e06c5a44deda56fd758ee3869b3429a15589a0c267b6703aef00b3dc8defaea3",
    "weights.csv": "52e9dace6bb89aea0a47796ee9e16a08d97f7db79f7145c08e8d666b5998e083",
}


def test_reference_config_on_the_action_path_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics.Generator, "propagator", None)  # the action path never calls it
    assert invoke("run", str(reference_config(tmp_path, max_dim=300))) == 0
    assert hashes(tmp_path / "out") == ACTION_PATH_DIGESTS


# Fuzzing the rule file: every mutant of the shipped reference RUL1 text
# must end in a documented exit code of `run`, never in a traceback.
REFERENCE_RUL1_LINES = (CONFIG_DIR / "reference_branching.rul").read_text().splitlines()
MANGLED_TOKENS = (
    "", "x", "-1", "0", "1/0", "-0.5", "nan", "inf", "1e308", "1e5000", "99999999999999999999",
    "rule", "pattern", "replacement", "end", "SSG1", "RUL1", "v", "e",
)


def mutate_lines(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "truncate", "duplicate", "mangle")))
        if op == "delete":
            del lines[i]
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(MANGLED_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def mutated_rul1(draw):
    return mutate_lines(draw, REFERENCE_RUL1_LINES)


@settings(max_examples=25, deadline=None)
@given(text=mutated_rul1())
def test_mutated_reference_rules_end_in_documented_exit_code(tmp_path_factory, text):
    tmp_path = tmp_path_factory.mktemp("rul1")
    rules = tmp_path / "mutant.rul"
    rules.write_text(text)
    path = reference_config(tmp_path, rules_file=str(rules), epochs=1)
    assert invoke("run", str(path)) in (0, 1, 2, 3, 4)


# The same for the initial-state file and the config itself. The runs are
# kept small (max_dim 16, 1000 samples, depth 4), since these mutants probe
# parsing and validation, not scale.
REFERENCE_SSG1_LINES = (CONFIG_DIR / "reference_branching.ssg").read_text().splitlines()
SMALL_RUN = {"epochs": 1, "max_dim": 16, "samples": 1000, "depth_max": 4}


@settings(max_examples=20, deadline=None)
@given(text=st.composite(lambda draw: mutate_lines(draw, REFERENCE_SSG1_LINES))())
def test_mutated_reference_initial_state_ends_in_documented_exit_code(tmp_path_factory, text):
    tmp_path = tmp_path_factory.mktemp("ssg1")
    state = tmp_path / "mutant.ssg"
    state.write_text(text)
    path = reference_config(tmp_path, initial_state_file=str(state), **SMALL_RUN)
    assert invoke("run", str(path)) in (0, 1, 2, 3, 4)


# JSON values for config fuzzing: wrong types, out-of-range and boundary
# numbers, a bad partition and a missing file. 2049 is above the validator's
# limits on max_dim, epochs and steps, and the two limits plus one are above
# those on samples and verify_corpus.
CONFIG_VALUES = (
    "", "x", "missing.rul", -1, 0, 1, 2, 2049, SAMPLES_LIMIT + 1, VERIFY_CORPUS_LIMIT + 1,
    -0.5, 0.5, 1e308, float("nan"), True, False, None, [], {},
    {"name": "x"}, {"name": "vertex_count"}, {"name": "vertex_count", "params": {"width": 0}},
    {"name": "vertex_count", "params": {"width": "x"}, "extra": 1},
)


@st.composite
def mutated_config_text(draw):
    cfg = json.loads((CONFIG_DIR / "reference_branching.json").read_text())
    cfg.update(
        rules_file=str(CONFIG_DIR / "reference_branching.rul"),
        initial_state_file=str(CONFIG_DIR / "reference_branching.ssg"),
        **SMALL_RUN,
    )
    keys = sorted(set(cfg) | set(ExperimentConfig.__dataclass_fields__) - {"base_dir"}) + ["bogus"]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            cfg.pop(key, None)
        else:
            cfg[key] = draw(st.sampled_from(CONFIG_VALUES))
    text = json.dumps(cfg)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=40, deadline=None)
@given(text=mutated_config_text())
def test_mutated_reference_config_ends_in_documented_exit_code(tmp_path_factory, text):
    tmp_path = tmp_path_factory.mktemp("config")
    path = tmp_path / "mutant.json"
    path.write_text(text)
    assert invoke("run", str(path), "--out", str(tmp_path / "out")) in (0, 1, 2, 3, 4)


# The same for WFN1 state dumps: every mutant of the reference config's
# evolved state either loads or is refused with a ValueError that names the
# line at fault.
@pytest.fixture(scope="module")
def reference_final_state_lines(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("wfn1")
    assert invoke("run", str(reference_config(tmp_path))) == 0
    return (tmp_path / "out" / "final_state.wfn").read_text().splitlines()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_reference_final_state_loads_or_names_line(reference_final_state_lines, data):
    text = mutate_lines(data.draw, reference_final_state_lines)
    try:
        assert isinstance(wfn1_loads(text), Wavefunctional)
    except ValueError as exc:
        assert re.search(r"line \d+", str(exc)), exc
