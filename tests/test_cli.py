import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import luinv
from luinv import cli
from luinv.algebra import permute_sites, tensor
from luinv.cli import run_command
from luinv.haar import MAX_SAMPLES
from luinv.invariants import MAX_TABLE_BYTES
from luinv.report import make_entry, make_report, render_report
from luinv.states import MAX_AMPLITUDES, generate_state, save_state


@pytest.fixture
def ghz_file(tmp_path):
    p = tmp_path / "ghz.json"
    save_state(generate_state("ghz", 3), p)
    return str(p)


def entries_by_index(doc):
    return {e["index"]: e for e in doc["entries"]}


class TestInvariantsCommand:
    def test_ghz_family(self, ghz_file):
        code, doc = run_command(["invariants", "--state", ghz_file, "--all"])
        assert code == 0
        vals = entries_by_index(doc)
        assert list(vals) == ["100", "110", "101", "011", "111"]
        for idx, want in [("100", 1.0), ("110", 0.125), ("101", 0.125),
                          ("011", 0.125), ("111", 0.25)]:
            assert vals[idx]["value"] == pytest.approx(want, abs=1e-12)
            assert vals[idx]["method"] == "closed-form"
            assert vals[idx]["degree"] == 2 * idx.count("1")

    def test_single_index(self, ghz_file):
        code, doc = run_command(["invariants", "--state", ghz_file, "--index", "110"])
        assert code == 0
        assert doc["entries"][0]["value"] == pytest.approx(0.125, abs=1e-12)

    def test_transvectant_families(self, tmp_path, ghz_file):
        code, doc = run_command(
            ["invariants", "--state", ghz_file, "--family", "H", "--index", "222"]
        )
        assert code == 0
        entry = doc["entries"][0]
        assert entry["method"] == "transvectant"
        assert entry["value"] == pytest.approx(1.0, abs=1e-12)

        p4 = tmp_path / "ghz4.json"
        save_state(generate_state("ghz", 4), p4)
        code, doc = run_command(
            ["invariants", "--state", str(p4), "--family", "G", "--all"]
        )
        assert code == 0
        vals = entries_by_index(doc)
        # every even mask with at least two raised sites: C(4,2) + C(4,4)
        assert len(vals) == 7
        assert vals["1111"]["value"] == pytest.approx(1.0, abs=1e-12)


class TestSeparabilityCommand:
    def test_product_state_verdict(self, tmp_path):
        p = tmp_path / "prod.json"
        save_state(generate_state("separable", 3, seed=2), p)
        code, doc = run_command(
            ["separability", "--state", str(p), "--partition", "1|2|3"]
        )
        assert code == 0
        assert doc["verdict"] == "separable"
        assert len(doc["entries"]) == 4

    def test_entangled_verdict(self, ghz_file):
        code, doc = run_command(
            ["separability", "--state", ghz_file, "--partition", "1,2|3"]
        )
        assert code == 1
        assert doc["verdict"] == "not separable"
        assert sorted(entries_by_index(doc)) == ["011", "101", "111"]
        assert "tolerance" in doc


class TestTwirlCommand:
    def test_agreement(self, ghz_file):
        code, doc = run_command(
            ["twirl", "--state", ghz_file, "--index", "111",
             "--samples", "5000", "--seed", "7"]
        )
        assert code == 0
        assert doc["verdict"] == "agree"
        methods = {e["method"] for e in doc["entries"]}
        assert methods == {"closed-form", "monte-carlo"}
        mc = next(e for e in doc["entries"] if e["method"] == "monte-carlo")
        assert mc["std_error"] > 0
        assert doc["seed"] == 7

    def test_env_default_seed(self, ghz_file, monkeypatch):
        monkeypatch.setenv("LUINV_SEED", "31")
        code, doc = run_command(
            ["twirl", "--state", ghz_file, "--index", "110", "--samples", "2000"]
        )
        assert code == 0
        assert doc["seed"] == 31


class TestTwirlAll:
    def test_every_index_agrees(self, ghz_file):
        code, doc = run_command(
            ["twirl", "--state", ghz_file, "--all", "--samples", "5000", "--seed", "7"]
        )
        assert code == 0 and doc["verdict"] == "agree"
        assert [c["index"] for c in doc["checks"]] == ["110", "101", "011", "111"]
        assert all(c["verdict"] == "agree" for c in doc["checks"])
        assert len(doc["entries"]) == 8 and doc["samples"] == 5000 and doc["seed"] == 7

    def test_one_disagreement_exits_1(self, ghz_file, monkeypatch):
        closed = cli.cumulant_invariant
        monkeypatch.setattr(
            cli, "cumulant_invariant",
            lambda psi, idx: closed(psi, idx) + (1.0 if tuple(idx) == (1, 0, 1) else 0.0),
        )
        code, doc = run_command(["twirl", "--state", ghz_file, "--all", "--samples", "5000"])
        assert code == 1 and doc["verdict"] == "disagree"
        assert [c["index"] for c in doc["checks"] if c["verdict"] == "disagree"] == ["101"]

    def test_index_and_all_exclusive(self, ghz_file, capsys):
        code, doc = run_command(["twirl", "--state", ghz_file, "--all", "--index", "111"])
        assert code == 2 and doc is None
        assert "not allowed with" in capsys.readouterr().err

    def test_over_the_cap_refused_before_drawing(self, ghz_file, monkeypatch, capsys):
        from luinv import haar, invariants

        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", 10_000)
        monkeypatch.setattr(haar, "_draw", None)
        code, doc = run_command(["twirl", "--state", ghz_file, "--all"])
        assert code == 2 and doc is None
        assert "(invariants.MAX_TABLE_BYTES)" in capsys.readouterr().err

    def test_grid_over_the_cap_refused_before_drawing(self, tmp_path, monkeypatch, capsys):
        # at n = 8 the twirl's chunks fit 100 MB but the all-ones grid (92 MB
        # of samples and a 16 MB slab) does not: refused before the twirl draws
        from luinv import haar, invariants

        p = tmp_path / "r8.json"
        save_state(generate_state("random", 8, seed=2), p)
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", 100_000_000)
        monkeypatch.setattr(haar, "_draw", None)
        code, doc = run_command(["twirl", "--state", str(p), "--all"])
        assert code == 2 and doc is None
        assert "grid table" in capsys.readouterr().err

    def test_one_site_state_has_no_index(self, tmp_path, capsys):
        p = tmp_path / "one.json"
        save_state(generate_state("random", 1, seed=3), p)
        code, doc = run_command(["twirl", "--state", str(p), "--all"])
        assert code == 2 and doc is None
        assert "theta >= 2" in capsys.readouterr().err


class TestLiftCommand:
    def test_single_trace_agrees(self, ghz_file):
        code, doc = run_command(
            ["lift", "--state", ghz_file, "--trace-out", "3", "--index", "11"]
        )
        assert code == 0
        assert doc["verdict"] == "agree"
        assert sorted(entries_by_index(doc)) == ["11", "110"]

    def test_double_trace_disagrees(self, tmp_path):
        # pair of Bell states on sites 1,3 and 2,4: the two-site trace
        # identity genuinely fails (0 versus 1/16), and the command says so
        bell = generate_state("bell", 2)
        psi = permute_sites(tensor(bell, bell), (1, 3, 2, 4))
        p = tmp_path / "bb.json"
        save_state(psi, p)
        code, doc = run_command(
            ["lift", "--state", str(p), "--trace-out", "3,4", "--index", "11"]
        )
        assert code == 1
        assert doc["verdict"] == "disagree"
        assert doc["difference"] == pytest.approx(1 / 16, abs=1e-12)


    @pytest.mark.parametrize("token,named", [
        ("\u00b2", "traced site '\u00b2' is not a positive integer"),
        ("0", "traced sites [0] outside 1..3"),
        ("2,4", "traced sites [2, 4] outside 1..3"),
    ], ids=["superscript-two", "zero", "out-of-range"])
    def test_bad_traced_site_named(self, ghz_file, capsys, token, named):
        code, doc = run_command(
            ["lift", "--state", ghz_file, "--trace-out", token, "--index", "11"]
        )
        assert (code, doc) == (2, None)
        assert capsys.readouterr().err == f"error: {named}\n"


class TestZhouCommand:
    def test_ghz_value(self, ghz_file):
        code, doc = run_command(["zhou", "--state", ghz_file, "--index", "111"])
        assert code == 0
        entry = doc["entries"][0]
        assert entry["method"] == "zhou"
        assert entry["value"] == pytest.approx(0.5, abs=1e-12)


class TestGenCommand:
    def test_writes_loadable_file(self, tmp_path):
        out = tmp_path / "w.json"
        code, doc = run_command(
            ["gen", "--kind", "w", "-n", "4", "-o", str(out), "--seed", "0"]
        )
        assert code == 0
        assert out.exists()
        assert doc["kind"] == "w"
        data = json.loads(out.read_text())
        assert data["n"] == 4 and len(data["amplitudes"]) == 16


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, doc = run_command(["frobnicate"])
        capsys.readouterr()
        assert code == 2 and doc is None

    def test_unknown_flag(self, capsys):
        code, doc = run_command(["invariants", "--bogus"])
        capsys.readouterr()
        assert code == 2 and doc is None

    def test_index_all_mutually_exclusive(self, ghz_file, capsys):
        code, doc = run_command(
            ["invariants", "--state", ghz_file, "--index", "110", "--all"]
        )
        capsys.readouterr()
        assert code == 2

    def test_index_length_mismatch(self, ghz_file, capsys):
        code, doc = run_command(["invariants", "--state", ghz_file, "--index", "11"])
        capsys.readouterr()
        assert code == 2 and doc is None

    def test_missing_file(self, tmp_path, capsys):
        code, doc = run_command(
            ["invariants", "--state", str(tmp_path / "no.json"), "--all"]
        )
        capsys.readouterr()
        assert code == 2 and doc is None

    def test_boolean_site_count(self, tmp_path, capsys):
        p = tmp_path / "bool.json"
        p.write_text('{"n": true, "amplitudes": [[1, 0], [1, 0]]}')
        code, doc = run_command(["invariants", "--state", str(p), "--all"])
        assert code == 2 and doc is None
        assert "'n'" in capsys.readouterr().err

    def test_amplitude_beyond_float_range(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text('{"n": 1, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 500))
        code, doc = run_command(["invariants", "--state", str(p), "--all"])
        assert code == 2 and doc is None
        assert "amplitudes[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,field",
        [('{"n": 100000, "amplitudes": []}', "'n'"),
         ('{"n": 30, "d": 3, "amplitudes": []}', "'n'"),
         ('{"n": 1, "d": %d, "amplitudes": []}' % 10**30, "'d'")],
    )
    def test_table_size_cap(self, tmp_path, capsys, text, field):
        p = tmp_path / "big.json"
        p.write_text(text)
        code, doc = run_command(["invariants", "--state", str(p), "--all"])
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert field in err and str(MAX_AMPLITUDES) in err

    @pytest.mark.parametrize("n", ["25", "100000"])
    def test_gen_size_cap(self, tmp_path, capsys, n):
        out = tmp_path / "big.json"
        code, doc = run_command(["gen", "--kind", "random", "-n", n, "-o", str(out)])
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert "'n'" in err and str(MAX_AMPLITUDES) in err
        assert not out.exists()

    def test_norm_index_twirl_rejected(self, ghz_file, capsys):
        code, doc = run_command(["twirl", "--state", ghz_file, "--index", "100"])
        capsys.readouterr()
        assert code == 2

    def test_bad_selftest_criteria(self, capsys):
        code, doc = run_command(["selftest", "--criteria", "99"])
        capsys.readouterr()
        assert code == 2

    def test_memory_error_is_a_resource_error(self, ghz_file, monkeypatch, capsys):
        def out_of_memory(args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "_cmd_twirl", out_of_memory)
        code, doc = run_command(
            ["twirl", "--state", ghz_file, "--index", "111",
             "--samples", "1000000000000"]
        )
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"


class TestPinnedRefusals:
    """Inputs that once gave a value with exit 0, or numpy's own wording,
    now exit 2 with a message naming what was refused."""

    def test_all_zero_index_refused(self, ghz_file, capsys):
        code, doc = run_command(["invariants", "--state", ghz_file, "--index", "000"])
        assert (code, doc) == (2, None)
        assert capsys.readouterr().err == (
            "error: index 000 has no 1: an invariant needs theta >= 1\n")
        with pytest.raises(ValueError, match="index 000 has no 1"):
            luinv.cumulant_invariant(generate_state("ghz", 3), "000")

    @pytest.mark.parametrize("trace_out,index", [("3", "00"), ("2,3", "0")])
    def test_all_zero_lift_index_refused(self, ghz_file, capsys, trace_out, index):
        code, doc = run_command(
            ["lift", "--state", ghz_file, "--trace-out", trace_out, "--index", index]
        )
        assert (code, doc) == (2, None)
        err = capsys.readouterr().err
        assert err == f"error: index {index} has no 1: an invariant needs theta >= 1\n"

    @pytest.mark.parametrize("index", ["2x2", "22²", "212", "220"])
    def test_bad_h_family_index_named(self, ghz_file, capsys, index):
        code, doc = run_command(
            ["invariants", "--state", ghz_file, "--family", "H", "--index", index]
        )
        assert (code, doc) == (2, None)
        assert capsys.readouterr().err == (
            f"error: H family index {index} needs exactly three 2s and otherwise 0s\n")

    @pytest.mark.parametrize("argv,env,named", [
        (["--seed", "-1"], None, "--seed -1"),
        (["--seed", str(2**128)], None, f"--seed {2**128}"),
        ([], "-1", "LUINV_SEED -1"),
        ([], "seven", "LUINV_SEED='seven'"),
    ], ids=["negative", "past-the-key-range", "env-negative", "env-not-an-integer"])
    def test_seed_outside_the_key_range_named(self, ghz_file, tmp_path, monkeypatch,
                                              capsys, argv, env, named):
        if env is None:
            monkeypatch.delenv("LUINV_SEED", raising=False)
        else:
            monkeypatch.setenv("LUINV_SEED", env)
        for cmd in (["twirl", "--state", ghz_file, "--index", "111", "--samples", "100"],
                    ["gen", "--kind", "ghz", "-n", "3", "-o", str(tmp_path / "g.json")]):
            code, doc = run_command(cmd + argv)
            assert (code, doc) == (2, None)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {named} ") and "\n" == err[-1], err
        assert not (tmp_path / "g.json").exists()

    def test_seed_at_the_ends_of_the_key_range(self, ghz_file):
        for seed in (0, 2**128 - 1):
            code, doc = run_command(["twirl", "--state", ghz_file, "--index", "111",
                                     "--samples", "100", "--seed", str(seed)])
            assert code in (0, 1) and doc["seed"] == seed


class TestOutOfRange:
    """Scaled states end in exit 2 with a message, never a traceback or a
    NaN on stdout."""

    def test_overflow_exits_2(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        ghz = generate_state("ghz", 3)
        save_state(luinv.AlgebraElement(3, 2, ghz.coeffs * 1e60), p)
        code, doc = run_command(["separability", "--state", str(p), "--partition", "1|2,3"])
        assert code == 2 and doc is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_report_exits_2(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        save_state(luinv.AlgebraElement(2, 2, np.array([1e300, 2e300, -1e300, 3e300j])), p)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["invariants", "--state", str(p), "--all"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the report cannot be written as JSON")

    def test_render_refuses_nan(self):
        doc = make_report("x", [make_entry("11", float("nan"), 4, "closed-form")])
        with pytest.raises(ValueError):
            render_report(doc)


class TestReportRendering:
    def test_entry_requires_known_method(self):
        with pytest.raises(ValueError):
            make_entry("11", 0.25, 4, "guesswork")

    def test_canonical_bytes(self):
        doc = make_report("abc", [make_entry("11", 0.25, 4, "closed-form")], seed=3)
        text = render_report(doc)
        assert text.endswith("\n")
        assert text == render_report(json.loads(text))

    def test_version_matches_pyproject(self):
        # Python 3.10 has no tomllib, so the version line is read by pattern
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
        assert match and match.group(1) == luinv.__version__

    def test_subprocess_reports_byte_identical(self, tmp_path):
        env = dict(os.environ)
        out = tmp_path / "s.json"
        gen = [sys.executable, "-m", "luinv", "gen", "--kind", "random", "-n", "3",
               "-o", str(out), "--seed", "12"]
        first = subprocess.run(gen, capture_output=True, env=env)
        bytes_a = out.read_bytes()
        second = subprocess.run(gen, capture_output=True, env=env)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert out.read_bytes() == bytes_a

        inv = [sys.executable, "-m", "luinv", "invariants", "--state", str(out),
               "--all"]
        r1 = subprocess.run(inv, capture_output=True, env=env)
        r2 = subprocess.run(inv, capture_output=True, env=env)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert json.loads(r1.stdout.decode())["tool"] == "luinv"


SELFTEST_12_REPORT = """{
  "criteria": [
    {
      "detail": "identity exact for all 556 (partition, d) pairs up to n = 6",
      "id": 12,
      "name": "dimension counts",
      "passed": true
    }
  ],
  "entries": [],
  "input_digest": "selftest",
  "tool": "luinv",
  "verdict": "pass",
  "version": "%s"
}
"""


class TestProcess:
    def test_selftest_stdout_unchanged_and_timed_on_stderr(self):
        run = subprocess.run(
            [sys.executable, "-m", "luinv", "selftest", "--criteria", "12"],
            capture_output=True, env=dict(os.environ),
        )
        assert run.returncode == 0
        assert run.stdout.decode() == SELFTEST_12_REPORT % luinv.__version__
        assert re.fullmatch(
            r"criterion 12 PASS  dimension counts: .*  \(\d+\.\d\d s\)\n",
            run.stderr.decode(),
        )

    def test_six_qubits_end_to_end(self, tmp_path):
        env = dict(os.environ)
        rand, prod = tmp_path / "random6.json", tmp_path / "product6.json"
        save_state(generate_state("random", 6, seed=61), rand)
        save_state(generate_state("separable", 6, seed=62, partition="1,4|2,3,6|5"), prod)
        luinv_cmd = [sys.executable, "-m", "luinv"]
        run = subprocess.run(luinv_cmd + ["invariants", "--state", str(rand), "--all"],
                             capture_output=True, env=env)
        assert run.returncode == 0, run.stderr.decode()
        assert len(json.loads(run.stdout)["entries"]) == 58
        run = subprocess.run(
            luinv_cmd + ["separability", "--state", str(prod), "--partition", "1,4|2,3,6|5"],
            capture_output=True, env=env,
        )
        assert run.returncode == 0, run.stderr.decode()
        assert json.loads(run.stdout)["verdict"] == "separable"

    def test_sample_cap_refused_at_once(self, ghz_file):
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, "-m", "luinv", "twirl", "--state", ghz_file,
             "--index", "111", "--samples", "1000000000000"],
            capture_output=True, env=dict(os.environ), timeout=60,
        )
        assert time.monotonic() - start < 5
        assert run.returncode == 2 and run.stdout == b""
        assert run.stderr.decode() == (
            f"error: samples = 1000000000000 exceeds the cap of {MAX_SAMPLES} "
            "(haar.MAX_SAMPLES)\n"
        )

    @pytest.mark.parametrize(
        "args",
        [["invariants", "--all"], ["separability", "--partition", "1,2,3,4|5,6,7,8,9"]],
        ids=["invariants", "separability"],
    )
    def test_grid_table_cap_refused_at_once(self, tmp_path, args):
        # the all-ones index at n = 9 has 2.1 GB of grid samples
        state = tmp_path / "random9.json"
        save_state(generate_state("random", 9, seed=81), state)

        def limit_memory():
            # should the cap stop holding, the child fails short of the machine's memory
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, "-m", "luinv", args[0], "--state", str(state)] + args[1:],
            capture_output=True, env=dict(os.environ), timeout=60, preexec_fn=limit_memory,
        )
        assert time.monotonic() - start < 5
        assert run.returncode == 2 and run.stdout == b""
        err = run.stderr.decode()
        assert "MAX_TABLE_BYTES" in err and str(MAX_TABLE_BYTES) in err

    def test_zhou_subset_table_cap_refused_at_once(self, tmp_path):
        state = tmp_path / "random12.json"
        code, _ = run_command(["gen", "--kind", "random", "-n", "12", "-o", str(state),
                               "--seed", "12"])
        assert code == 0

        def limit_memory():
            # should the cap stop holding, the child fails short of the machine's memory
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, "-m", "luinv", "zhou", "--state", str(state),
             "--index", "1" * 12],
            capture_output=True, env=dict(os.environ), timeout=60, preexec_fn=limit_memory,
        )
        assert time.monotonic() - start < 5
        assert run.returncode == 2 and run.stdout == b""
        err = run.stderr.decode()
        assert "MAX_TABLE_BYTES" in err and str(MAX_TABLE_BYTES) in err

    def test_twirl_table_cap_refused_at_once(self, tmp_path):
        # theta = 14: 1 GiB of table per chunk and about 200 MB of schedule
        state = tmp_path / "random14.json"
        save_state(generate_state("random", 14, seed=14), state)

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, "-m", "luinv", "twirl", "--state", str(state),
             "--index", "1" * 14],
            capture_output=True, env=dict(os.environ), timeout=60, preexec_fn=limit_memory,
        )
        assert time.monotonic() - start < 5
        assert run.returncode == 2 and run.stdout == b""
        err = run.stderr.decode()
        assert "MAX_TABLE_BYTES" in err and str(MAX_TABLE_BYTES) in err

    def test_import_does_not_load_scipy(self):
        probe = "import sys, luinv; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=dict(os.environ)
        )
        assert run.returncode == 0
        assert run.stdout.decode().strip() == "False"
