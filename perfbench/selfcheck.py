"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py          # or: python3 -m pytest -q perfbench/selfcheck.py

They run every workload once untraced and once traced, check that every
emitted metric and workload is registered in BENCHMARK.json and that no
request fails, feed deliberately wrong outputs to each workload's checker,
and run the benchmark where no luinv source exists.  The file name keeps the
repository's own test run from collecting it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _tiny(cls):
    return cls(seed=7, tiny=True)


def _one_request(cls, pick=lambda req: True):
    wl = _tiny(cls)
    req = next(r for r in wl.make_batch(0) if pick(r))
    out = wl.run(req)
    return wl, req, out


def test_registry_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == [c.name for c in W.WORKLOADS]
    traced_by_workload = {"cli.import_ms", "invariants.warmup_rss_mb", "trace.overhead_pct"}
    assert sorted(PER_LAYER) == sorted(set(layer_metrics({})) | traced_by_workload)
    assert "setup_s" in END_TO_END
    assert set().union(*(c.stresses for c in W.WORKLOADS)) == set(W.LAYERS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_tiny_untraced_runs_are_correct():
    for cls in W.WORKLOADS:
        wl = _tiny(cls)
        try:
            res = W.measure(wl, 0, setups=2)
        finally:
            wl.close()
        assert res["failed"] == 0, (cls.name, res["failures"])
        assert res["requests"] >= 1
        for name in END_TO_END:
            assert res[name] > 0, (cls.name, name)


def test_tiny_traced_runs_cover_every_layer_metric():
    import luinv

    for cls in W.WORKLOADS:
        wl = _tiny(cls)
        try:
            res = W.trace(wl)
        finally:
            wl.close()
        assert res["failed"] == 0, (cls.name, res["failures"])
        assert sorted(res["metrics"]) == sorted(PER_LAYER), cls.name
        assert res["layer_self_s"] <= res["traced_wall_s"], cls.name
        assert res["absent"] == []
        # the tracer put every original back
        assert not hasattr(luinv.cumulant_invariant, "__wrapped__")
        assert not hasattr(luinv.invariants.cumulant_invariant, "__wrapped__")
        assert not hasattr(luinv.cumulants.APolynomial.evaluate, "__wrapped__")
    layer = res["metrics"]  # the cli workload reaches the CLI-only layers
    for name in ("cli.invariants.ms", "mixed.zhou_m.calls", "transvectants.transvectant.calls",
                 "states.save_state.calls", "report.render_report.calls"):
        assert layer[name] > 0, name


def test_family_checker_counts_wrong_values():
    wl, req, out = _one_request(W.Family, lambda r: r["n"] == 3 and not r["product"])
    assert wl.check(req, out) == []
    bad = copy.deepcopy(out)
    bad["values"][(1, 1, 1)] *= 1.01
    assert wl.check(req, bad)
    for key, value in (("separable", not out["separable"]), ("rank", 4)):
        assert wl.check(req, {**out, key: value}), key


def test_twirl_checker_counts_wrong_values():
    wl, req, out = _one_request(W.Twirl, lambda r: len(r["index"]) == 3)
    assert wl.check(req, out) == []
    assert wl.check(req, {**out, "mean": out["mean"] + 10 * out["std_error"] + 1e-6})


def test_algebra_checker_counts_wrong_values():
    wl, req, out = _one_request(W.Algebra)
    assert wl.check(req, out) == []
    for kernel in ("log", "exp", "inverse", "product"):
        bad = dict(out)
        bad[kernel] = out[kernel].copy()
        bad[kernel][-1] += 1e-6
        assert wl.check(req, bad), kernel


def test_cli_checker_counts_wrong_values():
    wl = _tiny(W.Cli)
    try:
        wl.dir.mkdir(parents=True, exist_ok=True)
        reqs = wl.make_batch(0)
        outs = [wl.run(r) for r in reqs[:3]]  # gen, invariants, separability
        for req, out in zip(reqs, outs):
            assert wl.check(req, out) == [], req["kind"]
        gen, inv, sep = zip(reqs[:3], outs)
        assert wl.check(sep[0], {**sep[1], "code": 1})
        doc = json.loads(inv[1]["stdout"])
        doc["entries"][-1]["value"] *= 1.01
        assert wl.check(inv[0], {**inv[1], "stdout": json.dumps(doc)})
        state = Path(gen[0]["argv"][gen[0]["argv"].index("-o") + 1])
        text = json.loads(state.read_text())
        text["amplitudes"][0][0] += 1e-3
        state.write_text(json.dumps(text))
        assert wl.check(gen[0], gen[1])
    finally:
        wl.close()


def test_absent_function_reads_zero():
    tracer = Tracer(boundaries=(("algebra", "no_such_kernel", None), ("cli", "run_command", None)))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["algebra.no_such_kernel"]
    metrics = layer_metrics(tracer.dump())
    assert metrics["algebra.log.calls"] == 0


def test_refuses_a_checkout_without_luinv():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "family",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_marks_wide_spread_unresolved(tmp=ROOT / ".perfbench" / "compare"):
    tmp.mkdir(parents=True, exist_ok=True)
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["wall_s"]

    def write(path, walls):
        with open(path, "w") as fh:
            for seed, wall in enumerate(walls):
                fh.write(json.dumps({"workload": "family", "seed": seed, "trace": 0, "metrics": {
                    "wall_s": {"value": wall, "unit": "s"},
                    "error_rate": {"value": 0.0, "unit": "ratio"}}}) + "\n")

    try:
        write(tmp / "a.jsonl", [1.0, 1.001, 0.999, 1.0])
        write(tmp / "b.jsonl", [1.0, 1.0 + 4 * bound, 1.0 - 2 * bound, 1.0 + bound])
        wide = run.compare(SPEC, tmp / "a.jsonl", tmp / "b.jsonl")
        tight = run.compare(SPEC, tmp / "a.jsonl", None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def row(report):
        return next(line for line in report.splitlines() if "wall_s" in line)

    assert "unresolved" in row(wide)
    assert "unresolved" not in row(tight)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}", flush=True)
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}", flush=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
