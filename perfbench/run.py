"""luinv benchmark: closed-loop workloads against the library and its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the outside-in tracer; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE``
appends the full record (sample counts, error rate, p90, environment) to a
JSON-lines file; ``--compare`` reports two such files side by side.

The workload runs in a child process, which starts further cold set-ups of
its own between requests; ``setup_s`` is the median of them all.  This
process imports neither numpy nor luinv.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175  # a run must end within 180 s
# One BLAS thread: requests are sequential and the machine has two cores.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
EXTRA_METRICS = {"req_p90_ms": "ms", "error_rate": "ratio"}  # reported, not gated


def _child(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    """Run workloads.py in its own process group; kill the group on timeout."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} {mode} did not finish in time") from None
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        rec = _child(workload, seed, "trace", seconds, deadline)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = rec.pop("metrics")
    else:
        rec = _child(workload, seed, "measure", seconds, deadline)
        metrics = {key: rec.pop(key) for key in
                   ("setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb") if key in rec}
        metrics["error_rate"] = rec["failed"] / rec["requests"]
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_METRICS)
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
               metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
               gated=names)
    return rec


def summary(rec: dict) -> str:
    lines = [f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
             f"{rec.get('batches', '-')} batches, {rec['requests']} requests, "
             f"{rec['failed']} failed"]
    counts = {"setup_s": f"median of {len(rec.get('setups', []))} set-ups",
              "wall_s": f"median over {rec.get('batches')} batches",
              "req_p50_ms": f"{rec['requests']} requests",
              "req_p90_ms": f"{rec['requests']} requests",
              "error_rate": f"{rec['failed']}/{rec['requests']}"}
    for name, m in rec["metrics"].items():
        note = counts.get(name, "") if not rec["trace"] else ""
        lines.append(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} {note}")
    for msg in rec["failures"]:
        lines.append(f"  FAILED: {msg}")
    return "\n".join(lines)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load(path: Path) -> dict:
    """Untraced records of a JSON-lines file, as {workload: {metric: [values]}}."""
    out: dict = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"]:
            continue
        per = out.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def compare(spec: dict, a_path: Path, b_path: Path | None) -> str:
    """Medians, quartiles and ratio per workload and end-to-end metric.

    A metric is "unresolved" when the spread (quartile distance over median)
    of either side exceeds its bound.  This is a report, not a gate.
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a = _load(a_path)
    b = _load(b_path) if b_path else {}
    rows = [f"{'workload':<9} {'metric':<12} {'n':>3} {'A median':>11} {'A q1..q3':>23} "
            + (f"{'n':>3} {'B median':>11} {'B q1..q3':>23} {'B/A':>7} " if b_path else "")
            + "spread/bound"]
    for workload in sorted(set(a) | set(b)):
        for name in [*bounds, *EXTRA_METRICS]:
            sides = [s.get(workload, {}).get(name) for s in ((a, b) if b_path else (a,))]
            if not any(sides):
                continue
            cells, verdict = [], ""
            for vals in sides:
                if not vals:
                    cells.append(f"{0:>3} {'-':>11} {'-':>23} ")
                    continue
                q1, med, q3 = _quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                cells.append(f"{len(vals):>3} {med:>11.5g} {f'{q1:.5g}..{q3:.5g}':>23} ")
                if name in bounds:
                    verdict += f"{spread:.3f}/{bounds[name]} "
                    if spread > bounds[name]:
                        verdict += "unresolved "
            if b_path and all(sides):
                base = statistics.median(sides[0])
                ratio = f"{statistics.median(sides[1]) / base:>7.3f}" if base else f"{'-':>7}"
                cells.append(ratio + " ")
            rows.append(f"{workload:<9} {name:<12} " + "".join(cells) + verdict)
    return "\n".join(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="luinv benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    p.add_argument("--compare", nargs="+", type=Path, metavar="FILE",
                   help="report one or two JSON-lines files of records")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.compare:
        if len(args.compare) > 2:
            p.error("--compare takes one or two files")
        print(compare(spec, args.compare[0], args.compare[1] if len(args.compare) > 1 else None))
        return 0
    if not (ROOT / "src" / "luinv" / "__init__.py").is_file():
        print(f"error: no luinv source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        rec = run(spec, args.workload, args.seed, seconds, bool(args.trace))
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
    print(summary(rec))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["requests"],
        "failed": rec["failed"],
        "metrics": {k: rec["metrics"][k] for k in rec["gated"]},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
