"""End-to-end BENCH rows for one checkout, and a side-by-side report of two.

Run from the root of a checkout:

    python3 bench/write.py --tag 0.1.12
    python3 bench/write.py --tag 0.1.11 --root ../parent-checkout
    python3 bench/write.py --compare BENCH_0.1.11.json BENCH_0.1.12.json

The first form writes BENCH_<tag>.json in the current directory.  Every case
runs `--repeats` times as a child process of this one, which imports
neither numpy nor luinv:

- `perfbench/<workload>/<metric>`: `perfbench/run.py --workload W --trace 0`
  with seeds 1..k, one row per end-to-end metric of BENCHMARK.json;
- `selftest/criterion-06`: `python -m luinv selftest --criteria 6`, the
  criterion's own seconds from stderr, and `selftest/criterion-06/process`
  its process wall time;
- `tier1`: the tier-1 test command of ROADMAP.md, wall time;
- `cli/...`: `python -m luinv` on states from `gen --kind random --seed 1`:
  `invariants --all` and `separability` at n = 7 (`--repeats` runs) and
  n = 8 (one run), the r = 16 lift (n = 8, traced 5,6,7,8, index 1111,
  whose verdict is "disagree", exit 1), and two five-chunk twirls of
  100,000 samples, `twirl --all` at n = 5 and `twirl --index 1111` at
  n = 4, which run the chunks on the thread pool; wall time.

A row holds the median and the interquartile range of its k values, the
peak RSS of its largest child (wait4 counts a child with the children it
has waited for), the numpy version and the number of usable CPUs.
`--compare A B` prints B/A per row; it is a report, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
CRITERION_S = re.compile(r"^criterion\s+6 \w+ .*\(([\d.]+) s\)$", re.M)
# (case, n, luinv arguments after the state, expected exit code, runs: None for --repeats)
CLI_CASES = [
    ("cli/invariants-all/n7", 7, ["invariants", "--all"], 0, None),
    ("cli/separability/n7", 7, ["separability", "--partition", "1,2,3|4,5,6,7"], 1, None),
    ("cli/invariants-all/n8", 8, ["invariants", "--all"], 0, 1),
    ("cli/separability/n8", 8, ["separability", "--partition", "1,2,3,4|5,6,7,8"], 1, 1),
    ("cli/lift-r16/n8", 8, ["lift", "--trace-out", "5,6,7,8", "--index", "1111"], 1, None),
    ("cli/twirl-all/n5", 5, ["twirl", "--all", "--samples", "100000", "--seed", "1"], 0, None),
    ("cli/twirl-index/n4", 4, ["twirl", "--index", "1111", "--samples", "100000", "--seed", "1"],
     0, None),
]


def _run(cmd: list[str], root: Path) -> tuple[int, float, float, str, str]:
    """(exit code, wall s, peak RSS MB, stdout, stderr) of one child."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, wall, usage.ru_maxrss / 1024, out.read(), err.read()


def _row(case: str, unit: str, values: list[float], rss: list[float], env: dict) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"case": case, "unit": unit, "runs": len(values), "median": med,
            "iqr": q3 - q1, "peak_rss_mb": max(rss), **env}


def write(tag: str, root: Path, repeats: int) -> Path:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = {"numpy": numpy, "cpus": cpus}
    rows = []

    def measure(cmd, expect=0):
        code, wall, rss, out, err = _run(cmd, root)
        if code != expect:
            raise SystemExit(f"{' '.join(cmd)} exited with {code}:\n{err[-2000:]}")
        return wall, rss, out, err

    for workload in (w["name"] for w in spec["workloads"]):
        metrics, rss = {}, []
        for seed in range(1, repeats + 1):
            _, peak, out, _ = measure([sys.executable, "perfbench/run.py", "--workload",
                                       workload, "--seed", str(seed), "--trace", "0"])
            rss.append(peak)
            last = json.loads(out.strip().splitlines()[-1])
            if not last["correct"]:
                raise SystemExit(f"perfbench {workload} seed {seed}: {last['failed']} failed")
            for name, m in last["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
        for name, (unit, values) in metrics.items():
            rows.append(_row(f"perfbench/{workload}/{name}", unit, values, rss, env))
        print(f"perfbench {workload}: done", file=sys.stderr)

    inner, walls, rss = [], [], []
    for _ in range(repeats):
        wall, peak, _, err = measure([sys.executable, "-m", "luinv", "selftest",
                                      "--criteria", "6"])
        inner.append(float(CRITERION_S.search(err).group(1)))
        walls.append(wall)
        rss.append(peak)
    rows.append(_row("selftest/criterion-06", "s", inner, rss, env))
    rows.append(_row("selftest/criterion-06/process", "s", walls, rss, env))
    print("selftest: done", file=sys.stderr)

    walls, rss = [], []
    for _ in range(repeats):
        wall, peak, _, _ = measure([sys.executable, *TIER1])
        walls.append(wall)
        rss.append(peak)
    rows.append(_row("tier1", "s", walls, rss, env))

    with tempfile.TemporaryDirectory() as tmp:
        states = {}
        for n in sorted({n for _, n, _, _, _ in CLI_CASES}):
            states[n] = str(Path(tmp) / f"random{n}.json")
            measure([sys.executable, "-m", "luinv", "gen", "--kind", "random", "-n", str(n),
                     "--seed", "1", "-o", states[n]])
        for case, n, args, expect, runs in CLI_CASES:
            walls, rss = [], []
            for _ in range(runs or repeats):
                wall, peak, _, _ = measure([sys.executable, "-m", "luinv", args[0],
                                            "--state", states[n], *args[1:]], expect)
                walls.append(wall)
                rss.append(peak)
            rows.append(_row(case, "s", walls, rss, env))
            print(f"{case}: done", file=sys.stderr)

    path = Path(f"BENCH_{tag}.json")
    doc = {"tag": tag, "python": sys.version.split()[0], **env, "rows": rows}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def compare(a_path: Path, b_path: Path) -> str:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    base = {r["case"]: r for r in a["rows"]}
    lines = [f"{'case':<40} {'unit':<5} {a['tag']:>12} {b['tag']:>12} {'B/A':>7}"
             f" {'A iqr':>9} {'B iqr':>9} {'A rss':>8} {'B rss':>8}"]
    for r in b["rows"]:
        old = base.get(r["case"])
        if old is None:
            continue
        ratio = r["median"] / old["median"] if old["median"] else float("nan")
        lines.append(f"{r['case']:<40} {r['unit']:<5} {old['median']:>12.5g} {r['median']:>12.5g}"
                     f" {ratio:>7.3f} {old['iqr']:>9.3g} {r['iqr']:>9.3g}"
                     f" {old['peak_rss_mb']:>8.1f} {r['peak_rss_mb']:>8.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write or compare BENCH_<tag>.json files")
    p.add_argument("--tag", help="name of the file to write, BENCH_<tag>.json")
    p.add_argument("--root", type=Path, default=HERE.parent, help="checkout to measure")
    p.add_argument("--repeats", type=int, default=5, help="runs per case")
    p.add_argument("--compare", nargs=2, type=Path, metavar="FILE")
    args = p.parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    if not args.tag:
        p.error("--tag or --compare is required")
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    print(write(args.tag, args.root.resolve(), args.repeats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
