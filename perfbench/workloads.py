"""The four luinv benchmark workloads; run.py runs each in a child process.

    python3 perfbench/workloads.py --workload NAME --seed N --mode MODE --seconds S

MODE is ``setup`` (set up and exit), ``measure`` (set up, run whole batches
for S seconds of request time with more set-ups in child processes between
requests, check every output) or ``trace`` (set up, run a fixed
set of batches once without and once with the outside-in tracer, check every
output; S is not used).  The last stdout line is one JSON object.

Every workload is one closed-loop client: a request is sent only after the
previous one returned.  Inputs of batch b come from the generator seeded with
(seed, workload, b), so a batch's inputs do not depend on how many batches ran
before it.  Output checks run after the timed windows.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: luinv import, inputs, warm-up

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import product as iproduct  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

# Calls go through the package namespace (luinv.name), where the tracer rebinds them.
import luinv  # noqa: E402
from tracer import ALGEBRA_GRID, Tracer, layer_metrics, merge, write_spans  # noqa: E402

WORKDIR = ROOT / ".perfbench"
SEPARABLE_RTOL = 1e-10  # the CLI's separability rule: I <= rtol * norm_sq**theta
LU_TOL = 1e-9  # acceptance criterion 3, scaled by max(1, |I|)
SUDBERY_TOL = 1e-10  # acceptance criterion 4, absolute
ALGEBRA_TOL = 1e-10  # relative two-norm residual, as in acceptance criterion 1
CLI_RTOL = 1e-9  # report value vs in-process value, scaled by max(1, |value|)
WARMUP_BATCH = 2_000_000  # the warm-up's inputs
SETUPS = 3  # cold set-ups per measuring run; setup_s is their median
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(1.0, float(np.linalg.norm(b))))


def _random_amps(rng, n: int) -> np.ndarray:
    c = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return c / np.linalg.norm(c)


def _random_partition(rng, n: int) -> tuple[tuple[int, ...], ...]:
    """A partition of 1..n into blocks of sizes n // 2 and n - n // 2, sites
    drawn at random.  The shape is fixed so that the number of splitting
    indices, and with it a request's work, does not depend on the seed."""
    sites = [int(s) for s in rng.permutation(np.arange(1, n + 1))]
    blocks = (sites[: n // 2], sites[n // 2:])
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))


def _product_amps(rng, n: int, blocks) -> np.ndarray:
    """Amplitudes of a product of random block states, sites in order 1..n."""
    t = np.ones(())
    order: list[int] = []
    for block in blocks:
        t = np.multiply.outer(t, _random_amps(rng, len(block)).reshape((2,) * len(block)))
        order += list(block)
    return t.transpose([order.index(s) for s in range(1, n + 1)]).reshape(-1)


def _haar_su2(rng) -> np.ndarray:
    z = rng.standard_normal(4)
    z /= np.linalg.norm(z)
    u, v = z[0] + 1j * z[1], z[2] + 1j * z[3]
    return np.array([[u, v], [-v.conjugate(), u.conjugate()]])


def _rotate(amps: np.ndarray, mats) -> np.ndarray:
    t = amps.reshape((2,) * len(mats))
    for axis, g in enumerate(mats):
        t = np.moveaxis(np.tensordot(g, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def _sudbery_residual(amps: np.ndarray, inv: dict) -> float:
    """Worst residual of the five 3-qubit relations between I and Sudbery's J."""
    t = amps.reshape(2, 2, 2)
    tc = t.conj()
    r1 = np.einsum("ijk,ljk->il", t, tc)
    r2 = np.einsum("ijk,ilk->jl", t, tc)
    r3 = np.einsum("ijk,ijl->kl", t, tc)
    r12 = np.einsum("ijk,lmk->ijlm", t, tc).reshape(4, 4)
    j1 = float(np.vdot(amps, amps).real)
    j2, j3, j4 = (float(np.trace(r @ r).real) for r in (r3, r2, r1))
    j5 = float((3 * np.trace(np.kron(r1, r2) @ r12)
                - np.trace(r1 @ r1 @ r1) - np.trace(r2 @ r2 @ r2)).real)
    pairs = [
        (inv[(1, 0, 0)], j1),
        (4 * inv[(1, 1, 0)], j1**2 + j2 - j3 - j4),
        (4 * inv[(1, 0, 1)], j1**2 + j3 - j2 - j4),
        (4 * inv[(0, 1, 1)], j1**2 + j4 - j2 - j3),
        (6 * inv[(1, 1, 1)], 5 * j1**3 - 3 * j1 * (j2 + j3 + j4) + 4 * j5),
    ]
    return max(abs(a - b) for a, b in pairs)


# The layers are luinv's modules; selftest only runs the acceptance battery.
LAYERS = ("algebra", "cumulants", "invariants", "haar", "density", "mixed",
          "transvectants", "states", "report", "cli")


class Workload:
    """A batch generator, a request runner and an output checker.

    ``stresses`` names the layers the workload's requests run; it bypasses
    the others, where the trace predicts no change.
    """

    name = ""
    stresses: tuple[str, ...] = ()
    traced_batches = 2
    min_batches = 1  # a measuring run holds at least this many batches

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.traced = False
        self.dumps: list[dict] = []  # tracer counters of traced child processes

    def rng(self, batch: int) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed & (2**64 - 1), WORKLOADS.index(type(self)), batch])

    def setup(self) -> None:
        """Warm-up; set-up time is measured around the import and this."""

    def make_batch(self, b: int) -> list[dict]:
        raise NotImplementedError

    def run(self, req: dict):
        raise NotImplementedError

    def check(self, req: dict, out) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Remove whatever the workload wrote."""


class Family(Workload):
    """Warm closed-form invariants for the evaluator's three callers."""

    name = "family"
    stresses = ("invariants", "cumulants")
    traced_batches = 8

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.ns = (3, 4) if tiny else (3, 4, 5)

    def setup(self):
        rng = self.rng(WARMUP_BATCH)
        for n in self.ns:  # first call of every index: the symbolic compile
            psi = luinv.AlgebraElement(n, 2, _random_amps(rng, n))
            for idx in luinv.invariant_family(n):
                luinv.cumulant_invariant(psi, idx)
            luinv.splitting_indices(_random_partition(rng, n), n)
        luinv.jacobian_rank(luinv.AlgebraElement(3, 2, _random_amps(rng, 3)))

    def make_batch(self, b):
        # len(ns) cycles over ns; cycle c puts a product state on its c-th n,
        # so one state in len(ns) is a product state and every n gets one.
        rng = self.rng(b)
        reqs = []
        for c in range(len(self.ns)):
            for pos, n in enumerate(self.ns):
                blocks = _random_partition(rng, n)
                is_product = pos == c
                amps = _product_amps(rng, n, blocks) if is_product else _random_amps(rng, n)
                rotation = [_haar_su2(rng) for _ in range(n)]
                reqs.append({"n": n, "psi": luinv.AlgebraElement(n, 2, amps), "blocks": blocks,
                             "product": is_product, "rotation": rotation})
        return reqs

    def run(self, req):
        psi, n = req["psi"], req["n"]
        values = {idx: luinv.cumulant_invariant(psi, idx) for idx in luinv.invariant_family(n)}
        norm_sq = psi.norm_sq()
        split = {idx: luinv.cumulant_invariant(psi, idx)
                 for idx in luinv.splitting_indices(req["blocks"], n)}
        separable = all(v <= SEPARABLE_RTOL * norm_sq ** sum(idx) for idx, v in split.items())
        rank = luinv.jacobian_rank(psi) if n == 3 else None
        return {"values": values, "split": split, "separable": separable, "rank": rank}

    def check(self, req, out):
        n, amps = req["n"], req["psi"].coeffs
        fails = []
        family = luinv.invariant_family(n)
        if list(out["values"]) != family:
            fails.append(f"family n={n}: wrong index set")
            return fails
        rotated = luinv.AlgebraElement(n, 2, _rotate(amps, req["rotation"]))
        worst = max(abs(v - luinv.cumulant_invariant(rotated, idx)) / max(1.0, abs(v))
                    for idx, v in out["values"].items())
        if not worst <= LU_TOL:
            fails.append(f"family n={n}: LU invariance residual {worst:.3e}")
        if n == 3:
            resid = _sudbery_residual(amps, out["values"])
            if not resid <= SUDBERY_TOL:
                fails.append(f"family n=3: Sudbery residual {resid:.3e}")
            if not req["product"] and out["rank"] != 5:
                fails.append(f"family n=3: Jacobian rank {out['rank']}, expected 5")
        if out["separable"] != req["product"]:
            fails.append(f"family n={n}: verdict separable={out['separable']} "
                         f"for product={req['product']} over {req['blocks']}")
        return fails


class Twirl(Workload):
    """The Monte-Carlo oracle: one twirl_estimate per request."""

    name = "twirl"
    stresses = ("haar", "cumulants")
    # A batch takes about 7 s, so a run of `seconds` would hold one or two;
    # four spread its memory-bound requests over half a minute of the host's
    # drifting speed, which halves their run-to-run spread.
    min_batches = 4

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.ns = (2, 3) if tiny else (2, 3, 4)
        self.samples = 2_000 if tiny else 100_000
        self.big_samples = 20_000 if tiny else 1_000_000

    def setup(self):
        psi = luinv.AlgebraElement(2, 2, _random_amps(self.rng(WARMUP_BATCH), 2))
        luinv.twirl_estimate(psi, (1, 1), samples=2_000, seed=0)

    def make_batch(self, b):
        rng = self.rng(b)
        reqs = []
        for n in self.ns:
            psi = luinv.AlgebraElement(n, 2, _random_amps(rng, n))
            for idx in luinv.invariant_family(n)[1:]:
                reqs.append({"psi": psi, "index": idx, "samples": self.samples,
                             "seed": int(rng.integers(2**31))})
        reqs.append({"psi": luinv.AlgebraElement(2, 2, _random_amps(rng, 2)), "index": (1, 1),
                     "samples": self.big_samples, "seed": int(rng.integers(2**31))})
        return reqs

    def run(self, req):
        est = luinv.twirl_estimate(req["psi"], req["index"], samples=req["samples"],
                                   seed=req["seed"])
        return {"mean": est.mean, "std_error": est.std_error}

    def check(self, req, out):
        closed = luinv.cumulant_invariant(req["psi"], req["index"])
        allowed = 5 * out["std_error"] + 1e-12 * max(1.0, abs(closed))
        if abs(out["mean"] - closed) <= allowed:
            return []
        return [f"twirl {req['index']}: estimate {out['mean']!r} vs closed form {closed!r} "
                f"(allowed {allowed:.3e})"]


class Algebra(Workload):
    """The nilpotent-algebra kernels log, exp, inverse and product."""

    name = "algebra"
    stresses = ("algebra",)
    traced_batches = 4

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.grid = ((2, 3), (3, 3)) if tiny else ALGEBRA_GRID
        self._pairs: dict = {}

    @staticmethod
    def _tame(rng, n, d):
        r = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        r[0] = 0.0
        r *= rng.uniform(0.2, 1.0) / np.linalg.norm(r)
        r[0] = 1.0
        return luinv.AlgebraElement(n, d, r)

    def setup(self):
        rng = self.rng(WARMUP_BATCH)
        for d in sorted({d for d, _ in self.grid}):
            n = min(n for dd, n in self.grid if dd == d)
            self.run({"x": self._tame(rng, n, d), "y": self._tame(rng, n, d)})

    def make_batch(self, b):
        rng = self.rng(b)
        return [{"x": self._tame(rng, n, d), "y": self._tame(rng, n, d)} for d, n in self.grid]

    def run(self, req):
        x, y = req["x"], req["y"]
        return {"log": luinv.log(x).coeffs, "exp": luinv.exp(x).coeffs,
                "inverse": luinv.inverse(x).coeffs, "product": luinv.product(x, y).coeffs}

    # Reference arithmetic: the product as a sum over digit-wise carry-free
    # index pairs, and the same finite Taylor series the algebra defines.
    def _ref_product(self, a, b, n, d):
        if (n, d) not in self._pairs:
            digits = np.array(list(iproduct(range(d), repeat=n)))
            sums = digits[:, None, :] + digits[None, :, :]
            i, j = np.nonzero((sums < d).all(axis=2))
            k = sums[i, j] @ (d ** np.arange(n - 1, -1, -1))
            self._pairs[(n, d)] = (i, j, k)
        i, j, k = self._pairs[(n, d)]
        v = a[i] * b[j]
        return np.bincount(k, v.real, d**n) + 1j * np.bincount(k, v.imag, d**n)

    def _ref_series(self, x, series, n, d):
        r = np.array(x, dtype=complex)
        r[0] = 0.0
        out = np.zeros_like(r)
        out[0] = series[0]
        power = r
        for k in range(1, len(series)):
            out = out + series[k] * power
            power = self._ref_product(power, r, n, d)
        return out

    def check(self, req, out):
        x, y = req["x"], req["y"]
        n, d, a = x.n, x.d, x.constant_term
        order = n * (d - 1)
        one = np.zeros(d**n, dtype=complex)
        one[0] = 1.0
        fact = np.cumprod([1.0, *range(1, order + 1)])

        def ref_exp(z):
            return self._ref_series(z, [np.exp(z[0]) / f for f in fact], n, d)

        ref_log = self._ref_series(
            x.coeffs, [np.log(a)] + [(-1) ** (k - 1) / (k * a**k) for k in range(1, order + 1)],
            n, d)
        residuals = {
            "exp(log x) = x": _rel(ref_exp(out["log"]), x.coeffs),
            "log x = reference": _rel(out["log"], ref_log),
            "exp x = reference": _rel(out["exp"], ref_exp(x.coeffs)),
            "x inverse(x) = 1": _rel(self._ref_product(x.coeffs, out["inverse"], n, d), one),
            "x y = reference": _rel(out["product"], self._ref_product(x.coeffs, y.coeffs, n, d)),
        }
        return [f"algebra n={n} d={d}: {name} residual {r:.3e}"
                for name, r in residuals.items() if not r <= ALGEBRA_TOL]


def _write_state(path: Path, amps: np.ndarray) -> None:
    """A state file in luinv's JSON format, written without luinv."""
    n = int(np.log2(amps.size))
    doc = {"n": n, "d": 2, "amplitudes": [[float(c.real), float(c.imag)] for c in amps]}
    path.write_text(json.dumps(doc) + "\n")


def _read_state(path: Path) -> luinv.AlgebraElement:
    doc = json.loads(path.read_text())
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return luinv.AlgebraElement(doc["n"], doc["d"], amps)


def _close(a, b) -> bool:
    return abs(a - b) <= CLI_RTOL * max(1.0, abs(b))


class Cli(Workload):
    """Cold requests: one fresh ``python -m luinv`` process each."""

    name = "cli"
    stresses = ("cli", "states", "report", "invariants", "cumulants", "haar", "density",
                "mixed", "transvectants")

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.gen_n, self.sep_n = (3, 3) if tiny else (5, 4)
        self.twirl_samples = 2_000 if tiny else 20_000
        self.dir = WORKDIR / f"cli-{os.getpid()}"

    def _argv(self, argv: list[str], counters: Path | None) -> list[str]:
        if counters is None:
            return [sys.executable, "-m", "luinv", *argv]
        return [sys.executable, str(HERE / "tracer.py"), "--out", str(counters), "--", *argv]

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        warm = self.dir / "warm.json"
        subprocess.run(self._argv(["gen", "--kind", "ghz", "-n", "2", "-o", str(warm)], None),
                       cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=120, check=True)

    def make_batch(self, b):
        rng = self.rng(b)
        d = self.dir / f"b{b}"
        d.mkdir(parents=True, exist_ok=True)
        gen, rand3, prod, rand = (d / f for f in ("gen.json", "rand3.json", "prod.json",
                                                  "rand.json"))
        blocks = _random_partition(rng, self.sep_n)
        _write_state(rand3, _random_amps(rng, 3))
        _write_state(prod, _product_amps(rng, self.sep_n, blocks))
        _write_state(rand, _random_amps(rng, self.sep_n))
        part = "|".join(",".join(map(str, blk)) for blk in blocks)
        gen_seed, twirl_seed = (int(s) for s in rng.integers(2**31, size=2))
        last = str(self.sep_n)
        kept = "1" * (self.sep_n - 1)
        script = [
            ("gen", ["gen", "--kind", "random", "-n", str(self.gen_n), "-o", str(gen),
                     "--seed", str(gen_seed)], 0),
            ("invariants", ["invariants", "--state", str(gen), "--all"], 0),
            ("separability", ["separability", "--state", str(prod), "--partition", part], 0),
            ("separability", ["separability", "--state", str(rand), "--partition", part], 1),
            ("twirl", ["twirl", "--state", str(rand3), "--index", "111",
                       "--samples", str(self.twirl_samples), "--seed", str(twirl_seed)], 0),
            ("lift", ["lift", "--state", str(rand), "--trace-out", last, "--index", kept], 0),
            ("zhou", ["zhou", "--state", str(gen), "--index", "1" * self.gen_n], 0),
            ("covariants", ["invariants", "--state", str(gen), "--family", "H", "--all"], 0),
        ]
        return [{"kind": k, "argv": a, "expect": e, "blocks": blocks, "gen_seed": gen_seed,
                 "dir": d} for k, a, e in script]

    def run(self, req):
        counters = req["dir"] / f"trace-{len(self.dumps)}.json" if self.traced else None
        proc = subprocess.run(self._argv(req["argv"], counters), cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=150)
        if counters is not None:
            self.dumps.append(json.loads(counters.read_text()))
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, req, out):
        kind, argv = req["kind"], req["argv"]
        head = f"cli {kind} ({' '.join(argv[:1])})"
        if out["code"] != req["expect"]:
            return [f"{head}: exit {out['code']}, expected {req['expect']}: {out['stderr'][-200:]}"]
        doc = json.loads(out["stdout"])
        got = [e["value"] for e in doc["entries"]]
        state = Path(argv[argv.index("--state") + 1]) if "--state" in argv else None
        psi = _read_state(state) if state else None
        if kind == "gen":
            want_psi = luinv.generate_state("random", self.gen_n, seed=req["gen_seed"])
            written = _read_state(Path(argv[argv.index("-o") + 1]))
            ok = np.array_equal(written.coeffs, want_psi.coeffs)
            return [] if ok else [f"{head}: written state differs from generate_state"]
        if kind == "invariants":
            want = [luinv.cumulant_invariant(psi, idx) for idx in luinv.invariant_family(psi.n)]
        elif kind == "separability":
            want = [luinv.cumulant_invariant(psi, idx)
                    for idx in luinv.splitting_indices(req["blocks"], psi.n)]
            verdict = "separable" if req["expect"] == 0 else "not separable"
            if doc["verdict"] != verdict:
                return [f"{head}: verdict {doc['verdict']!r}, expected {verdict!r}"]
        elif kind == "twirl":
            idx = argv[argv.index("--index") + 1]
            samples, seed = (int(argv[argv.index(f) + 1]) for f in ("--samples", "--seed"))
            est = luinv.twirl_estimate(psi, idx, samples=samples, seed=seed)
            want = [luinv.cumulant_invariant(psi, idx), est.mean]
        elif kind == "lift":
            want = list(luinv.lifted_invariant_pair(
                psi, [int(argv[argv.index("--trace-out") + 1])], argv[argv.index("--index") + 1]))
        elif kind == "zhou":
            want = [luinv.zhou_m(psi, argv[argv.index("--index") + 1])]
        else:
            want = [luinv.family_covariant(psi, "H", e["index"]) for e in doc["entries"]]
            if len(want) != self.gen_n * (self.gen_n - 1) * (self.gen_n - 2) // 6:
                return [f"{head}: {len(want)} H covariants"]
        if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
            return [f"{head}: report values {got[:3]}... differ from library {want[:3]}..."]
        return []

    def peak_rss_mb(self):
        # The largest child; set-up children (an import and a 2-qubit gen)
        # stay well below the n = 5 request processes.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = [Family, Twirl, Algebra, Cli]
BY_NAME = {w.name: w for w in WORKLOADS}


def run_batches(wl: Workload, seconds: float, first: int = 0, count: int | None = None,
                tracer: Tracer | None = None, between=None):
    """Run whole batches: `count` of them, or else until `seconds` of request
    time and at least `wl.min_batches` batches have run.  `between(busy)` is
    called after each request with the request time so far; its own time is
    not request time.  Returns per-request latencies, per-batch times (the sum
    of their latencies) and (request, output, error) records."""
    latencies, batch_s, records = [], [], []
    busy = 0.0
    b = first
    while True:
        reqs = wl.make_batch(b)
        batch = 0.0
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = f"{b}.{i}"
            t = time.perf_counter()
            try:
                out, err = wl.run(req), None
            except Exception as exc:  # a failed request is counted, the run goes on
                out, err = None, f"{wl.name}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            latencies.append(dt)
            records.append((req, out, err))
            batch += dt
            busy += dt
            if between is not None:
                between(busy)
        batch_s.append(batch)
        b += 1
        if count is not None:
            if b - first >= count:
                break
        elif busy >= seconds and b - first >= wl.min_batches:
            break
    return latencies, batch_s, records


def check_all(wl: Workload, records) -> list[str]:
    """One message per failed request (first failure of each)."""
    failures = []
    for req, out, err in records:
        if err is None:
            try:
                msgs = wl.check(req, out)
            except Exception as exc:  # a check that cannot run counts as a wrong output
                msgs = [f"{wl.name}: check raised {type(exc).__name__}: {exc}"]
            err = msgs[0] if msgs else None
        if err is not None:
            failures.append(err)
    return failures


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "luinv": luinv.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _ms_quantiles(latencies: list[float]) -> dict:
    out = {"req_p50_ms": statistics.median(latencies) * 1e3}
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        out["req_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return out


def setup(wl: Workload) -> dict:
    """Set-up time from process start."""
    wl.setup()
    return {"setup_s": time.perf_counter() - T0}


def _setup_child(wl: Workload) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(wl.seed), "--mode", "setup"]
    proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl: Workload, seconds: float, setups: int = SETUPS) -> dict:
    """Set up, then run batches for `seconds` of request time.

    `setups - 1` cold set-ups run in child processes between requests, at
    even steps of request time, so that set-up and requests are sampled over
    the same stretch of the host's drifting speed.
    """
    setup_s = [setup(wl)["setup_s"]]

    def between(busy: float) -> None:
        while len(setup_s) < setups and busy >= seconds * len(setup_s) / setups:
            setup_s.append(_setup_child(wl))

    latencies, batch_s, records = run_batches(wl, seconds, between=between)
    peak = wl.peak_rss_mb()
    failures = check_all(wl, records)
    return {
        "setup_s": statistics.median(setup_s),
        "setups": setup_s,
        "wall_s": statistics.median(batch_s),
        **_ms_quantiles(latencies),
        "peak_rss_mb": peak,
        "batches": len(batch_s),
        "requests": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
    }


def _cold_import_ms() -> float:
    code = "import time; t = time.perf_counter(); import luinv; print(time.perf_counter() - t)"
    times = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                                  check=True, capture_output=True, text=True,
                                  timeout=120).stdout)
             for _ in range(3)]
    return statistics.median(times) * 1e3


def trace(wl: Workload) -> dict:
    """`traced_batches` batches, each run once untraced and once traced.

    The batches are fixed, so counters repeat exactly for a seed, and the
    tracer's overhead compares the same inputs on both sides; which side runs
    first alternates from batch to batch.  The warm-up is traced too, for
    first-call cost and its memory; counters then cover the traced batches.
    """
    tracer = Tracer()
    tracer.install()
    wl.setup()
    warm_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()
    tracer.reset()
    untraced, traced, records = 0.0, 0.0, []
    for k in range(wl.traced_batches):
        for on in (k % 2 == 0, k % 2 == 1):
            if on:
                tracer.install()
            wl.traced = on
            _, batch_s, recs = run_batches(wl, 0, first=k, count=1,
                                           tracer=tracer if on else None)
            wl.traced = False
            tracer.uninstall()
            records += recs
            if on:
                traced += batch_s[0]
            else:
                untraced += batch_s[0]
    counters = merge([tracer.dump(), *(d["counters"] for d in wl.dumps)])
    self_s = tracer.self_seconds() + sum(d["self_s"] for d in wl.dumps)
    metrics = layer_metrics(counters)
    metrics["cli.import_ms"] = _cold_import_ms() if isinstance(wl, Cli) else 0.0
    metrics["invariants.warmup_rss_mb"] = (
        max(d["rss_mb"] for d in wl.dumps) if wl.dumps else warm_rss)
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100
    spans = tracer.span_records()
    for k, dump in enumerate(wl.dumps):  # one cli request process each
        spans += [{**rec, "request": f"process.{k}"} for rec in dump["spans"]]
    write_spans(WORKDIR / f"spans-{wl.name}-{wl.seed}.jsonl", spans)
    failures = check_all(wl, records)
    if self_s > traced:
        failures.append(f"tracer: layer self time {self_s:.3f} s exceeds traced wall "
                        f"{traced:.3f} s")
    return {
        "metrics": metrics,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "layer_self_s": self_s,
        "absent": sorted(set(tracer.absent).union(*(d["absent"] for d in wl.dumps))),
        "batches": 2 * wl.traced_batches,
        "requests": len(records),
        "failed": len(failures),
        "failures": failures[:5],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    wl = BY_NAME[args.workload](args.seed)
    try:
        if args.mode == "setup":
            result = setup(wl)
        elif args.mode == "measure":
            result = measure(wl, args.seconds)
        else:
            result = trace(wl)
    finally:
        wl.close()
    result["env"] = environment()
    result["stresses"] = wl.stresses
    result["bypasses"] = [layer for layer in LAYERS if layer not in wl.stresses]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
