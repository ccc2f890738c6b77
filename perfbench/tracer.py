"""Outside-in tracer for luinv: wraps public functions from the benchmark's side.

The tracer rebinds each traced function in every loaded ``luinv`` module that
holds it (so ``cli.cumulant_invariant`` is traced as well as
``invariants.cumulant_invariant``) and wraps ``APolynomial`` methods on the
class.  luinv's source is never modified.

Every boundary keeps aggregated counters (calls, total seconds, self seconds,
plus boundary-specific extras).  Self time is total time minus the time of
wrapped children.  Individual spans (request, id, parent, name, start, end) are
kept in memory for the first ``SPAN_LIMIT`` calls of each boundary; beyond that
a boundary is counted only, because per-call span records on a boundary hit
~10^6 times per run would dominate the run.  A boundary whose function does
not exist is skipped and listed in ``absent``; its metrics then read zero.

Run as a script, it is a traced stand-in for ``python -m luinv``:

    python3 perfbench/tracer.py --out counters.json -- invariants --state s.json --all
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

SPAN_LIMIT = 100_000
COLD_KEYS = ("seen", "cold_s")

# Grid of the algebra workload; each kernel gets one ms-per-call metric per point.
ALGEBRA_GRID = ((2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5))
ALGEBRA_KERNELS = ("log", "exp", "inverse", "product")
CLI_SUBCOMMANDS = ("gen", "invariants", "separability", "twirl", "lift", "zhou")


def _index_key(index) -> tuple:
    if isinstance(index, str):
        return tuple(int(ch) for ch in index)
    return tuple(int(b) for b in index)


# Extras: called as extra(counter_extras, args, kwargs, seconds) after each call.
def _per_shape(ex, args, kwargs, dt):
    x = args[0]
    key = f"n{x.n}d{x.d}"
    calls, total = ex.get(key, (0, 0.0))
    ex[key] = [calls + 1, total + dt]


def _terms_scalar(ex, args, kwargs, dt):
    ex["terms"] = ex.get("terms", 0) + len(args[0].terms)


def _terms_batch(ex, args, kwargs, dt):
    amps = args[1] if len(args) > 1 else kwargs["amps"]
    ex["terms"] = ex.get("terms", 0) + len(args[0].terms) * int(amps.shape[0])


def _first_per_index(ex, args, kwargs, dt):
    seen = ex.setdefault("seen", set())
    key = _index_key(args[1] if len(args) > 1 else kwargs["index"])
    if key not in seen:
        seen.add(key)
        ex["cold_s"] = ex.get("cold_s", 0.0) + dt


def _samples(ex, args, kwargs, dt):
    ex["samples"] = ex.get("samples", 0) + int(
        kwargs.get("samples", args[2] if len(args) > 2 else 100_000)
    )


def _per_subcommand(ex, args, kwargs, dt):
    argv = list(args[0] if args else kwargs["argv"])
    key = argv[0] if argv else "?"
    ex[key] = ex.get(key, 0.0) + dt


# (module, attribute path, extra); the metric prefix is "<module>.<attribute path>".
BOUNDARIES = (
    *(("algebra", k, _per_shape) for k in ALGEBRA_KERNELS),
    ("cumulants", "APolynomial.evaluate", _terms_scalar),
    ("cumulants", "APolynomial.evaluate_batch", _terms_batch),
    ("cumulants", "cumulant_poly", None),
    ("cumulants", "splitting_indices", None),
    ("invariants", "cumulant_invariant", _first_per_index),
    ("invariants", "jacobian_rank", None),
    ("haar", "twirl_estimate", _samples),
    ("haar", "haar_su2_batch", None),
    ("density", "partial_trace", None),
    ("density", "density_matrix", None),
    ("mixed", "mixed_invariant", None),
    ("mixed", "lifted_invariant_pair", None),
    ("mixed", "zhou_m", None),
    ("mixed", "zhou_cumulant", None),
    ("transvectants", "transvectant", None),
    ("transvectants", "covariant_norm", None),
    ("transvectants", "family_covariant", None),
    ("states", "load_state", None),
    ("states", "save_state", None),
    ("states", "generate_state", None),
    ("report", "render_report", None),
    ("cli", "run_command", _per_subcommand),
)


class Tracer:
    """Wraps luinv boundaries and accumulates counters and spans in memory."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.request = None
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget counters and spans, but keep what first calls per index cost:
        that is process state (the compile cache), not per-window work."""
        old = getattr(self, "counters", {})
        self.counters = {}
        for module, attr, _ in self.boundaries:
            name = f"{module}.{attr}"
            kept = old.get(name, {}).get("extra", {})
            extra = {k: kept[k] for k in COLD_KEYS if k in kept}
            self.counters[name] = {"calls": 0, "total": 0.0, "self": 0.0, "extra": extra}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    def _wrap(self, name, fn, extra):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            c = self.counters[name]
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [0.0, span_id]  # [time of wrapped children, span id]
            self._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                dt = end - start
                c["calls"] += 1
                c["total"] += dt
                c["self"] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if extra is not None:
                    extra(c["extra"], args, kwargs, dt)
                if c["calls"] <= SPAN_LIMIT:
                    self.spans.append(
                        (self.request, span_id, parent and parent[1], name, start, end)
                    )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Rebind every boundary in every loaded luinv module (idempotent)."""
        if self._bindings:
            return
        self.absent = []
        found = []
        for module, attr, extra in self.boundaries:
            try:
                owner = importlib.import_module(f"luinv.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                found.append((f"{module}.{attr}", owner, leaf, getattr(owner, leaf), extra))
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "luinv" or k.startswith("luinv.")]
        for name, owner, leaf, fn, extra in found:
            wrapped = self._wrap(name, fn, extra)
            if isinstance(owner, type):
                self._bind(owner, leaf, fn, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._bind(mod, key, fn, wrapped)

    def _bind(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._bindings.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        self._bindings = []

    def self_seconds(self) -> float:
        return sum(c["self"] for c in self.counters.values())

    def dump(self) -> dict:
        """Counters as JSON data (without the set of indices already called)."""
        return {name: {**c, "extra": {k: v for k, v in c["extra"].items() if k != "seen"}}
                for name, c in self.counters.items()}

    def span_records(self) -> list[dict]:
        return [{"request": req, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end}
                for req, sid, parent, name, start, end in self.spans]


def write_spans(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def merge(dumps: list[dict]) -> dict:
    """Sum counter dumps of several processes (the cli workload's children)."""
    out: dict = {}
    for d in dumps:
        for name, c in d.items():
            acc = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "extra": {}})
            acc["calls"] += c["calls"]
            acc["total"] += c["total"]
            acc["self"] += c["self"]
            for k, v in c["extra"].items():
                if isinstance(v, list):  # per-shape (calls, total) pairs
                    old = acc["extra"].get(k, [0, 0.0])
                    acc["extra"][k] = [old[0] + v[0], old[1] + v[1]]
                else:
                    acc["extra"][k] = acc["extra"].get(k, 0) + v
    return out


def layer_metrics(counters: dict) -> dict:
    """Per-layer metric values (without cli.import_ms, invariants.warmup_rss_mb
    and trace.overhead_pct, which the workload measures itself)."""
    def c(name):
        return counters.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "extra": {}})

    m: dict[str, float] = {}
    for k in ALGEBRA_KERNELS:
        ck = c(f"algebra.{k}")
        m[f"algebra.{k}.calls"] = ck["calls"]
        m[f"algebra.{k}.self_ms"] = ck["self"] * 1e3
        for d, n in ALGEBRA_GRID:
            calls, total = ck["extra"].get(f"n{n}d{d}", (0, 0.0))
            m[f"algebra.{k}.ms_per_call.n{n}d{d}"] = total / calls * 1e3 if calls else 0.0
    for meth in ("evaluate", "evaluate_batch"):
        ck = c(f"cumulants.APolynomial.{meth}")
        m[f"cumulants.APolynomial.{meth}.calls"] = ck["calls"]
        m[f"cumulants.APolynomial.{meth}.self_ms"] = ck["self"] * 1e3
        m[f"cumulants.APolynomial.{meth}.terms"] = ck["extra"].get("terms", 0)
    ci = c("invariants.cumulant_invariant")
    m["invariants.cumulant_invariant.calls"] = ci["calls"]
    m["invariants.cumulant_invariant.self_ms"] = ci["self"] * 1e3
    m["invariants.cumulant_invariant.cold_ms"] = ci["extra"].get("cold_s", 0.0) * 1e3
    jr = c("invariants.jacobian_rank")
    m["invariants.jacobian_rank.calls"] = jr["calls"]
    m["invariants.jacobian_rank.total_ms"] = jr["total"] * 1e3
    tw = c("haar.twirl_estimate")
    m["haar.twirl_estimate.calls"] = tw["calls"]
    m["haar.twirl_estimate.self_ms"] = tw["self"] * 1e3
    hb = c("haar.haar_su2_batch")
    m["haar.haar_su2_batch.calls"] = hb["calls"]
    m["haar.haar_su2_batch.self_ms"] = hb["self"] * 1e3
    m["haar.samples_per_s"] = tw["extra"].get("samples", 0) / tw["total"] if tw["total"] else 0.0
    for name in (
        "cumulants.cumulant_poly", "cumulants.splitting_indices",
        "density.partial_trace", "density.density_matrix",
        "mixed.mixed_invariant", "mixed.lifted_invariant_pair", "mixed.zhou_m",
        "mixed.zhou_cumulant", "transvectants.transvectant", "transvectants.covariant_norm",
        "transvectants.family_covariant",
        "states.load_state", "states.save_state", "states.generate_state",
        "report.render_report",
    ):
        cn = c(name)
        m[f"{name}.calls"] = cn["calls"]
        m[f"{name}.self_ms"] = cn["self"] * 1e3
        m[f"{name}.total_ms"] = cn["total"] * 1e3
    rc = c("cli.run_command")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = rc["extra"].get(sub, 0.0) * 1e3
    return m


def main(argv: list[str]) -> int:
    """Run one luinv command line under the tracer; write counters to --out."""
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: tracer.py --out FILE -- <luinv arguments>", file=sys.stderr)
        return 2
    out, cli_argv = Path(argv[1]), argv[3:]
    from luinv import cli

    tracer = Tracer()
    tracer.install()
    try:
        cli.main(cli_argv)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    out.write_text(json.dumps({
        "counters": tracer.dump(),
        "spans": tracer.span_records(),
        "absent": tracer.absent,
        "self_s": tracer.self_seconds(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
