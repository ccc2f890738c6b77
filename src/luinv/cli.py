"""Command line interface.

Every subcommand prints one JSON report on stdout with canonical key
order, so identical inputs, seed, and version give byte-identical
output.  Exit codes: 0 success, 1 verification failure (a checked
identity or verdict did not hold), 2 usage or resource error (bad
arguments or input, unreadable files, not enough memory, a value out of
range or a report value that JSON cannot carry).  The LUINV_SEED
environment variable supplies the default seed for seeded subcommands.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations

from .cumulants import index_str, parse_index, splitting_indices
from .invariants import check_grid_table, cumulant_invariant, invariant_family
from .haar import twirl_estimate, twirl_family
from .mixed import lifted_invariant_pair, padded_index, zhou_m
from .report import make_entry, make_report, render_report
from .states import (
    STATE_KINDS,
    generate_state,
    load_state,
    parse_partition,
    parse_sites,
    save_state,
    state_digest,
)
from .transvectants import family_covariant

LIFT_RTOL = 1e-10
SEPARABLE_RTOL = 1e-10


def _default_seed(value):
    if value is not None:
        return value
    return int(os.environ.get("LUINV_SEED", "0"))


def _load(args):
    psi = load_state(args.state)
    if psi.d != 2:
        raise ValueError("invariant commands support qubit states only")
    return psi


def _site_index(args, n: int) -> tuple[int, ...]:
    bits = parse_index(args.index)
    if len(bits) != n:
        raise ValueError(f"index {args.index!r} has {len(bits)} sites, state has {n}")
    return bits


def _cmd_invariants(args):
    psi = _load(args)
    n = psi.n
    entries = []
    if args.family == "cumulant":
        indices = invariant_family(n) if args.all else [_site_index(args, n)]
        for idx in indices:  # refuse before any evaluation
            check_grid_table(idx)
        for idx in indices:
            entries.append(
                make_entry(
                    index_str(idx),
                    cumulant_invariant(psi, idx),
                    2 * sum(idx),
                    "closed-form",
                )
            )
    elif args.family == "G":
        if args.all:
            masks = sorted(
                (m for m in range(2**n) if bin(m).count("1") % 2 == 0 and m),
                key=lambda m: (bin(m).count("1"), m),
            )
            indices = [index_str((m >> (n - 1 - i)) & 1 for i in range(n)) for m in masks]
        else:
            indices = [args.index]
        for idx in indices:
            entries.append(
                make_entry(idx, family_covariant(psi, "G", idx), 4, "transvectant")
            )
    else:
        if args.all:
            indices = []
            for combo in combinations(range(n), 3):
                digits = ["0"] * n
                for i in combo:
                    digits[i] = "2"
                indices.append("".join(digits))
        else:
            indices = [args.index]
        for idx in indices:
            entries.append(
                make_entry(idx, family_covariant(psi, "H", idx), 8, "transvectant")
            )
    return 0, make_report(state_digest(psi), entries)


def _cmd_separability(args):
    psi = _load(args)
    blocks = parse_partition(args.partition, psi.n)
    norm_sq = psi.norm_sq()
    indices = splitting_indices(blocks, psi.n)
    for idx in indices:  # refuse before any evaluation
        check_grid_table(idx)
    entries = []
    separable = True
    for idx in indices:
        val = cumulant_invariant(psi, idx)
        theta = sum(idx)
        separable &= val <= SEPARABLE_RTOL * norm_sq**theta
        entries.append(make_entry(index_str(idx), val, 2 * theta, "closed-form"))
    doc = make_report(state_digest(psi), entries)
    doc["partition"] = "|".join(",".join(str(s) for s in b) for b in blocks)
    doc["norm_sq"] = norm_sq
    doc["tolerance"] = f"{SEPARABLE_RTOL:g} * norm_sq**theta per index"
    doc["verdict"] = "separable" if separable else "not separable"
    return (0 if separable else 1), doc


def _cmd_twirl(args):
    psi = _load(args)
    seed = _default_seed(args.seed)
    if args.all:
        indices = invariant_family(psi.n)[1:]
        for idx in indices:  # refuse before anything is drawn
            check_grid_table(idx)
        ests = twirl_family(psi, indices, samples=args.samples, seed=seed)
    else:
        idx = _site_index(args, psi.n)
        ests = {idx: twirl_estimate(psi, idx, samples=args.samples, seed=seed)}
    entries, checks = [], []
    for idx, est in ests.items():
        closed = cumulant_invariant(psi, idx)
        diff = abs(est.mean - closed)
        allowed = est.allowance(closed)
        entries += [
            make_entry(index_str(idx), closed, 2 * sum(idx), "closed-form"),
            make_entry(
                index_str(idx), est.mean, 2 * sum(idx), "monte-carlo", est.std_error
            ),
        ]
        checks.append({
            "index": index_str(idx),
            "difference": diff,
            "allowance": allowed,
            "verdict": "agree" if diff <= allowed else "disagree",
        })
    doc = make_report(state_digest(psi), entries, seed=seed)
    doc["samples"] = args.samples
    if args.all:
        doc["checks"] = checks
    else:
        doc.update({k: v for k, v in checks[0].items() if k != "index"})
    agree = all(c["verdict"] == "agree" for c in checks)
    doc["verdict"] = "agree" if agree else "disagree"
    return (0 if agree else 1), doc


def _cmd_lift(args):
    psi = _load(args)
    traced = parse_sites(args.trace_out, "traced site")
    kept_bits = parse_index(args.index)
    full = padded_index(psi.n, traced, kept_bits)
    i_val, j_val = lifted_invariant_pair(psi, traced, kept_bits)
    diff = abs(i_val - j_val)
    allowed = LIFT_RTOL * max(1.0, abs(i_val))
    theta = sum(kept_bits)
    entries = [
        make_entry(index_str(full), i_val, 2 * theta, "closed-form"),
        make_entry(index_str(kept_bits), j_val, 2 * theta, "closed-form"),
    ]
    doc = make_report(state_digest(psi), entries)
    doc["trace_out"] = sorted(set(traced))
    doc["difference"] = diff
    doc["allowance"] = allowed
    doc["verdict"] = "agree" if diff <= allowed else "disagree"
    return (0 if diff <= allowed else 1), doc


def _cmd_zhou(args):
    psi = _load(args)
    idx = _site_index(args, psi.n)
    entries = [make_entry(index_str(idx), zhou_m(psi, idx), 2 * sum(idx), "zhou")]
    return 0, make_report(state_digest(psi), entries)


def _cmd_gen(args):
    seed = _default_seed(args.seed)
    psi = generate_state(args.kind, args.n, seed=seed, partition=args.partition)
    save_state(psi, args.out)
    doc = make_report(state_digest(psi), [], seed=seed)
    doc["kind"] = args.kind
    doc["n"] = args.n
    doc["output"] = args.out
    return 0, doc


def _cmd_selftest(args):
    from .selftest import run_battery

    numbers = None
    if args.criteria:
        numbers = [int(tok) for tok in args.criteria.split(",") if tok.strip()]

    def progress(res, seconds):
        mark = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:2d} {mark}  {res.name}: {res.detail}"
              f"  ({seconds:.2f} s)", file=sys.stderr)

    results = run_battery(numbers, progress)
    doc = make_report("selftest", [])
    doc["criteria"] = [
        {"id": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
        for r in results
    ]
    ok = all(r.passed for r in results)
    doc["verdict"] = "pass" if ok else "fail"
    return (0 if ok else 1), doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luinv",
        description="Local-unitary invariants of multi-qubit states.",
        epilog="LUINV_SEED sets the default --seed for twirl and gen.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="closed-form invariant values")
    p.add_argument("--state", required=True, help="state file (JSON)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--index", help="site index string, site 1 first (e.g. 110)")
    g.add_argument("--all", action="store_true", help="whole family for the state")
    p.add_argument("--family", choices=("cumulant", "G", "H"), default="cumulant")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("separability", help="splitting-invariant verdict")
    p.add_argument("--state", required=True)
    p.add_argument("--partition", required=True, help='blocks like "1,2|3"')
    p.set_defaults(handler=_cmd_separability)

    p = sub.add_parser("twirl", help="Monte-Carlo Haar average vs closed form")
    p.add_argument("--state", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--index", help="site index string, site 1 first")
    g.add_argument("--all", action="store_true",
                   help="every theta >= 2 index of the family, from one draw")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_twirl)

    p = sub.add_parser("lift", help="trace identity check for zero-padded indices")
    p.add_argument("--state", required=True)
    p.add_argument("--trace-out", required=True, help='sites to trace, like "3" or "2,4"')
    p.add_argument("--index", required=True, help="index on the kept sites")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("zhou", help="trace-norm correlation measure")
    p.add_argument("--state", required=True)
    p.add_argument("--index", required=True)
    p.set_defaults(handler=_cmd_zhou)

    p = sub.add_parser("gen", help="write a named or random state file")
    p.add_argument("--kind", choices=STATE_KINDS, required=True)
    p.add_argument("-n", type=int, required=True, help="number of sites")
    p.add_argument("-o", "--out", required=True, help="output path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--partition", default=None, help="blocks for kind=separable")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--criteria", default=None, help="subset like 1,5,12 (default all)")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run_command(argv) -> tuple[int, dict | None]:
    """Dispatch one command line; returns (exit code, report or None)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code, None
    try:
        return args.handler(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2, None


def main(argv=None) -> None:
    code, doc = run_command(sys.argv[1:] if argv is None else argv)
    if doc is not None:
        try:
            text = render_report(doc)
        except ValueError as exc:  # a value out of JSON's range
            print(f"error: the report cannot be written as JSON: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        sys.stdout.write(text)
    raise SystemExit(code)
