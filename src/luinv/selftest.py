"""Acceptance battery behind `luinv selftest`.

Thirteen self-contained checks, each seeded, each returning a pass
flag and a deterministic detail string, so battery output is
byte-stable on one platform for a fixed version.  The acceptance test
module drives the same functions.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import combinations, cycle, islice
from math import factorial, sqrt

import numpy as np

from .algebra import (
    AlgebraElement,
    apply_local,
    digits_of,
    exp,
    inverse,
    log,
    permute_sites,
    tensor,
)
from .cumulants import (
    cumulant_table,
    dimension_counts,
    set_partitions,
    splitting_indices,
)
from .haar import haar_su2, moment_battery, register_twirl_estimate, twirl_estimate
from .invariants import (
    check_relations,
    cumulant_invariant,
    evaluate_d,
    invariant_family,
    jacobian_rank,
)
from .mixed import lifted_invariant_pair, zhou_m
from .report import render_report
from .states import generate_state
from .transvectants import covariant_norm, family_covariant, hyperdeterminant, iota_chain


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy comparison results are not JSON serializable
        object.__setattr__(self, "passed", bool(self.passed))


def _gaussian(rng, n, d=2):
    """Haar-ish random pure state: normalized complex Gaussian amplitudes."""
    c = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return AlgebraElement(n, d, c / np.linalg.norm(c))


def _anchored(rng, n, d=2):
    """Normalized random state whose constant term is bounded away from 0.

    Log/cumulant round trips lose accuracy as a_{0...0} -> 0, so checks
    of exact identities sample from the well-conditioned region.
    """
    c = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    c[0] = (0.5 + abs(c[0])) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return AlgebraElement(n, d, c / np.linalg.norm(c))


def _tame(rng, n, d=2):
    """Unit constant term plus a nilpotent part of two-norm <= 1."""
    r = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    r[0] = 0.0
    r *= rng.uniform(0.2, 1.0) / np.linalg.norm(r)
    r[0] = 1.0
    return AlgebraElement(n, d, r)


def _rel(x: AlgebraElement, y: AlgebraElement) -> float:
    num = np.linalg.norm(x.coeffs - y.coeffs)
    return float(num / max(1.0, np.linalg.norm(y.coeffs)))


def criterion_01_algebra_identities() -> CriterionResult:
    rng = np.random.default_rng(101)
    grid = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3)]
    worst = 0.0
    for n, d in islice(cycle(grid), 200):
        x = _tame(rng, n, d)
        y = _tame(rng, n, d)
        one = AlgebraElement.one(n, d)
        worst = max(
            worst,
            _rel(x * inverse(x), one),
            _rel(log(x * y), log(x) + log(y)),
            _rel(exp(x + y), exp(x) * exp(y)),
            _rel(exp(log(x)), x),
        )
    return CriterionResult(
        1,
        "algebra identities",
        worst <= 1e-10,
        f"max relative residual {worst:.3e} over 200 instances, n <= 5, d <= 3",
    )


def criterion_02_cumulant_consistency() -> CriterionResult:
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in islice(cycle((2, 3, 4)), 100):
        psi = _anchored(rng, n)
        table = cumulant_table(psi)
        a0 = psi.coeffs[0]
        for flat in range(1, 2**n):
            bits = digits_of(flat, n, 2)
            theta = sum(bits)
            supp = [p for p in range(1, n + 1) if bits[p - 1]]
            rows = [sum(1 << (n - p) for i, p in enumerate(supp) if r >> i & 1)
                    for r in range(2**theta)]
            d_val = evaluate_d(psi.coeffs[rows, None])[0]
            resid = abs(d_val - a0**theta * table[flat]) / max(1.0, abs(d_val))
            worst = max(worst, resid)
    return CriterionResult(
        2,
        "cumulant consistency",
        worst <= 1e-10,
        f"max residual {worst:.3e} against log coefficients, 100 states, n <= 4",
    )


def criterion_03_lu_invariance() -> CriterionResult:
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in islice(cycle((2, 3, 4)), 100):
        psi = _gaussian(rng, n)
        rot = apply_local(psi, [haar_su2(rng) for _ in range(n)])
        for idx in invariant_family(n):
            a = cumulant_invariant(psi, idx)
            b = cumulant_invariant(rot, idx)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return CriterionResult(
        3,
        "local-unitary invariance",
        worst <= 1e-9,
        f"max scaled deviation {worst:.3e} over 100 random rotation pairs",
    )


def criterion_04_sudbery_relations() -> CriterionResult:
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        psi = _gaussian(rng, 3)
        for _, lhs, rhs in check_relations(psi):
            worst = max(worst, abs(lhs - rhs))
    ghz = generate_state("ghz", 3)
    ghz_resid = max(
        abs(cumulant_invariant(ghz, "110") - 0.125),
        abs(cumulant_invariant(ghz, "111") - 0.25),
    )
    return CriterionResult(
        4,
        "Sudbery relations",
        worst <= 1e-10 and ghz_resid <= 1e-10,
        f"max relation residual {worst:.3e} over 100 states; "
        f"GHZ reference residual {ghz_resid:.3e}",
    )


def criterion_05_separability() -> CriterionResult:
    parts = [
        (n, blocks)
        for n in (2, 3, 4)
        for blocks in set_partitions(n)
        if len(blocks) >= 2
    ]
    worst = 0.0
    for k, (n, blocks) in enumerate(islice(cycle(parts), 50)):
        text = "|".join(",".join(str(s) for s in b) for b in blocks)
        psi = generate_state("separable", n, seed=500 + k, partition=text)
        norm_sq = psi.norm_sq()
        for idx in splitting_indices(blocks, n):
            scaled = cumulant_invariant(psi, idx) / norm_sq ** sum(idx)
            worst = max(worst, scaled)
    rng = np.random.default_rng(105)
    fac_worst = 0.0
    zero = {1: AlgebraElement.from_terms(1, 2, {(0,): 1.0})}
    zero[2] = tensor(zero[1], zero[1])
    for m, pad in ((2, 1), (2, 2), (3, 1)):
        for _ in range(3):
            mu = _gaussian(rng, m)
            padded = tensor(mu, zero[pad])
            for idx in invariant_family(m):
                lhs = cumulant_invariant(padded, tuple(idx) + (0,) * pad)
                rhs = cumulant_invariant(mu, idx)
                fac_worst = max(fac_worst, abs(lhs - rhs))
    return CriterionResult(
        5,
        "separability criterion",
        worst <= 1e-10 and fac_worst <= 1e-10,
        f"max scaled splitting invariant {worst:.3e} over 50 separable states; "
        f"max factor-matching residual {fac_worst:.3e}",
    )


def criterion_06_monte_carlo_oracle() -> CriterionResult:
    bat_z = 0.0
    bat_ok = True
    rows = moment_battery(samples=100_000, seed=11)
    for _, _, _, _, est, expected, se in rows:
        diff = abs(est - expected)
        bat_ok &= diff <= 5 * se + 1e-12
        if se > 0:
            bat_z = max(bat_z, diff / se)
    rng = np.random.default_rng(106)
    tw_total = 0
    tw_passed = 0
    k = 0
    for n in (2, 3, 4):
        for _ in range(20):
            psi = _gaussian(rng, n)
            for idx in invariant_family(n):
                if sum(idx) < 2:
                    continue
                closed = cumulant_invariant(psi, idx)
                est = twirl_estimate(psi, idx, samples=100_000, seed=6000 + k)
                k += 1
                tw_total += 1
                tw_passed += abs(est.mean - closed) <= est.allowance(closed)
    ok = bat_ok and tw_passed == tw_total
    return CriterionResult(
        6,
        "Monte-Carlo oracle",
        ok,
        f"moment battery max z {bat_z:.2f} over {len(rows)} rows; "
        f"twirl vs closed form {tw_passed}/{tw_total} within 5 SE "
        "(absolute floor covers the zero-variance two-site case)",
    )


def criterion_07_lift_trace() -> CriterionResult:
    """The lift on a partial trace, against what its definition implies.

    For one traced site the lift is I with a 0 at that site (1e-10).  The
    invariant I twirls every site on its own, so for two or more traced
    sites no function of the reduced state gives it; there the lift is gated
    against the register twirl (haar.register_twirl_estimate) within 5
    standard errors, at seeds fixed in advance.  The crossed-Bell gap
    between I and the lift is reported, not gated.
    """
    rng = np.random.default_rng(107)
    single = 0.0
    tw_total = 0
    tw_passed = 0
    tw_z = 0.0
    for n in (3, 4):
        for _ in range(3):
            psi = _gaussian(rng, n)
            for theta in range(2, n):
                for supp in combinations(range(1, n + 1), theta):
                    traced = [s for s in range(1, n + 1) if s not in supp]
                    i_val, j_val = lifted_invariant_pair(psi, traced, (1,) * theta)
                    if len(traced) == 1:
                        single = max(single, abs(i_val - j_val) / max(1.0, abs(i_val)))
                        continue
                    est = register_twirl_estimate(
                        psi, traced, (1,) * theta, samples=100_000, seed=7000 + tw_total
                    )
                    diff = abs(est.mean - j_val)
                    tw_total += 1
                    tw_passed += diff <= est.allowance(j_val)
                    tw_z = max(tw_z, diff / est.std_error)
    bell = generate_state("bell", 2)
    crossed = permute_sites(tensor(bell, bell), (1, 3, 2, 4))
    gap_i, gap_j = lifted_invariant_pair(crossed, (3, 4), "11")
    return CriterionResult(
        7,
        "lift/trace consistency",
        single <= 1e-10 and tw_passed == tw_total,
        f"single-site max residual {single:.3e}; register twirl vs lift "
        f"{tw_passed}/{tw_total} multi-site cases within 5 SE, max |z| {tw_z:.2f}; "
        f"not gated: crossed Bell pairs traced at 3,4 give I {gap_i:.4f} "
        f"and lift {gap_j:.4f}",
    )


def criterion_08_transvectant_ratio() -> CriterionResult:
    rng = np.random.default_rng(108)
    worst_spread = 0.0
    worst_match = 0.0
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)):
        ratios = []
        for _ in range(50):
            psi = _gaussian(rng, n)
            val = covariant_norm(iota_chain(psi, k))
            inv = cumulant_invariant(psi, (1,) * k + (0,) * (n - k))
            ratios.append(val / inv)
        xi = 4.0 * factorial(k - 2) ** k * factorial(k) ** (n - k)
        mean = sum(ratios) / len(ratios)
        worst_spread = max(worst_spread, (max(ratios) - min(ratios)) / abs(mean))
        worst_match = max(worst_match, abs(mean - xi) / xi)
    return CriterionResult(
        8,
        "transvectant ratio",
        worst_spread <= 1e-8 and worst_match <= 1e-8,
        f"max spread {worst_spread:.3e} over 50 states per pair; "
        f"max deviation from 4((k-2)!)^k (k!)^(n-k) is {worst_match:.3e}",
    )


def criterion_09_hyperdeterminant() -> CriterionResult:
    ghz = generate_state("ghz", 3)
    w = generate_state("w", 3)
    det_ghz = hyperdeterminant(ghz)
    exact = max(
        abs(det_ghz + 0.5),
        abs(abs(det_ghz) ** 2 - 0.25),
        abs(hyperdeterminant(w)),
    )
    rng = np.random.default_rng(109)
    ratios = []
    for _ in range(20):
        psi = _gaussian(rng, 3)
        ratios.append(family_covariant(psi, "H", "222") / abs(hyperdeterminant(psi)) ** 2)
    spread = (max(ratios) - min(ratios)) / abs(sum(ratios) / len(ratios))
    return CriterionResult(
        9,
        "hyperdeterminant",
        exact <= 1e-12 and spread <= 1e-8,
        f"GHZ and W reference residual {exact:.3e}; chain-to-Det^2 ratio "
        f"spread {spread:.3e} (constant 4)",
    )


def criterion_10_zhou() -> CriterionResult:
    """The trace-norm measure M = tr|rho_c|/2 of mixed.zhou_m.

    Anchors: M_11 = I + sqrt(I) on two qubits, M(Bell) = 3/4, M = 0 on
    products.  The two three-qubit lines are gated on relations that
    follow from the spectrum of rho_c:

    * GHZ line cos t|000> + sin t|111>, I = cos^2 t sin^2 t: six
      eigenvalues of size I|cos 2t| and a pair +-sqrt(I + I^2 cos^2 2t),
      so M = 3I sqrt(1-4I) + sqrt(I + I^2 - 4I^3).
    * W line a|100> + b|010> + c|001>, I = 4a^2b^2c^2: eigenvalues +-I/2
      and +-mu with (mu - I/2)^3 = (I/4) mu, so M^3 = I M + I^2.

    The displays these replace, 6I sqrt(1-4I) + 2 sqrt(I + I^2 - 4I^3)
    and (M - I/2)^3 = I/4, contradict the anchors: the first is twice
    M, the second needs 11/27 at W where M is 4/9.  PAPER.md holds only
    the abstract, so the repository cannot settle whether the paper
    prints them as transcribed.
    """
    rng = np.random.default_rng(110)
    m11_worst = 0.0
    for _ in range(50):
        psi = _gaussian(rng, 2)
        i11 = cumulant_invariant(psi, "11")
        m11_worst = max(
            m11_worst, abs(zhou_m(psi, "11") - (i11 + sqrt(max(i11, 0.0))))
        )
    f1_worst = 0.0
    for t in np.linspace(0.03, np.pi / 2 - 0.03, 20):
        c = np.zeros(8)
        c[0], c[7] = np.cos(t), np.sin(t)
        psi = AlgebraElement(3, 2, c)
        i111 = cumulant_invariant(psi, "111")
        rhs = 3 * i111 * sqrt(max(1 - 4 * i111, 0.0)) + sqrt(
            max(i111 + i111**2 - 4 * i111**3, 0.0)
        )
        f1_worst = max(f1_worst, abs(zhou_m(psi, "111") - rhs))
    f2_worst = 0.0
    for u in np.linspace(0.2, 1.3, 4):
        for v in np.linspace(0.2, 1.3, 5):
            c = np.zeros(8)
            c[0b100] = np.cos(u)
            c[0b010] = np.sin(u) * np.cos(v)
            c[0b001] = np.sin(u) * np.sin(v)
            psi = AlgebraElement(3, 2, c)
            i111 = cumulant_invariant(psi, "111")
            m = zhou_m(psi, "111")
            f2_worst = max(f2_worst, abs(m**3 - i111 * m - i111**2))
    prod_worst = 0.0
    for k, part in enumerate(("1|2|3", "1|2|3", "1|2|3", "1,2|3", "1|2,3")):
        psi = generate_state("separable", 3, seed=900 + k, partition=part)
        prod_worst = max(prod_worst, zhou_m(psi, "111"))
    bell_resid = abs(zhou_m(generate_state("bell", 2), "11") - 0.75)
    ok = (
        m11_worst <= 1e-8
        and f1_worst <= 1e-8
        and f2_worst <= 1e-8
        and prod_worst <= 1e-10
        and bell_resid <= 1e-10
    )
    return CriterionResult(
        10,
        "Zhou invariants",
        ok,
        f"M11 functional residual {m11_worst:.3e}; product max {prod_worst:.3e}; "
        f"Bell residual {bell_resid:.3e}; GHZ-line residual {f1_worst:.3e} "
        "against M = 3I sqrt(1-4I) + sqrt(I + I^2 - 4I^3); W-line residual "
        f"{f2_worst:.3e} against M^3 = I M + I^2",
    )


def criterion_11_jacobian_rank() -> CriterionResult:
    rng = np.random.default_rng(111)
    ranks3 = sorted({jacobian_rank(_gaussian(rng, 3)) for _ in range(10)})
    ranks2 = sorted({jacobian_rank(_gaussian(rng, 2)) for _ in range(3)})
    basis = AlgebraElement.from_terms(3, 2, {(0, 0, 0): 1.0})
    rank0 = jacobian_rank(basis)
    ok = ranks3 == [5] and ranks2 == [2] and rank0 == 1
    return CriterionResult(
        11,
        "Jacobian rank",
        ok,
        f"generic three-site rank {ranks3}, two-site rank {ranks2}, "
        f"basis-state rank {rank0}",
    )


def criterion_12_dimension_counts() -> CriterionResult:
    checks = 0
    ok = True
    for n in range(1, 7):
        for d in (2, 3):
            for blocks in set_partitions(n):
                d_pi, n_pi = dimension_counts(n, d, blocks)
                ok &= d_pi == (2 * d**n - 2) - 2 * n_pi
                checks += 1
    return CriterionResult(
        12,
        "dimension counts",
        ok,
        f"identity exact for all {checks} (partition, d) pairs up to n = 6",
    )


def criterion_13_determinism() -> CriterionResult:
    from . import cli

    mismatches = []
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "state.json")
        flows = [
            ["gen", "--kind", "ghz", "-n", "3", "-o", path, "--seed", "0"],
            ["invariants", "--state", path, "--all"],
            ["twirl", "--state", path, "--index", "111", "--samples", "2000",
             "--seed", "3"],
        ]
        for argv in flows:
            code1, doc1 = cli.run_command(argv)
            code2, doc2 = cli.run_command(argv)
            if (code1, render_report(doc1)) != (code2, render_report(doc2)):
                mismatches.append(argv[0])
    cmd = [sys.executable, "-m", "luinv", "selftest", "--criteria", "12"]
    out1 = subprocess.run(cmd, capture_output=True).stdout
    out2 = subprocess.run(cmd, capture_output=True).stdout
    if out1 != out2 or not out1:
        mismatches.append("selftest")
    return CriterionResult(
        13,
        "determinism",
        not mismatches,
        "byte-identical reports for gen, invariants, twirl, and selftest reruns"
        if not mismatches
        else f"nondeterministic output from {mismatches}",
    )


CRITERIA = (
    criterion_01_algebra_identities,
    criterion_02_cumulant_consistency,
    criterion_03_lu_invariance,
    criterion_04_sudbery_relations,
    criterion_05_separability,
    criterion_06_monte_carlo_oracle,
    criterion_07_lift_trace,
    criterion_08_transvectant_ratio,
    criterion_09_hyperdeterminant,
    criterion_10_zhou,
    criterion_11_jacobian_rank,
    criterion_12_dimension_counts,
    criterion_13_determinism,
)


def run_battery(numbers=None, progress=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), in order.

    `progress`, if given, is called as progress(result, seconds) after
    each criterion, with the criterion's wall time in seconds.
    """
    wanted = set(numbers) if numbers else set(range(1, len(CRITERIA) + 1))
    bad = wanted - set(range(1, len(CRITERIA) + 1))
    if bad:
        raise ValueError(f"unknown criteria {sorted(bad)}")
    results = []
    for k, fn in enumerate(CRITERIA, start=1):
        if k not in wanted:
            continue
        start = time.perf_counter()
        res = fn()
        if progress is not None:
            progress(res, time.perf_counter() - start)
        results.append(res)
    return results
