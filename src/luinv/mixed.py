"""Mixed-state lifts of the pure-state invariants, and the Zhou cumulant.

A degree-(theta, theta) invariant J(psi) = sum c Prod a_i Prod abar_j
lifts to density matrices by symmetrizing each monomial:

    Prod_r a_{i^r} Prod_s abar_{j^s}
        -> (1/theta!) sum_sigma Prod_r rho[i^r, j^sigma(r)]

The lift needs I as explicit polynomials, so `invariant_pieces` expands
the closed form term by term, one polynomial per raising-operator image
of d; `invariants` evaluates I by interpolation instead and never builds
these.  On |psi><psi| the lift reproduces J, and tracing one site out of a
pure state matches a 0 at that site of the invariant's index.  For k
traced sites the lift at the reduced state is the twirl in which the
kept sites get independent SU(2)s and the traced register one Haar
unitary of U(2^k) (haar.register_twirl_estimate); for k >= 2 that is
not the zero-padded invariant, which twirls each traced site on its own.

The Zhou cumulant operator is the density-matrix analogue of the log:
rho_c = sum over set partitions of (-1)^(blocks-1) (blocks-1)! times
the tensor product of the reduced states on the blocks, reassembled in
site order.  Half the trace norm of rho_c is the correlation measure M.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

import numpy as np

from .algebra import AlgebraElement
from .cumulants import APolynomial, cumulant_poly, parse_index, set_partitions, support
from .density import partial_trace, reduced_state, sites_of
from .invariants import cumulant_invariant

# Eigenvalues of the cumulant operator at or below this size count as zero.
EIGENVALUE_FLOOR = 1e-12


def invariant_pieces(index) -> list[tuple[float, APolynomial]]:
    """The closed form of I_index term by term: every nonzero raising-operator
    image prod_p R_{p,k_p} d with its moment weight, so that
    I_index = sum of weight * |image|^2 (see `invariants`)."""
    bits = parse_index(index)
    theta = sum(bits)
    pieces = [(1.0, cumulant_poly(bits))]
    for site, b in enumerate(bits, 1):
        base = theta - 2 if b else theta
        pieces = [
            (weight / comb(base, k), poly.raised(site, k))
            for weight, poly in pieces
            for k in range(base + 1)
        ]
    return [(w, p) for w, p in pieces if p.terms]


def mixed_invariant(rho: np.ndarray, index) -> float:
    """The lifted invariant hatJ_index evaluated on a density matrix."""
    bits = parse_index(index)
    n = len(bits)
    rho = np.asarray(rho, dtype=complex)
    if sites_of(rho) != n:
        raise ValueError(f"density matrix has {sites_of(rho)} sites, index has {n}")
    theta = sum(bits)
    if theta == 1:
        return float(np.trace(rho).real)
    total = 0j
    for weight, poly in invariant_pieces(bits):
        coeffs, idx = poly.compiled()
        gathered = [
            [rho[np.ix_(idx[:, r], idx[:, s])] for s in range(theta)]
            for r in range(theta)
        ]
        acc = 0j
        for sigma in permutations(range(theta)):
            h = gathered[0][sigma[0]]
            for r in range(1, theta):
                h = h * gathered[r][sigma[r]]
            acc += coeffs @ h @ coeffs.conj()
        total += weight * acc / factorial(theta)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise ValueError(f"lifted invariant has imaginary residue {total.imag:.3e}")
    return float(total.real)


def padded_index(n: int, trace_out, kept_index) -> tuple[int, ...]:
    """The index on all n sites that carries `kept_index` on the sites not
    in `trace_out`, in order, and 0 on the traced sites."""
    traced = sorted(set(int(s) for s in trace_out))
    if traced and (traced[0] < 1 or traced[-1] > n):
        raise ValueError(f"traced sites {traced} outside 1..{n}")
    kept = [s for s in range(1, n + 1) if s not in traced]
    kept_bits = parse_index(kept_index)
    if len(kept_bits) != len(kept):
        raise ValueError(
            f"index {kept_index!r} has {len(kept_bits)} sites, expected {len(kept)}"
        )
    full = [0] * n
    for site, b in zip(kept, kept_bits):
        full[site - 1] = b
    return tuple(full)


def lifted_invariant_pair(psi: AlgebraElement, trace_out, kept_index) -> tuple[float, float]:
    """Both sides of the trace identity, which holds for one traced site.

    Returns (I at psi of the index zero-padded over `trace_out`,
    hatJ of the kept index at the reduced density matrix).
    """
    full = padded_index(psi.n, trace_out, kept_index)
    traced = set(int(s) for s in trace_out)
    kept = [s for s in range(1, psi.n + 1) if s not in traced]
    i_val = cumulant_invariant(psi, full)
    return i_val, mixed_invariant(reduced_state(psi, kept), kept_index)


def zhou_cumulant(rho: np.ndarray) -> np.ndarray:
    """Cumulant operator rho_c: partition-alternating sum of reduced-state
    tensor products, factors reassembled in site order."""
    rho = np.asarray(rho, dtype=complex)
    n = sites_of(rho)
    if n < 2:
        raise ValueError("cumulant operator needs at least two sites")
    total = np.zeros_like(rho)
    for blocks in set_partitions(n):
        weight = (-1) ** (len(blocks) - 1) * factorial(len(blocks) - 1)
        if len(blocks) == 1:
            total += weight * rho
            continue
        operands = []
        for block in blocks:
            k = len(block)
            sub = partial_trace(rho, block).reshape((2,) * (2 * k))
            labels = [s - 1 for s in block] + [n + s - 1 for s in block]
            operands += [sub, labels]
        term = np.einsum(*operands, list(range(2 * n)))
        total += weight * term.reshape(2**n, 2**n)
    return total


def zhou_m(psi: AlgebraElement, index) -> float:
    """Correlation measure M_index: half the trace norm of the cumulant
    operator of the reduced state on the index's support sites."""
    bits = parse_index(index)
    if psi.n != len(bits):
        raise ValueError(f"state has {psi.n} sites, index has {len(bits)}")
    kept = support(bits)
    if len(kept) < 2:
        raise ValueError("correlation measure needs at least two support sites")
    rc = zhou_cumulant(reduced_state(psi, kept))
    asym = np.abs(rc - rc.conj().T).max()
    if asym > 1e-10 * max(1.0, float(np.abs(rc).max())):
        raise ValueError(f"cumulant operator not Hermitian, residue {asym:.3e}")
    evals = np.linalg.eigvalsh((rc + rc.conj().T) / 2)
    evals[np.abs(evals) <= EIGENVALUE_FLOOR] = 0.0
    return float(0.5 * np.abs(evals).sum())
