"""Closed-form local-unitary invariants built from cumulant polynomials.

Averaging |d_index|^2 over independent local SU(2) rotations collapses,
via the moment integrals of single-qubit Haar matrices, to a finite
weighted sum over raising-operator images of d:

    I_index = sum over k-vectors of
        prod_p alpha_{k_p} * | prod_p R_{p,k_p} d |^2 (state)

where at a 0-site alpha_k = 1/C(theta, k) with k = 0..theta, and at a
1-site alpha_k = 1/C(theta-2, k) with k = 0..theta-2.  The norm index
(theta = 1) is handled separately: I = <psi|psi>.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement
from .cumulants import cumulant_poly, parse_index, qubit_amps
from .density import density_matrix, partial_trace

# Singular values below this fraction of the largest count as zero rank.
JACOBIAN_SV_RTOL = 1e-7


def gamma_factor(n: int, theta: int) -> float:
    """Normalization making the twirl of |d|^2 equal the invariant."""
    if theta == 1:
        return float(2**n)
    return float((theta + 1) ** (n - theta) * (theta - 1) ** theta)


@lru_cache(maxsize=None)
def _compiled_invariant(bits: tuple[int, ...]):
    """Raising-operator images of d with their moment weights, compiled."""
    theta = sum(bits)
    pieces = [(1.0, cumulant_poly(bits))]
    for site, b in enumerate(bits, 1):
        kmax = theta - 2 if b else theta
        base = theta - 2 if b else theta
        grown = []
        for weight, poly in pieces:
            for k in range(kmax + 1):
                grown.append((weight / comb(base, k), poly.raised(site, k)))
        pieces = grown
    return tuple((w, p) for w, p in pieces if p.terms)


def cumulant_invariant(state, index) -> float:
    """Value of the invariant I_index at a pure state; always >= 0."""
    bits = parse_index(index)
    amps = qubit_amps(state, len(bits))
    if sum(bits) == 1:
        return float(np.vdot(amps, amps).real)
    total = 0.0
    for weight, poly in _compiled_invariant(bits):
        total += weight * abs(poly.evaluate(amps)) ** 2
    return max(total, 0.0)


def invariant_family(n: int) -> list[tuple[int, ...]]:
    """The generating family: one norm index, then every theta >= 2 index.

    Indices of equal weight are ordered colexicographically by support,
    e.g. 1100, 1010, 0110, 1001, 0101, 0011 for theta = 2, n = 4.
    The family has 2^n - n members.
    """
    if n < 1:
        raise ValueError("need at least one site")
    out = [(1,) + (0,) * (n - 1)]
    for theta in range(2, n + 1):
        for supp in sorted(combinations(range(1, n + 1), theta), key=lambda c: c[::-1]):
            out.append(tuple(1 if i in supp else 0 for i in range(1, n + 1)))
    return out


def total_invariant_count(n: int) -> int:
    """Dimension of the local-unitary orbit space for n >= 3 qubits.

    Real state parameters 2^(n+1), minus the generic orbit dimension
    3n + 1 (local SU(2)s and the global phase act freely for n >= 3).
    """
    return 2 ** (n + 1) - (3 * n + 1)


def sudbery_j(state, which: int | None = None):
    """Sudbery's degree-(2,4,6) invariants J1..J5 of a 3-qubit state.

    J1 is the norm, J2/J3/J4 the purities of the third/second/first
    site's reduced density matrix, and J5 the cubic two-site invariant
    3 tr[(rho_1 x rho_2) rho_12] - tr rho_1^3 - tr rho_2^3.

    Returns the tuple (J1..J5), or a single value when `which` is 1..5.
    """
    amps = qubit_amps(state, 3)
    rho = density_matrix(amps)
    rho1 = partial_trace(rho, [1])
    rho2 = partial_trace(rho, [2])
    rho3 = partial_trace(rho, [3])
    rho12 = partial_trace(rho, [1, 2])
    j1 = float(np.trace(rho).real)
    j2 = float(np.trace(rho3 @ rho3).real)
    j3 = float(np.trace(rho2 @ rho2).real)
    j4 = float(np.trace(rho1 @ rho1).real)
    j5 = float(
        (3 * np.trace(np.kron(rho1, rho2) @ rho12)
         - np.trace(rho1 @ rho1 @ rho1)
         - np.trace(rho2 @ rho2 @ rho2)).real
    )
    js = (j1, j2, j3, j4, j5)
    if which is None:
        return js
    if not 1 <= which <= 5:
        raise ValueError(f"which must be 1..5, got {which}")
    return js[which - 1]


def check_relations(state) -> list[tuple[str, float, float]]:
    """Evaluate both sides of the five relations tying I to J for 3 qubits."""
    j1, j2, j3, j4, j5 = sudbery_j(state)
    i100 = cumulant_invariant(state, "100")
    i110 = cumulant_invariant(state, "110")
    i101 = cumulant_invariant(state, "101")
    i011 = cumulant_invariant(state, "011")
    i111 = cumulant_invariant(state, "111")
    return [
        ("I100 = J1", i100, j1),
        ("4 I110 = J1^2 + J2 - J3 - J4", 4 * i110, j1**2 + j2 - j3 - j4),
        ("4 I101 = J1^2 + J3 - J2 - J4", 4 * i101, j1**2 + j3 - j2 - j4),
        ("4 I011 = J1^2 + J4 - J2 - J3", 4 * i011, j1**2 + j4 - j2 - j3),
        (
            "6 I111 = 5 J1^3 - 3 J1 (J2 + J3 + J4) + 4 J5",
            6 * i111,
            5 * j1**3 - 3 * j1 * (j2 + j3 + j4) + 4 * j5,
        ),
    ]


def invariant_jacobian(
    state, indices: Sequence | None = None, step: float = 1e-5
) -> np.ndarray:
    """Numerical Jacobian of the invariant family in the real amplitude
    coordinates (re, im of every amplitude), by central differences."""
    if step <= 0:
        raise ValueError("step must be positive")
    if isinstance(state, AlgebraElement):
        amps = state.coeffs.copy()
        n = state.n
    else:
        amps = np.asarray(state, dtype=complex).reshape(-1).copy()
        n = int(round(np.log2(amps.size)))
    if indices is None:
        indices = invariant_family(n)
    indices = [parse_index(ix) for ix in indices]
    rows = []
    for bits in indices:
        grad = np.empty(2 * amps.size)
        for j in range(amps.size):
            for part, delta in ((0, step), (1, 1j * step)):
                shifted = amps.copy()
                shifted[j] += delta
                up = cumulant_invariant(shifted, bits)
                shifted[j] -= 2 * delta
                down = cumulant_invariant(shifted, bits)
                grad[2 * j + part] = (up - down) / (2 * step)
        rows.append(grad)
    return np.array(rows)


def jacobian_rank(
    state,
    indices: Sequence | None = None,
    step: float = 1e-5,
    sv_rtol: float = JACOBIAN_SV_RTOL,
) -> int:
    """Rank of the invariant family's Jacobian at a state."""
    jac = invariant_jacobian(state, indices, step)
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > sv_rtol * svals[0]))
