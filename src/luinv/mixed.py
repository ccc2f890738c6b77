"""Mixed-state lifts of the pure-state invariants, and the Zhou cumulant.

A degree-(theta, theta) invariant J(psi) = sum c Prod a_i Prod abar_j
lifts to density matrices by symmetrizing each monomial:

    Prod_r a_{i^r} Prod_s abar_{j^s}
        -> (1/theta!) sum_sigma Prod_r rho[i^r, j^sigma(r)]

The sum over sigma is Wick's theorem for a complex Gaussian phi ~ CN(0, rho),
so hatJ(rho) = E I(phi) / theta!.  Write rho = sum_m lambda_m v_m v_m^dagger
over its r nonzero eigenvalues and phi = sum_m sqrt(lambda_m) z_m v_m with
independent standard complex z_m.  Each coefficient c_k of I (see
`invariants`) is homogeneous of degree theta, c_k(sum_m s_m v_m) =
sum_{|a| = theta} s^a c_{k,a}, and E|z^a|^2 = a!, so

    hatJ = sum_{|a| = theta} (a!/theta!) lambda^a sum_k alpha_k |c_{k,a}|^2.

Both sides are polynomials in lambda, so this holds with signed lambda for
any Hermitian rho; at r = 1 it is I(psi).  Each c_{k,a} is the exact
theta-th finite difference on the lattice of integer points b >= 0:

    c_{k,a} = (1/a!) sum_{0 <= b <= a} (-1)^(theta - |b|) Prod_m C(a_m, b_m)
              c_k(sum_m b_m v_m),

exact because every monomial s^e of degree theta other than s^a has some
e_m < a_m and is annihilated.  The lift is therefore one batch of the
C(r + theta, theta) - 1 nonzero lattice states through the grid evaluator
and one difference matrix that depends only on (r, theta).  The lattice
coefficients take 16 bytes per lattice state and grid point; a lift that
needs more than invariants.MAX_TABLE_BYTES is refused before it starts.

On |psi><psi| the lift reproduces J, and tracing one site out of a pure
state matches a 0 at that site of the invariant's index.  For k traced
sites the lift at the reduced state is the twirl in which the kept sites
get independent SU(2)s and the traced register one Haar unitary of
U(2^k) (haar.register_twirl_estimate); for k >= 2 that is not the
zero-padded invariant, which twirls each traced site on its own.

The Zhou cumulant operator is the density-matrix analogue of the log:
rho_c = sum over set partitions of (-1)^(blocks-1) (blocks-1)! times
the tensor product of the reduced states on the blocks, reassembled in
site order.  Half the trace norm of rho_c is the correlation measure M.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod

import numpy as np

from .algebra import AlgebraElement
from .cumulants import index_str, parse_index, set_partitions, support
from .density import partial_trace, reduced_state, sites_of, split_sites
from .invariants import MAX_TABLE_BYTES, cumulant_invariant, grid_coefficients, grid_weights

# Eigenvalues at or below this size count as zero: in the Zhou measure as
# they stand, in the lift relative to the largest.
EIGENVALUE_FLOOR = 1e-12


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """The Hermitian part of m, refusing an m that is not Hermitian."""
    asym = np.abs(m - m.conj().T).max()
    if asym > 1e-10 * max(1.0, float(np.abs(m).max())):
        raise ValueError(f"{what} not Hermitian, residue {asym:.3e}")
    return (m + m.conj().T) / 2


def _exponents(r: int, size: int) -> list[tuple[int, ...]]:
    """Every exponent vector a of r entries with |a| = size."""
    return [tuple(combo.count(m) for m in range(r))
            for combo in combinations_with_replacement(range(r), size)]


@lru_cache(maxsize=64)
def _lift_plan(r: int, theta: int):
    """The finite-difference plan for rank r and degree theta.

    Returns the nonzero lattice points b (|b| <= theta) as rows and, for
    each exponent a with |a| = theta, a itself, the lattice rows of the
    points b <= a, their signs (-1)^(theta-|b|) Prod_m C(a_m, b_m), and
    1/(theta! a!).  Lattice row len(lattice) stands for b = 0, where c_k
    vanishes; it also pads the rows of the a with fewer points.
    """
    lattice = [b for size in range(1, theta + 1) for b in _exponents(r, size)]
    where = {b: i for i, b in enumerate(lattice)}
    where[(0,) * r] = len(lattice)
    tops = _exponents(r, theta)
    width = max(prod(x + 1 for x in a) for a in tops)
    rows = np.full((len(tops), width), len(lattice))
    signs = np.zeros((len(tops), width))
    for i, a in enumerate(tops):
        for j, b in enumerate(product(*(range(x + 1) for x in a))):
            rows[i, j] = where[b]
            signs[i, j] = (-1) ** (theta - sum(b)) * prod(map(comb, a, b))
    scale = [1 / (factorial(theta) * prod(map(factorial, a))) for a in tops]
    return np.array(lattice, dtype=float), rows, signs, np.array(tops), np.array(scale)


def mixed_invariant(rho: np.ndarray, index) -> float:
    """The lifted invariant hatJ_index evaluated on a Hermitian matrix."""
    bits = parse_index(index)
    n = len(bits)
    rho = np.asarray(rho, dtype=complex)
    if sites_of(rho) != n:
        raise ValueError(f"density matrix has {sites_of(rho)} sites, index has {n}")
    rho = _hermitian(rho, "density matrix")
    theta = sum(bits)
    if theta == 1:
        return float(np.trace(rho).real)
    lam, vecs = np.linalg.eigh(rho)
    keep = np.abs(lam) > EIGENVALUE_FLOOR * np.abs(lam).max()
    if not keep.any():
        return 0.0
    lam, vecs = lam[keep], vecs[:, keep]
    weights = grid_weights(bits)
    size = 16 * comb(len(lam) + theta, theta) * weights.size
    if size > MAX_TABLE_BYTES:
        raise ValueError(
            f"lift of {index_str(bits)} at rank {len(lam)} needs {size} bytes of grid "
            f"coefficients, over the cap of {MAX_TABLE_BYTES} (invariants.MAX_TABLE_BYTES)"
        )
    lattice, rows, signs, tops, scale = _lift_plan(len(lam), theta)
    c = np.zeros((len(lattice) + 1, weights.size), dtype=complex)
    for s0, block in grid_coefficients(lattice @ vecs.T, bits):
        c[s0 : s0 + len(block)] = block
    diff = sum(signs[:, j, None] * c[rows[:, j]] for j in range(rows.shape[1]))
    per_a = ((diff.real**2 + diff.imag**2) * weights).sum(axis=1)
    return float((scale * np.prod(lam**tops, axis=1)) @ per_a)


def padded_index(n: int, trace_out, kept_index) -> tuple[int, ...]:
    """The index on all n sites that carries `kept_index` on the sites not
    in `trace_out`, in order, and 0 on the traced sites."""
    kept, _ = split_sites(trace_out, n)
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
    kept, _ = split_sites(trace_out, psi.n)
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
    evals = np.linalg.eigvalsh(_hermitian(rc, "cumulant operator"))
    evals[np.abs(evals) <= EIGENVALUE_FLOOR] = 0.0
    return float(0.5 * np.abs(evals).sum())
