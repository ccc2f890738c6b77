"""The literal mixed lift: every raising-operator image of d as a dict
polynomial, and the theta! permutation sum of each monomial's lift.

This is the lift's definition term by term, kept as the oracle for
`mixed.mixed_invariant`; it grows like theta! times the number of images,
so it is meant for theta <= 4 on a few sites.
"""

from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from luinv.cumulants import APolynomial, cumulant_poly, parse_index


def raised(poly: APolynomial, site: int, k: int) -> APolynomial:
    """Raising operator R_{site,k}: sum over k-subsets of factor slots
    holding digit 0 at the site, with those digits flipped to 1."""
    if not 1 <= site <= poly.n:
        raise ValueError(f"site {site} outside 1..{poly.n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    bit = 1 << (poly.n - site)
    new: dict[tuple[int, ...], complex] = {}
    for key, coeff in poly.terms.items():
        slots = [t for t, f in enumerate(key) if not f & bit]
        for combo in combinations(slots, k):
            flipped = list(key)
            for t in combo:
                flipped[t] |= bit
            fk = tuple(sorted(flipped))
            new[fk] = new.get(fk, 0) + coeff
    return APolynomial(poly.n, new)


def invariant_pieces(index) -> list[tuple[float, APolynomial]]:
    """The closed form of I_index term by term: every nonzero raising-operator
    image prod_p R_{p,k_p} d with its moment weight, so that
    I_index = sum of weight * |image|^2 (see `luinv.invariants`)."""
    bits = parse_index(index)
    theta = sum(bits)
    pieces = [(1.0, cumulant_poly(bits))]
    for site, b in enumerate(bits, 1):
        base = theta - 2 if b else theta
        pieces = [
            (weight / comb(base, k), raised(poly, site, k))
            for weight, poly in pieces
            for k in range(base + 1)
        ]
    return [(w, p) for w, p in pieces if p.terms]


def literal_lift(rho: np.ndarray, index) -> float:
    """hatJ_index at rho: each monomial Prod a_i Prod abar_j of each piece
    becomes (1/theta!) sum_sigma Prod_r rho[i^r, j^sigma(r)]."""
    bits = parse_index(index)
    rho = np.asarray(rho, dtype=complex)
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
    assert abs(total.imag) <= 1e-8 * max(1.0, abs(total.real)), total
    return float(total.real)
