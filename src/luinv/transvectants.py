"""Covariants of qubit states as per-site binary forms.

A covariant is a complex array with one axis per site.  At a site of
degree k the axis has length k + 1, and entry j is the coefficient of
x0^(k-j) x1^j, so the fundamental form of a state is its amplitude
tensor.  New covariants come from Cayley's Omega process: relabel the
second factor to a variable set y, multiply, apply
Omega_i = dx0 dy1 - dx1 dy0 at selected sites, substitute y back to x.
Each site does this through one small integer map, and a transvectant
is one einsum over both operands and the maps.  The derivative inner
product turns any covariant into an invariant; the chains built here
reproduce the cumulant family up to fixed integer constants and supply
the hyperdeterminant and the G and H families.

Omega is applied verbatim, with no binomial prefactor, so every family
constant below is the literal one.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .algebra import AlgebraElement
from .cumulants import parse_index


def fundamental_form(state: AlgebraElement) -> np.ndarray:
    """Multilinear form with the state's amplitudes as coefficients."""
    if state.d != 2:
        raise ValueError("covariants are defined for qubit states only")
    return state.tensor()


def _site_map(k: int, l: int, omega: bool) -> np.ndarray:
    """W[a, b, c]: weight of x^a y^b in x^c after Omega (if set) and y -> x.

    Here x^a stands for x0^(k-a) x1^a.  Without Omega the map is the
    plain product; with it, dx0 dy1 - dx1 dy0 sends x^a y^b to
    ((k-a) b - a (l-b)) x^(a+b-1), and a degree-0 operand gives zero.
    """
    w = np.zeros((k + 1, l + 1, max(k + l + 1 - 2 * omega, 0)), dtype=int)
    for a in range(k + 1):
        for b in range(l + 1):
            if not omega:
                w[a, b, a + b] = 1
            elif 0 < a + b < k + l:
                w[a, b, a + b - 1] = (k - a) * b - a * (l - b)
    return w


def transvectant(p: np.ndarray, q: np.ndarray, mask) -> np.ndarray:
    """(p, q)^mask: Omega at every 1-site of mask, then y -> x."""
    bits = parse_index(mask)
    n = len(bits)
    if p.ndim != n or q.ndim != n:
        raise ValueError("mask and operands must share the site count")
    operands = [p, list(range(n)), q, list(range(n, 2 * n))]
    for i, bit in enumerate(bits):
        site = _site_map(p.shape[i] - 1, q.shape[i] - 1, bit)
        operands += [site, [i, n + i, 2 * n + i]]
    return np.einsum(*operands, list(range(2 * n, 3 * n)), optimize=True)


def covariant_norm(p: np.ndarray) -> float:
    """Derivative inner product of a covariant with itself.

    Distinct monomials are orthogonal; x0^(k-j) x1^j pairs with itself
    with weight j! (k-j)!, multiplied over the sites.
    """
    weight = np.ones(())
    for size in p.shape:
        site = [float(factorial(j) * factorial(size - 1 - j)) for j in range(size)]
        weight = np.multiply.outer(weight, site)
    return float(np.sum(weight * (p.real * p.real + p.imag * p.imag)))


def iota_chain(state: AlgebraElement, k: int) -> np.ndarray:
    """Nested transvectant whose norm is proportional to I_{1^k 0^(n-k)}.

    Starts from (f, f) at the first two sites and folds in one more
    fundamental form per additional 1-site:

        iota = (f, (f, ... (f, f)^{110...0} ...)^{0...010...0}
    """
    n = state.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    f = fundamental_form(state)
    mask = [1, 1] + [0] * (n - 2)
    cov = transvectant(f, f, mask)
    for site in range(3, k + 1):
        mask = [0] * n
        mask[site - 1] = 1
        cov = transvectant(f, cov, mask)
    return cov


_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])


def hyperdeterminant(state: AlgebraElement) -> complex:
    """Degree-4 hyperdeterminant of a 3-qubit state.

    Full epsilon contraction
    a_ijk a_i'j'm a_npk' a_n'p'm' e_ii' e_jj' e_kk' e_mm' e_nn' e_pp',
    computed as one literal einsum so it can serve as an independent check
    on the transvectant chain.
    """
    if state.n != 3 or state.d != 2:
        raise ValueError("hyperdeterminant is defined for three qubits")
    a = state.tensor()
    e = _EPS
    return complex(
        np.einsum("ijk,IJm,npK,NPM,iI,jJ,kK,mM,nN,pP->", a, a, a, a, e, e, e, e, e, e)
    )


def three_tangle(state: AlgebraElement) -> float:
    """tau = 2 |Det|."""
    return 2.0 * abs(hyperdeterminant(state))


def g_covariant(state: AlgebraElement, index) -> np.ndarray:
    """(f, f)^index for an index with an even number of 1s (>= 2)."""
    bits = parse_index(index)
    ones = sum(bits)
    if ones < 2 or ones % 2:
        raise ValueError("G family needs an even number of 1-positions, at least 2")
    if len(bits) != state.n:
        raise ValueError("index length must match the site count")
    f = fundamental_form(state)
    return transvectant(f, f, bits)


def h_covariant(state: AlgebraElement, index) -> np.ndarray:
    """Hyperdeterminant-family chain for an index with exactly three 2s.

    With 2-positions p < q < r the chain is
    (f, (f, (f, f)^{1@p,q})^{1@r})^{1@p,q,r}; the remaining positions
    stay 0 through every step, which is what lifting means here.
    """
    shown = index if isinstance(index, str) else "".join(str(dig) for dig in index)
    if set(shown) - {"0", "2"} or shown.count("2") != 3:
        raise ValueError(f"H family index {shown} needs exactly three 2s and otherwise 0s")
    if len(shown) != state.n:
        raise ValueError("index length must match the site count")
    p, q, r = [i + 1 for i, c in enumerate(shown) if c == "2"]
    n = state.n
    f = fundamental_form(state)

    def one_hot(*sites):
        mask = [0] * n
        for s in sites:
            mask[s - 1] = 1
        return mask

    cov = transvectant(f, f, one_hot(p, q))
    cov = transvectant(f, cov, one_hot(r))
    return transvectant(f, cov, one_hot(p, q, r))


def family_covariant(state: AlgebraElement, family: str, index) -> float:
    """Derivative-inner-product norm of a G- or H-family covariant."""
    if family == "G":
        return covariant_norm(g_covariant(state, index))
    if family == "H":
        return covariant_norm(h_covariant(state, index))
    raise ValueError(f"unknown covariant family {family!r}")
