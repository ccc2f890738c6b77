"""Covariants of qubit states as per-site binary forms.

The fundamental form of a state carries its amplitudes as coefficients
of per-site variables x0, x1.  New covariants are produced by Cayley's
Omega process: relabel one factor to a second variable set y, multiply,
apply Omega_i = dx0 dy1 - dx1 dy0 at selected sites, substitute y back
to x.  The derivative inner product turns any covariant into an
invariant; the chains built here reproduce the cumulant family up to
fixed integer constants and supply the hyperdeterminant and the G and
H families.

Omega is applied verbatim, with no binomial prefactor, so every family
constant below is the literal one.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .algebra import AlgebraElement
from .cumulants import parse_index

# Per-site exponent tuple layout: (x0, x1, y0, y1).
_ZERO = (0, 0, 0, 0)


def _check_homogeneous(n: int, terms: dict) -> None:
    # every monomial must have one total degree per site
    degrees = None
    for key in terms:
        this = tuple(sum(site) for site in key)
        if degrees is None:
            degrees = this
        elif this != degrees:
            raise ValueError(
                f"inhomogeneous covariant: site degrees {this} vs {degrees}"
            )


class XPolynomial:
    """Polynomial in per-site binary variables with complex coefficients.

    Terms map a key (one 4-tuple of exponents per site) to a complex
    coefficient.  Amplitude parts are already evaluated, so arithmetic
    is purely numeric.  Instances are immutable by convention; all
    operations return new polynomials.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        clean = {}
        for key, coeff in terms.items():
            if len(key) != n:
                raise ValueError(f"term key {key} has {len(key)} sites, expected {n}")
            if any(e < 0 for site in key for e in site):
                raise ValueError("negative exponent")
            if coeff != 0:
                clean[key] = complex(coeff)
        _check_homogeneous(n, clean)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("XPolynomial is immutable")

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"XPolynomial(n={self.n}, {len(self.terms)} terms)"

    def site_degrees(self) -> tuple[int, ...]:
        """Total degree at each site (0 everywhere for a constant)."""
        for key in self.terms:
            return tuple(sum(site) for site in key)
        return (0,) * self.n

    def is_y_free(self) -> bool:
        return all(
            site[2] == 0 and site[3] == 0 for key in self.terms for site in key
        )

    def constant_value(self) -> complex:
        """Value of a degree-0 covariant."""
        if not self.terms:
            return 0.0 + 0.0j
        if any(any(site != _ZERO for site in key) for key in self.terms):
            raise ValueError("covariant is not constant")
        return self.terms[(_ZERO,) * self.n]

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "XPolynomial") -> "XPolynomial":
        if self.n != other.n:
            raise ValueError("site counts differ")
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(
                    (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
                    for a, b in zip(k1, k2)
                )
                out[key] = out.get(key, 0.0) + c1 * c2
        return XPolynomial(self.n, out)

    def relabel_to_y(self) -> "XPolynomial":
        """Move every x exponent to the matching y slot."""
        if not self.is_y_free():
            raise ValueError("polynomial already uses the y variables")
        out = {
            tuple((0, 0, site[0], site[1]) for site in key): c
            for key, c in self.terms.items()
        }
        return XPolynomial(self.n, out)

    def substitute_y(self) -> "XPolynomial":
        """Set y -> x, merging exponents."""
        out: dict = {}
        for key, c in self.terms.items():
            new = tuple(
                (site[0] + site[2], site[1] + site[3], 0, 0) for site in key
            )
            out[new] = out.get(new, 0.0) + c
        return XPolynomial(self.n, out)

    def omega(self, site: int) -> "XPolynomial":
        """Apply dx0 dy1 - dx1 dy0 at the given site (1-based)."""
        if not 1 <= site <= self.n:
            raise ValueError(f"site {site} out of range")
        i = site - 1
        out: dict = {}
        for key, c in self.terms.items():
            x0, x1, y0, y1 = key[i]
            if x0 >= 1 and y1 >= 1:
                new = key[:i] + ((x0 - 1, x1, y0, y1 - 1),) + key[i + 1 :]
                out[new] = out.get(new, 0.0) + c * x0 * y1
            if x1 >= 1 and y0 >= 1:
                new = key[:i] + ((x0, x1 - 1, y0 - 1, y1),) + key[i + 1 :]
                out[new] = out.get(new, 0.0) - c * x1 * y0
        return XPolynomial(self.n, out)


def fundamental_form(state: AlgebraElement) -> XPolynomial:
    """Multilinear form with the state's amplitudes as coefficients."""
    if state.d != 2:
        raise ValueError("covariants are defined for qubit states only")
    n = state.n
    terms = {}
    for flat, coeff in enumerate(state.coeffs):
        if coeff == 0:
            continue
        digits = [(flat >> (n - 1 - k)) & 1 for k in range(n)]
        key = tuple((1, 0, 0, 0) if dig == 0 else (0, 1, 0, 0) for dig in digits)
        terms[key] = complex(coeff)
    return XPolynomial(n, terms)


def transvectant(p: XPolynomial, q: XPolynomial, mask) -> XPolynomial:
    """(p, q)^mask: Omega at every 1-site of mask, then y -> x."""
    bits = parse_index(mask)
    if len(bits) != p.n or p.n != q.n:
        raise ValueError("mask and operands must share the site count")
    work = p * q.relabel_to_y()
    for site, bit in enumerate(bits, start=1):
        if bit:
            work = work.omega(site)
    return work.substitute_y()


def covariant_norm(p: XPolynomial) -> float:
    """Derivative inner product of a covariant with itself.

    Distinct monomials are orthogonal; a monomial pairs with itself
    with weight prod_i x0_i! x1_i!.
    """
    if not p.is_y_free():
        raise ValueError("norm is defined after the y substitution")
    total = 0.0
    for key, c in p.terms.items():
        weight = 1.0
        for x0, x1, _, _ in key:
            weight *= float(factorial(x0) * factorial(x1))
        total += weight * (c.real * c.real + c.imag * c.imag)
    return total


def iota_chain(state: AlgebraElement, k: int) -> XPolynomial:
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


def g_covariant(state: AlgebraElement, index) -> XPolynomial:
    """(f, f)^index for an index with an even number of 1s (>= 2)."""
    bits = parse_index(index)
    ones = sum(bits)
    if ones < 2 or ones % 2:
        raise ValueError("G family needs an even number of 1-positions, at least 2")
    if len(bits) != state.n:
        raise ValueError("index length must match the site count")
    f = fundamental_form(state)
    return transvectant(f, f, bits)


def h_covariant(state: AlgebraElement, index) -> XPolynomial:
    """Hyperdeterminant-family chain for an index with exactly three 2s.

    With 2-positions p < q < r the chain is
    (f, (f, (f, f)^{1@p,q})^{1@r})^{1@p,q,r}; the remaining positions
    stay 0 through every step, which is what lifting means here.
    """
    digits = tuple(int(c) for c in index) if isinstance(index, str) else tuple(index)
    if len(digits) != state.n:
        raise ValueError("index length must match the site count")
    if sorted(digits, reverse=True)[:3] != [2, 2, 2] or any(
        dig not in (0, 2) for dig in digits
    ):
        raise ValueError("H family index needs exactly three 2s and otherwise 0s")
    p, q, r = [i + 1 for i, dig in enumerate(digits) if dig == 2]
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
