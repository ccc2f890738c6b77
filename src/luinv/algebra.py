"""Nilpotent commutative algebra underlying multi-site pure states.

A pure state of n sites with local dimension d, with amplitude table
a_{i1...in}, is identified with the element

    psi = sum_i a_{i1...in} e_1^{i1} * ... * e_n^{in}

of the commutative algebra generated by e_1, ..., e_n subject to
e_i^d = 0.  Every element splits as psi = a + r where a = a_{0...0}
and r is nilpotent with r^(n(d-1)+1) = 0, so analytic functions of
psi (inverse, log, exp) reduce to finite Taylor sums.

Coefficients are stored densely, indexed by the mixed-radix integer
K = sum_k i_k * d^(n-k) (site 1 most significant).

Products run in a ranked Fourier domain.  Coefficient K is placed in
row digitsum(K) of an (n(d-1)+1, d^n) array, and one FFT runs along K
in every row.  Multiplying two words adds their flat indices (mod d^n)
and their ranks, so a product is a Cauchy product over the rank rows
at each frequency, truncated at rank n(d-1).  A pair of words whose
digits sum past d - 1 at some site (a carry, or a wraparound past the
top site) lands at an index whose digit sum is below the sum of the
ranks, by d - 1 per carry.  Reading entry [digitsum(K), K] after the
inverse FFT therefore keeps exactly the carry-free pairs, which are
the words that e_i^d = 0 leaves alive.  For d = 2 this is the ranked
transform of fast subset convolution (Bjorklund, Husfeldt, Kaski,
Koivisto, STOC 2007) with an FFT in place of the zeta transform.
Inverse, log and exp evaluate their Taylor series by Horner's rule in
the same domain, so each costs n(d-1) Cauchy products and two FFTs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Relative floor for the constant term below which inverse/log refuse to run.
SINGULAR_RTOL = 1e-12


class ShapeError(ValueError):
    """Operands belong to different algebras (mismatched n or d)."""


class SingularError(ValueError):
    """Constant term too close to zero for inverse or log."""


def flat_index(digits: Sequence[int], d: int) -> int:
    """Mixed-radix value of a digit tuple, site 1 most significant."""
    val = 0
    for dig in digits:
        if not 0 <= dig < d:
            raise ValueError(f"digit {dig} out of range for local dimension {d}")
        val = val * d + dig
    return val


def digits_of(flat: int, n: int, d: int) -> tuple[int, ...]:
    """Digit tuple (length n) of a flat coefficient index."""
    if not 0 <= flat < d**n:
        raise ValueError(f"index {flat} out of range for {n} sites of dimension {d}")
    return tuple((flat // d**k) % d for k in range(n - 1, -1, -1))


class AlgebraElement:
    """Immutable element of the rank-n nilpotent algebra.

    Args:
        n: number of sites (>= 1).
        d: local dimension (>= 2); generators satisfy e_i^d = 0.
        coeffs: flat complex coefficient table of length d**n.
    """

    __slots__ = ("n", "d", "coeffs")

    def __init__(self, n: int, d: int, coeffs: Iterable[complex]):
        if n < 1:
            raise ValueError("need at least one site")
        if d < 2:
            raise ValueError("local dimension must be at least 2")
        arr = np.array(coeffs, dtype=np.complex128).reshape(-1)
        if arr.shape != (d**n,):
            raise ShapeError(
                f"coefficient table has length {arr.size}, expected {d**n}"
            )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, n: int, d: int = 2) -> "AlgebraElement":
        return cls(n, d, np.zeros(d**n, dtype=complex))

    @classmethod
    def one(cls, n: int, d: int = 2) -> "AlgebraElement":
        """Multiplicative identity: coefficient 1 on the empty word."""
        c = np.zeros(d**n, dtype=complex)
        c[0] = 1.0
        return cls(n, d, c)

    @classmethod
    def from_terms(cls, n: int, d: int, terms: dict) -> "AlgebraElement":
        """Build from a {digit-tuple: coefficient} mapping."""
        c = np.zeros(d**n, dtype=complex)
        for digits, coeff in terms.items():
            if len(digits) != n:
                raise ShapeError(f"digit tuple {digits} has length != {n}")
            c[flat_index(digits, d)] += coeff
        return cls(n, d, c)

    # -- basic accessors -----------------------------------------------------

    @property
    def constant_term(self) -> complex:
        return complex(self.coeffs[0])

    def __getitem__(self, key) -> complex:
        if isinstance(key, (int, np.integer)):
            return complex(self.coeffs[key])
        return complex(self.coeffs[flat_index(key, self.d)])

    def tensor(self) -> np.ndarray:
        """Coefficients reshaped to an n-axis tensor, one axis per site."""
        return self.coeffs.reshape((self.d,) * self.n)

    def norm_sq(self) -> float:
        """Squared two-norm of the amplitude table, <psi|psi>."""
        return float(np.vdot(self.coeffs, self.coeffs).real)

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, d={self.d})"

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.n != other.n or self.d != other.d:
            raise ShapeError(
                f"algebra mismatch: (n={self.n}, d={self.d}) vs "
                f"(n={other.n}, d={other.d})"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        return AlgebraElement(self.n, self.d, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        return AlgebraElement(self.n, self.d, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgebraElement(self.n, self.d, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return product(self, other)
        return AlgebraElement(self.n, self.d, self.coeffs * complex(other))

    def __rmul__(self, other):
        return AlgebraElement(self.n, self.d, self.coeffs * complex(other))

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        self._check_compatible(other)
        scale = max(
            float(np.abs(self.coeffs).max()),
            float(np.abs(other.coeffs).max()),
            1.0,
        )
        return bool(np.abs(self.coeffs - other.coeffs).max() <= tol * scale)


@lru_cache(maxsize=64)
def _ranks(n: int, d: int) -> np.ndarray:
    """Digit sum of every flat index, read-only."""
    ranks = np.indices((d,) * n).sum(axis=0).reshape(-1)
    ranks.flags.writeable = False
    return ranks


def _to_ranked(coeffs: np.ndarray, n: int, d: int) -> np.ndarray:
    ranks = _ranks(n, d)
    a = np.zeros((nilpotent_order(n, d) + 1, ranks.size), dtype=np.complex128)
    a[ranks, np.arange(ranks.size)] = coeffs
    return np.fft.fft(a, axis=1)


def _from_ranked(a_hat: np.ndarray, n: int, d: int) -> np.ndarray:
    # Entries off the digit-sum diagonal hold carried words; drop them.
    ranks = _ranks(n, d)
    return np.fft.ifft(a_hat, axis=1)[ranks, np.arange(ranks.size)]


def _cauchy(a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    # Rank-truncated Cauchy product at every frequency.
    out = np.empty_like(a_hat)
    for s in range(a_hat.shape[0]):
        out[s] = np.einsum("rk,rk->k", a_hat[: s + 1], b_hat[s::-1])
    return out


def product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Algebra product of two elements (truncated convolution of tables)."""
    x._check_compatible(y)
    n, d = x.n, x.d
    prod_hat = _cauchy(_to_ranked(x.coeffs, n, d), _to_ranked(y.coeffs, n, d))
    return AlgebraElement(n, d, _from_ranked(prod_hat, n, d))


def tensor(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Tensor product on disjoint site sets: x's sites followed by y's.

    Coincides with the algebra product after embedding both factors in
    the larger algebra, which is what makes log additive over tensor
    factors.
    """
    if x.d != y.d:
        raise ShapeError("tensor factors must share the local dimension")
    return AlgebraElement(x.n + y.n, x.d, np.outer(x.coeffs, y.coeffs).reshape(-1))


def nilpotent_order(n: int, d: int) -> int:
    """Largest possibly-nonzero power of the nilpotent part: n*(d-1)."""
    return n * (d - 1)


def _taylor(x: AlgebraElement, series: Sequence[complex]) -> AlgebraElement:
    # sum_k series[k] * r^k where r = x - constant, r^(order+1) = 0, by
    # Horner's rule; a constant is a constant row 0 in the ranked domain.
    n, d = x.n, x.d
    r = x.coeffs.copy()
    r[0] = 0.0
    r_hat = _to_ranked(r, n, d)
    out = np.zeros_like(r_hat)
    out[0] = series[-1]
    for c in reversed(series[:-1]):
        out = _cauchy(out, r_hat)
        out[0] += c
    return AlgebraElement(n, d, _from_ranked(out, n, d))


def _checked_constant(x: AlgebraElement, rtol: float) -> complex:
    a = x.constant_term
    floor = rtol * max(float(np.abs(x.coeffs).max()), 1e-300)
    if abs(a) < floor:
        raise SingularError(
            f"constant term {a!r} below relative floor {floor:.3e}; "
            "inverse/log undefined this close to the singular locus"
        )
    return a


def inverse(x: AlgebraElement, rtol: float = SINGULAR_RTOL) -> AlgebraElement:
    """Multiplicative inverse, defined whenever the constant term is nonzero."""
    a = _checked_constant(x, rtol)
    order = nilpotent_order(x.n, x.d)
    series = [(-1) ** k / a ** (k + 1) for k in range(order + 1)]
    return _taylor(x, series)


def log(x: AlgebraElement, rtol: float = SINGULAR_RTOL) -> AlgebraElement:
    """Principal logarithm; the constant term gets the principal branch."""
    a = _checked_constant(x, rtol)
    order = nilpotent_order(x.n, x.d)
    series = [np.log(complex(a))]
    series += [(-1) ** (k - 1) / (k * a**k) for k in range(1, order + 1)]
    return _taylor(x, series)


def exp(x: AlgebraElement) -> AlgebraElement:
    """Exponential, entire so no restriction on the constant term."""
    a = x.constant_term
    order = nilpotent_order(x.n, x.d)
    ea = np.exp(complex(a))
    series = []
    kfact = 1.0
    for k in range(order + 1):
        if k > 0:
            kfact *= k
        series.append(ea / kfact)
    return _taylor(x, series)


def apply_local(x: AlgebraElement, mats: Sequence) -> AlgebraElement:
    """Act with one d-by-d matrix per site on the amplitude table.

    Site i's matrix g sends a_{..j..} to sum_k g[j, k] a_{..k..}.
    Entries of `mats` may be None to skip a site.
    """
    if len(mats) != x.n:
        raise ShapeError(f"expected {x.n} matrices, got {len(mats)}")
    t = x.tensor()
    for axis, g in enumerate(mats):
        if g is None:
            continue
        g = np.asarray(g, dtype=complex)
        if g.shape != (x.d, x.d):
            raise ShapeError(f"matrix for site {axis + 1} has shape {g.shape}")
        t = np.moveaxis(np.tensordot(g, t, axes=([1], [axis])), 0, axis)
    return AlgebraElement(x.n, x.d, t.reshape(-1))


def permute_sites(x: AlgebraElement, perm: Sequence[int]) -> AlgebraElement:
    """Relabel sites: site p of the result is old site perm[p-1] (1-based)."""
    if sorted(perm) != list(range(1, x.n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{x.n}")
    t = x.tensor().transpose([p - 1 for p in perm])
    return AlgebraElement(x.n, x.d, np.ascontiguousarray(t).reshape(-1))
