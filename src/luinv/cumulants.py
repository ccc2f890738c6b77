"""Cumulant polynomials of qubit amplitude tables, indices and partitions.

The cumulants c of a state are the coefficients of its logarithm in the
nilpotent algebra.  Clearing denominators, d = a_{0..0}^theta * c is a
homogeneous polynomial in the raw amplitudes, with one term per set
partition of the index's support.  Its raising-operator images are the
raw material for the closed-form local-unitary invariants, but
`invariants` and `mixed` sample d on grids instead of expanding it, so
`cumulant_poly` is a symbolic view only.

`subset_splits` is the one schedule of the moment-cumulant recursion over
subsets, which replaces the partition sum wherever a cumulant is
computed: `invariants.evaluate_d` runs it on amplitudes and
`mixed.zhou_cumulant` on reduced density matrices.

Only local dimension 2 is supported here; amplitude words are bit words.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterable, Sequence

import numpy as np

from .algebra import SINGULAR_RTOL, AlgebraElement, log

# Bell numbers grow fast; partitions of more than 12 elements are refused.
MAX_PARTITION_SIZE = 12


def parse_index(index) -> tuple[int, ...]:
    """Normalize an invariant index ('110', (1,1,0), ...) to a bit tuple."""
    if isinstance(index, str):
        try:
            bits = tuple(int(ch) for ch in index)
        except ValueError:
            raise ValueError(f"bad index string {index!r}") from None
    else:
        bits = tuple(int(b) for b in index)
    if not bits:
        raise ValueError("empty index")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"index {index!r} has digits outside {{0,1}}")
    return bits


def index_str(bits) -> str:
    """String form of an index, site 1 first; parse_index reads it back."""
    return "".join(str(b) for b in bits)


def support(index) -> tuple[int, ...]:
    """1-based positions of the 1s in an index."""
    bits = parse_index(index)
    return tuple(i for i, b in enumerate(bits, 1) if b)


def set_partitions(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1, ..., m} in restricted-growth lex order.

    Each partition is a tuple of blocks; blocks are sorted tuples ordered
    by their smallest element (the order of first appearance).
    """
    if not 1 <= m <= MAX_PARTITION_SIZE:
        raise ValueError(f"partition ground set size {m} outside 1..{MAX_PARTITION_SIZE}")
    out = []
    rgs = [0] * m

    def rec(i: int, mx: int) -> None:
        if i == m:
            nblocks = mx + 1
            blocks = [[] for _ in range(nblocks)]
            for elem, lab in enumerate(rgs, 1):
                blocks[lab].append(elem)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for v in range(mx + 2):
            rgs[i] = v
            rec(i + 1, max(mx, v))

    rec(1, 0)
    return out


@lru_cache(maxsize=None)
def subset_splits(k: int) -> tuple[tuple[int, int, int], ...]:
    """The schedule of the moment-cumulant recursion over k elements.

    Every (S, B, S - B) with S an odd mask in increasing order and B an odd
    proper submask of S, in increasing order of B: the cumulant on S is the
    moment on S less the sum of cumulant_B times moment_{S-B}.
    """
    return tuple((s, b, s ^ b) for s in range(3, 1 << k, 2)
                 for b in range(1, s, 2) if b & s == b)


def partitions_of(elems: Sequence[int]):
    """Set partitions of an arbitrary ground set, via set_partitions."""
    elems = sorted(elems)
    for blocks in set_partitions(len(elems)):
        yield tuple(tuple(elems[e - 1] for e in b) for b in blocks)


def check_partition(blocks, m: int) -> tuple[tuple[int, ...], ...]:
    """Validate blocks as a partition of {1..m}; return canonical form."""
    seen: set[int] = set()
    for b in blocks:
        if len(b) == 0:
            raise ValueError("empty block")
        for x in b:
            if not 1 <= x <= m:
                raise ValueError(f"site {x} outside 1..{m}")
            if x in seen:
                raise ValueError(f"site {x} appears twice")
            seen.add(x)
    if len(seen) != m:
        raise ValueError(f"blocks cover {sorted(seen)}, not all of 1..{m}")
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


class APolynomial:
    """Homogeneous polynomial in qubit amplitudes a_w, w a length-n bit word.

    Monomials are multisets of flat amplitude indices stored as sorted
    tuples; the zero polynomial has no terms.  Nothing in the package
    evaluates through it: it is the symbolic view of d for reading, the
    tests and the demos, and the benchmark's tracer (perfbench/tracer.py)
    wraps `cumulant_poly`, `evaluate` and `evaluate_batch` by name.
    """

    __slots__ = ("n", "terms", "_compiled")

    def __init__(self, n: int, terms: dict):
        clean: dict[tuple[int, ...], complex] = {}
        deg = None
        for key, coeff in terms.items():
            coeff = complex(coeff)
            if coeff == 0:
                continue
            key = tuple(sorted(key))
            if any(not 0 <= f < 2**n for f in key):
                raise ValueError(f"factor index out of range in {key}")
            if deg is None:
                deg = len(key)
            elif len(key) != deg:
                raise ValueError("polynomial is not homogeneous")
            clean[key] = clean.get(key, 0) + coeff
        self.n = n
        self.terms = {k: c for k, c in clean.items() if c != 0}
        self._compiled = None

    @property
    def degree(self) -> int:
        return len(next(iter(self.terms))) if self.terms else 0

    def __repr__(self) -> str:
        return f"APolynomial(n={self.n}, terms={len(self.terms)}, degree={self.degree})"

    def compiled(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient vector and factor-index matrix for fast evaluation."""
        if self._compiled is None:
            keys = sorted(self.terms)
            coeffs = np.array([self.terms[k] for k in keys], dtype=complex)
            idx = np.array(keys, dtype=np.intp).reshape(len(keys), self.degree)
            self._compiled = (coeffs, idx)
        return self._compiled

    def evaluate(self, state) -> complex:
        """Value at a state (AlgebraElement with d=2, or a flat table)."""
        return complex(self.evaluate_batch(qubit_amps(state, self.n)[None])[0])

    def evaluate_batch(self, amps: np.ndarray) -> np.ndarray:
        """Values at a batch of amplitude tables, shape (samples, 2**n)."""
        if not self.terms:
            return np.zeros(amps.shape[0], dtype=complex)
        coeffs, idx = self.compiled()
        return np.prod(amps[:, idx], axis=2) @ coeffs


def qubit_amps(state, n: int | None = None) -> np.ndarray:
    """Flat amplitude table of an n-qubit state, an AlgebraElement with
    d = 2 or anything numpy reads as 2**n complex numbers.  With n None,
    any number of sites >= 1 is accepted and the table's length gives it."""
    if isinstance(state, AlgebraElement):
        if state.d != 2:
            raise ValueError("amplitude tables are defined for qubits only")
        if n is not None and state.n != n:
            raise ValueError(f"state has {state.n} sites, expected {n}")
        return state.coeffs
    amps = np.asarray(state, dtype=complex).reshape(-1)
    if n is None:
        if amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError(
                f"amplitude table has length {amps.size}, not a power of 2 of at least 2"
            )
    elif amps.size != 2**n:
        raise ValueError(f"amplitude table has length {amps.size}, expected {2**n}")
    return amps


def cumulant_poly(index) -> APolynomial:
    """Cleared-denominator cumulant d = a_{0..0}^theta c as an APolynomial.

    One term per set partition of the support: sign (-1)^(blocks-1),
    weight (blocks-1)!, a_{0..0} factors padding the degree to theta.
    A symbolic view for reading and checking: the package itself evaluates
    d with `invariants.evaluate_d`, which never builds this sum.
    """
    bits = parse_index(index)
    n = len(bits)
    supp = support(bits)
    theta = len(supp)
    if theta == 0:
        raise ValueError("index needs at least one 1")
    terms: dict[tuple[int, ...], complex] = {}
    for blocks in partitions_of(supp):
        coeff = (-1) ** (len(blocks) - 1) * factorial(len(blocks) - 1)
        factors = [0] * (theta - len(blocks))
        for b in blocks:
            factors.append(sum(1 << (n - i) for i in b))
        key = tuple(sorted(factors))
        terms[key] = terms.get(key, 0) + coeff
    return APolynomial(n, terms)


def cumulant_table(psi: AlgebraElement, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    """All cumulants of a state: the coefficient table of log(psi)."""
    return log(psi, rtol=rtol).coeffs.copy()


def _splits(bits, blocks) -> bool:
    """Whether the support of a bit word meets at least two valid blocks."""
    return sum(1 for b in blocks if any(bits[s - 1] for s in b)) >= 2


def splits_partition(index, blocks) -> bool:
    """Whether the index's support meets at least two blocks of the partition."""
    bits = parse_index(index)
    return _splits(bits, check_partition(blocks, len(bits)))


def splitting_indices(blocks, n: int) -> list[tuple[int, ...]]:
    """All indices over n sites whose support meets >= 2 blocks.  Each call
    returns a new list of the index tuples cached for the partition."""
    return list(_splitting_indices(check_partition(blocks, n), n))


@lru_cache(maxsize=256)
def _splitting_indices(blocks, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(bits for bits in product((0, 1), repeat=n) if _splits(bits, blocks))


def dimension_counts(n: int, d: int, blocks) -> tuple[int, int]:
    """Orbit dimension d_pi and invariant count N_pi for a partition.

    d_pi = sum over blocks of (2 d^|B| - 2); N_pi = (d^n - 1) minus
    sum over blocks of (d^|B| - 1).  Integer arithmetic throughout.
    """
    blocks = check_partition(blocks, n)
    d_pi = sum(2 * d ** len(b) - 2 for b in blocks)
    n_pi = (d**n - 1) - sum(d ** len(b) - 1 for b in blocks)
    return d_pi, n_pi
