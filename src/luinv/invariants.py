"""Closed-form local-unitary invariants by roots-of-unity interpolation.

Averaging |d_index|^2 over independent local SU(2) rotations collapses,
via the moment integrals of single-qubit Haar matrices, to a finite
weighted sum over raising-operator images of the cleared cumulant d:

    I_index = sum over k-vectors of prod_p alpha_{p,k_p} |c_k|^2,
    c_k = (prod_p R_{p,k_p} d)(psi),

where alpha_{p,k} = 1/C(theta, k) at a 0-site and 1/C(theta-2, k) at a
1-site.  The images are the Taylor coefficients of

    F(t) = d(prod_p (1 + t_p E_p) psi),

where E_p adds the site-p digit-1 amplitude to the digit-0 one.  F has
degree at most theta in t_p at a 0-site and at most theta-2 at a 1-site,
where R_{p,theta-1} d has no terms.  So F is sampled on a grid of roots
of unity with one axis per site, of length theta+1 at a 0-site and
theta-1 at a 1-site; the n-D FFT of the samples divided by the grid size
is every c_k, without aliasing.  The raised amplitudes of one state fill
a table of 2^theta rows by the grid points; an index whose table exceeds
MAX_TABLE_BYTES is refused before it is built.  That one cap, checked by
`check_bytes`, also bounds the mixed lift, the Zhou operator and the twirl's
chunks in flight.  The norm index
(theta = 1) is handled separately: I = <psi|psi>.

d is evaluated on the 2^theta support rows of the table by the
moment-cumulant recursion over subsets, cleared of a_{0..0}, never as
a_{0..0}^theta times the log, because a_{0..0} can vanish on grid points
(for W, 1 + w + w^2 = 0).  The kernel, `evaluate_d`, depends only on
theta; it also serves the Monte-Carlo twirl in `haar`.

One evaluator serves every caller: it takes a batch of amplitude tables,
so the Jacobian makes one call per index for all its shifted states, and
the mixed lift in `mixed` reads the c_k themselves, before squaring,
through `grid_coefficients`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, prod
from typing import Sequence

import numpy as np

from .cumulants import index_str, parse_index, qubit_amps, subset_splits
from .density import density_matrix, partial_trace

# Singular values below this fraction of the largest count as zero rank.
JACOBIAN_SV_RTOL = 1e-7

# Grid points per block: a block holds as many states as fit, and the
# product over d's factors runs over at most this many grid points at a
# time, so the work arrays stay small for any grid or batch size.
CHUNK = 1024

# Largest raised grid table, 16 * 2^theta bytes per grid point of one state,
# that the evaluator builds; a larger index is refused before allocating.
MAX_TABLE_BYTES = 2**30


def gamma_factor(n: int, theta: int) -> float:
    """Normalization making the twirl of |d|^2 equal the invariant."""
    if theta == 1:
        return float(2**n)
    return float((theta + 1) ** (n - theta) * (theta - 1) ** theta)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def evaluate_d(table: np.ndarray, width: int = CHUNK) -> np.ndarray:
    """d at every column of a (2**theta, m) support table.

    Row r holds the amplitude of the support subset r, the first support
    site as bit 0, with digit 0 off the support.  d is d_S at the full mask
    S, by the moment-cumulant recursion over the proper subsets B of S that
    hold the first site, cleared of a0 so that it needs no division:

        d_S = a0^(|S|-1) a_S - sum_B d_B a_{S-B} a0^(|S|-|B|-1).

    With e_c = a0^(|c|-1) a_c this is d_S = e_S - sum_B d_B e_{S-B}.  S-B
    never holds the first site, so e is updated in place: the odd masks run
    in increasing order (cumulants.subset_splits), and e_B has become d_B
    by the time S reads it.
    The columns are taken at most `width` at a time, CHUNK by default; no
    column's value depends on it.
    """
    theta = len(table).bit_length() - 1
    out = np.empty(table.shape[1], dtype=complex)
    for c0 in range(0, table.shape[1], width):
        a = table[:, c0 : c0 + width]
        power = list(accumulate([a[0]] * (theta - 1), np.multiply, initial=1))  # a0^k
        e = [a[c] * power[c.bit_count() - 1] for c in range(len(a))]
        for s, b, c in subset_splits(theta):
            e[s] -= e[b] * e[c]
        out[c0 : c0 + width] = e[-1]
    return out


@lru_cache(maxsize=256)
def _grid_plan(bits: tuple[int, ...]):
    """Axis lengths, roots of unity and moment weights for one index."""
    theta = sum(bits)
    lengths = tuple(theta - 1 if b else theta + 1 for b in bits)
    roots = tuple(_frozen(np.exp(2j * np.pi * np.arange(m) / m)) for m in lengths)
    weights = np.ones(())
    for b, m in zip(bits, lengths):
        base = theta - 2 if b else theta
        weights = np.multiply.outer(weights, [1.0 / comb(base, k) for k in range(m)])
    return lengths, roots, _frozen(weights.reshape(-1))


def check_bytes(size: int, need: str) -> None:
    """Refuse a table of `size` bytes over MAX_TABLE_BYTES, read when called;
    `need` says what needs it.  Every table the package caps comes here."""
    if size > MAX_TABLE_BYTES:
        raise ValueError(
            f"{need}, over the cap of {MAX_TABLE_BYTES} (invariants.MAX_TABLE_BYTES)"
        )


def check_grid_table(bits: tuple[int, ...]) -> None:
    """Refuse an index whose raised grid table exceeds MAX_TABLE_BYTES.

    The norm index has a 1-site axis of length theta - 1 = 0 and no table.
    """
    theta = sum(bits)
    size = 16 * 2**theta * prod(theta - 1 if b else theta + 1 for b in bits)
    check_bytes(size, f"index {index_str(bits)} needs a grid table of {size} bytes")


def grid_coefficients(amps: np.ndarray, bits: tuple[int, ...]):
    """Every c_k of a (B, 2**n) batch, theta >= 2, before squaring.

    Yields (start, c) per block of states, c of shape (block, grid points)
    with row j for state start + j, so that I = sum_k alpha_k |c_k|^2 with
    alpha = grid_weights(bits).  Only one block is held at a time.
    """
    check_grid_table(bits)
    lengths, roots, _ = _grid_plan(bits)
    n, theta, points = len(bits), sum(bits), prod(lengths)
    per = max(1, CHUNK // points)
    for s0 in range(0, amps.shape[0], per):
        block = amps[s0 : s0 + per]
        # Axes of t: the digits kept at the 1-sites done (latest first), the
        # sites to do, the state, the grid axes of the sites done.
        t = block.T.reshape((2,) * n + (block.shape[0],))
        digits = 0
        for b, root in zip(bits, roots):
            at = (slice(None),) * digits
            hi = t[at + (1, ..., None)]
            raised = t[at + (0, ..., None)] + hi * root
            if b:
                raised = np.stack((raised, np.broadcast_to(hi, raised.shape)))
                digits += 1
            t = raised
        samples = evaluate_d(t.reshape(2**theta, -1))
        c = np.fft.fftn(samples.reshape((-1,) + lengths), axes=range(1, n + 1)) / points
        yield s0, c.reshape(c.shape[0], -1)


def grid_weights(bits: tuple[int, ...]) -> np.ndarray:
    """The moment weights alpha_k, flat in the order of grid_coefficients."""
    return _grid_plan(bits)[2]


def cumulant_invariant_batch(amps, index) -> np.ndarray:
    """Values of I_index at a batch of amplitude tables, shape (B, 2**n);
    for theta >= 2 by sampling F on the grid."""
    bits = parse_index(index)
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] != 2 ** len(bits):
        raise ValueError(
            f"amplitude batch has shape {amps.shape}, expected (B, {2 ** len(bits)})"
        )
    if sum(bits) == 1:
        return np.array([np.vdot(a, a).real for a in amps])
    weights = grid_weights(bits)
    out = np.empty(amps.shape[0])
    for s0, c in grid_coefficients(amps, bits):
        out[s0 : s0 + len(c)] = ((c.real**2 + c.imag**2) * weights).sum(axis=1)
    return np.maximum(out, 0.0)


def cumulant_invariant(state, index) -> float:
    """Value of the invariant I_index at a pure state; always >= 0."""
    bits = parse_index(index)
    amps = qubit_amps(state, len(bits))
    return float(cumulant_invariant_batch(amps[None], bits)[0])


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
    amps = qubit_amps(state)
    if indices is None:
        indices = invariant_family(amps.size.bit_length() - 1)
    indices = [parse_index(ix) for ix in indices]
    # Row 2j + part shifts amplitude j by step (part 0) or i step (part 1);
    # every shifted state of an index goes to the evaluator in one batch.
    m = 2 * amps.size
    slot = np.arange(m)
    delta = np.where(slot % 2, 1j * step, step)
    up = np.tile(amps, (m, 1))
    up[slot, slot // 2] += delta
    down = up.copy()
    down[slot, slot // 2] -= 2 * delta
    shifted = np.concatenate((up, down))
    rows = []
    for bits in indices:
        vals = cumulant_invariant_batch(shifted, bits)
        rows.append((vals[:m] - vals[m:]) / (2 * step))
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
