"""Density matrices of qubit registers: outer products, reduced states of
pure states, and partial traces.

A pure state is anything `cumulants.qubit_amps` reads: an AlgebraElement
with d = 2, or a flat amplitude table whose length is a power of 2.
Site lists are 1-based; they are sorted and deduplicated, and a site
outside 1..n is refused.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cumulants import qubit_amps


def sites_of(rho: np.ndarray) -> int:
    """Number of qubit sites of a square matrix, validating the shape."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    n = int(round(np.log2(rho.shape[0])))
    if 2**n != rho.shape[0]:
        raise ValueError(f"matrix dimension {rho.shape[0]} is not a power of 2")
    return n


def _sites(sites: Sequence[int], n: int, what: str) -> list[int]:
    sites = sorted(set(int(s) for s in sites))
    if sites and (sites[0] < 1 or sites[-1] > n):
        raise ValueError(f"{what} sites {sites} outside 1..{n}")
    return sites


def _kept(keep: Sequence[int], n: int) -> list[int]:
    keep = _sites(keep, n, "kept")
    if not keep:
        raise ValueError("must keep at least one site")
    return keep


def split_sites(trace_out: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """The kept and the traced sites of an n-site register, each ascending,
    refusing a traced site outside 1..n."""
    traced = _sites(trace_out, n, "traced")
    return [s for s in range(1, n + 1) if s not in traced], traced


def density_matrix(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of a pure qubit state."""
    amps = qubit_amps(psi)
    return np.outer(amps, amps.conj())


def reduced_state(psi, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a pure qubit state, an AlgebraElement or a
    flat table, on the sites `keep` (1-based, in ascending order):
    Psi Psi^dagger, with Psi the amplitude tensor reshaped to (kept sites,
    traced sites).  It equals partial_trace(density_matrix(psi), keep)
    without the 2^n x 2^n matrix.
    """
    amps = qubit_amps(psi)
    n = amps.size.bit_length() - 1
    keep = _kept(keep, n)
    order = keep + [s for s in range(1, n + 1) if s not in keep]
    m = amps.reshape((2,) * n).transpose([s - 1 for s in order]).reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all sites not in `keep` (1-based); kept sites stay in
    ascending order.  The trace is preserved exactly, and the result never
    shares memory with rho, even when every site is kept.
    """
    rho = np.asarray(rho, dtype=complex)
    n = sites_of(rho)
    keep = _kept(keep, n)
    t = rho.reshape((2,) * (2 * n))
    ket = list(range(n))
    bra = [i + n if (i + 1) in keep else i for i in range(n)]
    out = [i for i in ket if (i + 1) in keep] + [i + n for i in ket if (i + 1) in keep]
    reduced = np.einsum(t, ket + bra, out)
    return np.array(reduced, order="C").reshape(2 ** len(keep), -1)
