"""Monte-Carlo oracle: Haar averaging over independent local SU(2)s.

The estimator draws one SU(2) per site per sample, rotates the
amplitude table, evaluates the cumulant polynomial d, and averages
gamma * |d|^2.  It is the ground truth the closed-form invariants are
checked against; the two share nothing beyond the polynomial d itself
and the kernel that evaluates it.

d's factor words have digit 0 at every 0-site of the index, so only the
digit-0 row of a 0-site's rotation reaches d.  Each chunk of samples
therefore projects first: a 0-site with first row (u, v) maps the
digit pair (a0, a1) to u a0 + v a1 and halves the table.  The 1-sites
are then rotated in full by broadcast multiply-adds, leaving the 2^theta
support table, on which d is evaluated by `invariants.evaluate_d`, the
same kernel the closed-form grid uses: the moment-cumulant recursion over
the subsets of the support, which reads only the table.

Chunk k of CHUNK samples draws from the k-th jump of the seed's Philox
stream (chunk 0 from the unjumped one), so any chunk can be reproduced
without the others (Salmon et al., SC'11).  A chunk draws the SU(2)s of
all its samples in site order, one per site, then projects, rotates and
evaluates d BLOCK columns at a time.  The chunks of one estimate run on
a thread pool of WORKERS threads, as many as the process may use cores,
and their mean and sum of squared deviations are combined in chunk
order (Chan, Golub & LeVeque 1979).  So the bits for a given (seed,
samples) do not depend on the core count, memory does not grow with
`samples`, and MAX_SAMPLES bounds the time instead.  A twirl whose
chunk (drawn rows and widest block table) and cached subset schedule
would pass invariants.MAX_TABLE_BYTES is refused before it draws, and
fewer chunks run at once when theirs would pass it together.

The register twirl is the oracle for the mixed lift through a partial
trace: the kept sites get independent SU(2)s and the traced sites,
taken together as one register of dimension D = 2^k, get one Haar
unitary of U(D).  The register is all 0-sites of d, so only row 0 of
that unitary reaches d, and the twirl draws only row 0: a point uniform
on the unit sphere of C^D, which is a normalized complex Gaussian vector
(Muller 1959).  One sampler, `_sphere_rows`, draws these rows and, at
D = 2, the SU(2) rows (u, v).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from math import comb, prod, sqrt

import numpy as np

from .cumulants import parse_index, qubit_amps, subset_splits
from .density import split_sites
from .invariants import MAX_TABLE_BYTES, evaluate_d, gamma_factor

# Samples are processed in fixed-size chunks, chunk k drawn from the k-th
# jump of the seed's Philox stream; the estimate for a given (seed, samples)
# does not depend on anything else, the number of workers included.
CHUNK = 20_000

# Columns of a chunk rotated and evaluated at a time, which bounds the
# scratch memory of a chunk in flight.
BLOCK = 4096

# Chunks run at most this many at a time, one per usable core.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:  # no affinity call off Linux
    WORKERS = os.cpu_count() or 1

# Largest number of samples one twirl accepts.  Memory no longer bounds a
# request, so this bounds its time instead.
MAX_SAMPLES = 10**9


def _rng_for(seed: int, jumps: int = 0) -> np.random.Generator:
    # counter-based generator, cheap to reproduce and safe to jump
    return np.random.Generator(np.random.Philox(key=int(seed)).jumped(jumps))


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """One Haar-random SU(2): first row uniform on the unit sphere of C^2."""
    return haar_su2_batch(rng, 1)[0]


def _sphere_rows(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """`size` independent points uniform on the unit sphere of C^dim, the
    law of row 0 of a Haar U(dim): normalized complex Gaussian vectors."""
    z = rng.standard_normal((size, 2 * dim))
    # column by column, so the rounding is that of z0^2 + z1^2 + ... in order
    norm = np.sqrt(sum(z[:, j] * z[:, j] for j in range(2 * dim)))
    return z.view(complex) / norm[:, None]  # entry j is z_2j + i z_2j+1


def haar_su2_rows(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """First rows (u, v) of `size` independent Haar SU(2) matrices, each
    [[u, v], [-conj(v), conj(u)]]: (u, v) uniform on the unit sphere of C^2."""
    uv = _sphere_rows(rng, size, 2)
    return uv[:, 0], uv[:, 1]


def haar_su2_batch(rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, 2, 2) batch of independent Haar SU(2) matrices."""
    u, v = haar_su2_rows(rng, size)
    out = np.empty((size, 2, 2), dtype=complex)
    out[:, 0, 0] = u
    out[:, 0, 1] = v
    out[:, 1, 0] = -v.conj()
    out[:, 1, 1] = u.conj()
    return out


@dataclass(frozen=True)
class TwirlEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int


def _chunk_stats(amps, bits, register, seed, k, b):
    """(b, mean, sum of squared deviations) of |d_bits|^2 over chunk k: b
    samples drawn from the k-th jump of the Philox stream of `seed`.

    The rows of every site are drawn for all b samples, in site order; the
    projection, the rotations and d then run BLOCK columns at a time.
    It may run in a worker thread, so it calls only haar_su2_rows,
    _sphere_rows and evaluate_d: perfbench's tracer keeps one span stack.
    """
    rng = _rng_for(seed, k)
    n = len(bits)
    free = n - register
    # 0-sites latest first, so the sites before each keep their axes.
    zeros = [p for p in range(free, 0, -1) if not bits[p - 1]]
    ones = [p for p in range(1, free + 1) if bits[p - 1]]
    rows = [haar_su2_rows(rng, b) for _ in range(free)]
    if register:
        row0 = _sphere_rows(rng, b, 2**register)
    vals = np.empty(b)
    for c0 in range(0, b, BLOCK):
        cols = slice(c0, c0 + BLOCK)
        # Axes of t: the sites, site 1 first, then the sample, of length 1
        # until a rotation broadcasts it.
        if register:
            t = amps.reshape((2,) * free + (2**register,)) @ row0[cols].T
        else:
            t = amps.reshape((2,) * n + (1,))
        for p in zeros:
            u, v = (r[cols] for r in rows[p - 1])
            at = (slice(None),) * (p - 1)
            t = u * t[at + (0,)] + v * t[at + (1,)]
        # Now the axes are the support sites; each rotated 1-site moves to
        # the front, so the first support site ends least significant.
        for i, p in enumerate(ones):
            u, v = (r[cols] for r in rows[p - 1])
            at = (slice(None),) * i
            a0, a1 = t[at + (0,)], t[at + (1,)]
            t = np.empty((2,) + a0.shape[:-1] + u.shape, dtype=complex)
            np.multiply(a0, u, out=t[0])
            t[0] += v * a1
            np.multiply(a1, u.conj(), out=t[1])
            t[1] -= v.conj() * a0
        d = evaluate_d(t.reshape(2 ** len(ones), -1))
        vals[cols] = d.real**2 + d.imag**2
    mean = vals.mean()
    return b, mean, ((vals - mean) ** 2).sum()


def _chunk_results(amps, bits, register, seed, sizes, workers):
    """Yield `_chunk_stats` of every chunk in chunk order, running up to
    `workers` chunks at a time; numpy releases the GIL in the draws and
    the wide ufuncs."""
    if workers == 1:
        for k, b in enumerate(sizes):
            yield _chunk_stats(amps, bits, register, seed, k, b)
        return
    # imported here: it costs a cold single-chunk run about 9 ms
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for k, b in enumerate(sizes):
            pending.append(pool.submit(_chunk_stats, amps, bits, register, seed, k, b))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _twirl(amps, bits, gamma, samples, seed, register=0) -> TwirlEstimate:
    """Average gamma * |d_bits|^2 over an SU(2) on each of the first
    n - register sites and one U(2^register) on the remaining sites,
    which must be 0-sites of `bits`."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"samples = {samples} exceeds the cap of {MAX_SAMPLES} (haar.MAX_SAMPLES)"
        )
    n = len(bits)
    theta = sum(bits)
    sizes = [min(CHUNK, samples - done) for done in range(0, samples, CHUNK)]
    # A chunk in flight holds its drawn rows, two numbers per site and 2^k
    # for the register, and the widest table of a block, which comes from
    # the first step that carries the sample axis: the register's row 0,
    # else the projection of the last 0-site, else the last rotation.
    if register:
        drawn, rows = 2 * (n - register) + 2**register, 2 ** (n - register)
    else:
        drawn, rows = 2 * n, 2 ** (n - 1) if theta < n else 2**n
    chunk = 16 * (drawn * sizes[0] + rows * min(BLOCK, sizes[0]))
    schedule = 130 * 3 ** (theta - 1)  # the cached subset_splits(theta), ~130 B a triple
    if chunk + schedule > MAX_TABLE_BYTES:
        raise ValueError(
            f"twirl of theta = {theta} over {n} sites needs {chunk} bytes per chunk "
            f"and {schedule} for the subset schedule, over the cap of {MAX_TABLE_BYTES} "
            "(invariants.MAX_TABLE_BYTES)"
        )
    # Fewer chunks in flight when their tables would pass the cap together.
    workers = min(WORKERS, len(sizes), (MAX_TABLE_BYTES - schedule) // chunk)
    subset_splits(theta)  # cached before the workers start, so none builds it twice
    count, mean, m2 = 0, 0.0, 0.0
    for b, chunk_mean, chunk_m2 in _chunk_results(amps, bits, register, seed, sizes, workers):
        delta = chunk_mean - mean
        total = count + b
        mean += delta * b / total
        m2 += chunk_m2 + delta**2 * count * b / total
        count = total
    sem = gamma * sqrt(m2 / (samples - 1)) / sqrt(samples)
    return TwirlEstimate(
        mean=gamma * float(mean), std_error=sem, samples=samples, seed=int(seed)
    )


def twirl_estimate(state, index, samples: int = 100_000, seed: int = 0) -> TwirlEstimate:
    """Monte-Carlo estimate of I_index by explicit Haar twirling.

    Requires theta >= 2 (the norm index needs no averaging).  Identical
    (seed, samples) give bit-identical results on one platform.
    """
    bits = parse_index(index)
    n = len(bits)
    theta = sum(bits)
    if theta < 2:
        raise ValueError("twirl oracle is defined for indices with theta >= 2")
    amps = qubit_amps(state, n)
    return _twirl(amps, bits, gamma_factor(n, theta), samples, seed)


def register_twirl_estimate(
    state, trace_out, kept_index, samples: int = 100_000, seed: int = 0
) -> TwirlEstimate:
    """Monte-Carlo estimate of the mixed lift hatJ_kept_index at the state
    with the sites `trace_out` traced out (see `mixed.lifted_invariant_pair`).

    The sites are reordered kept first, then traced, and d is taken for the
    kept index padded with zeros over the traced register.  The kept sites
    get independent Haar SU(2)s and the register of k traced sites one Haar
    U(2^k).  The average of |d|^2 is scaled by (theta+1) per kept 0-site,
    (theta-1) per kept 1-site and C(2^k+theta-1, theta), the dimension of
    the symmetric theta-th power of the register.  For one traced site that
    factor is theta + 1 and the estimate is the ordinary twirl of I with a
    0 at the traced site; for more the lift and I differ.
    """
    kept_bits = parse_index(kept_index)
    theta = sum(kept_bits)
    if theta < 2:
        raise ValueError("twirl oracle is defined for indices with theta >= 2")
    n = len(kept_bits) + len(set(int(s) for s in trace_out))
    kept, traced = split_sites(trace_out, n)
    k = len(traced)
    amps = qubit_amps(state, n)
    order = [s - 1 for s in kept + traced]
    amps = np.ascontiguousarray(amps.reshape((2,) * n).transpose(order)).reshape(-1)
    gamma = (
        prod(theta + 1 if b == 0 else theta - 1 for b in kept_bits)
        * comb(2**k + theta - 1, theta)
    )
    return _twirl(amps, tuple(kept_bits) + (0,) * k, float(gamma), samples, seed, k)


def moment_battery(samples: int = 100_000, seed: int = 0, max_total: int = 6):
    """Estimate all SU(2) entry moments E[u^a ubar^b v^c vbar^e] up to
    total degree max_total, against the exact Schur values.

    The exact moment is p!q!/(p+q+1)! when a = b = p and c = e = q, and
    zero otherwise.  Returns rows (a, b, c, e, estimate, expected,
    std_error).
    """
    u, v = haar_su2_rows(_rng_for(seed), samples)
    pows = {}
    for name, arr in (("u", u), ("ub", u.conj()), ("v", v), ("vb", v.conj())):
        p = np.ones_like(u)
        table = [p]
        for _ in range(max_total):
            p = p * arr
            table.append(p)
        pows[name] = table
    rows = []
    for a in range(max_total + 1):
        for bb in range(max_total + 1 - a):
            for c in range(max_total + 1 - a - bb):
                for e in range(max_total + 1 - a - bb - c):
                    mono = pows["u"][a] * pows["ub"][bb] * pows["v"][c] * pows["vb"][e]
                    est = complex(mono.mean())
                    if a == bb and c == e:
                        expected = 1.0 / ((a + c + 1) * comb(a + c, a))
                    else:
                        expected = 0.0
                    se = float(
                        np.sqrt(mono.real.var(ddof=1) + mono.imag.var(ddof=1))
                    ) / sqrt(samples)
                    rows.append((a, bb, c, e, est, expected, se))
    return rows
