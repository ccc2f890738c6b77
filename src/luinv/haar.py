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
without the others (Salmon et al., SC'11).  A chunk is one task on a
pool of WORKERS threads, as many as the process may use cores: a draw,
which fills one table with the SU(2) rows of all its samples, in site
order, from one call, then one block per BLOCK columns, which projects,
rotates and evaluates d over its columns in one scratch workspace.  The
draws release the GIL and the blocks mostly hold it, so two blocks at
once take as long as one after the other: a task runs its blocks under
one lock, the lane, and the draws of the next chunks run beside it.
Each chunk's mean and sum of squared deviations are combined in chunk
order (Chan, Golub & LeVeque 1979).  So the bits for a given
(seed, samples) do not depend on the core count, memory does not grow
with `samples`, and MAX_SAMPLES bounds the time instead.  A twirl whose
chunk (drawn rows and widest block table) and cached subset schedule
would pass invariants.MAX_TABLE_BYTES is refused before it draws, by
invariants.check_bytes like the grid, the lift and the Zhou operator, and
fewer chunks hold drawn rows at once when theirs would pass it together.
The cap is read when the twirl runs, so lowering that one constant bounds
all four.

One draw serves any set of indices of a state (`twirl_family`): the
block projects the sites that are 0 in every index, rotates the others,
and reads each index's 2^theta support rows from the rotated table.  With
one index that is the projection and rotation above, in the same order;
with the whole family every site is rotated, so its estimates match the
single-index ones to roundoff.

The register twirl is the oracle for the mixed lift through a partial
trace: the kept sites get independent SU(2)s and the traced sites,
taken together as one register of dimension D = 2^k, get one Haar
unitary of U(D).  The register is all 0-sites of d, so only row 0 of
that unitary reaches d, and the twirl draws only row 0: a point uniform
on the unit sphere of C^D, which is a normalized complex Gaussian vector
(Muller 1959).  One scaling, `_to_sphere`, turns normals into these rows
and, at D = 2, into the SU(2) rows (u, v).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from math import comb, prod, sqrt

import numpy as np

from .cumulants import index_str, parse_index, qubit_amps, subset_splits
from .density import split_sites
from . import invariants

# Samples are processed in fixed-size chunks, chunk k drawn from the k-th
# jump of the seed's Philox stream; the estimate for a given (seed, samples)
# does not depend on anything else, the number of workers included.
CHUNK = 20_000

# Columns of a chunk rotated and evaluated at a time, which bounds the
# scratch memory of a chunk in flight.
BLOCK = 4096

# Draws run at most this many at a time, one per usable core.
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
    return _to_sphere(rng.standard_normal((size, 2 * dim)))


def _to_sphere(z: np.ndarray) -> np.ndarray:
    """Scale each row of a float table of normals to unit norm, in place,
    and return its complex view: entry j of a row is z_2j + i z_2j+1."""
    for s0 in range(0, len(z), CHUNK):  # so the scratch stays small
        zs = z[s0 : s0 + CHUNK]
        # column by column, so the rounding is that of z0^2 + z1^2 + ... in order
        norm = zs[:, 0] * zs[:, 0]
        for j in range(1, zs.shape[1]):
            norm += zs[:, j] * zs[:, j]
        np.sqrt(norm, out=norm)
        np.divide(1.0, norm, out=norm)
        # numpy divides a complex by a real-valued complex as a product with
        # the reciprocal (Smith's method with a zero imaginary part), so
        # scaling the float view by 1 / norm gives the bits of
        # z.view(complex) / norm without the cast, the complex division or a
        # second table.
        zs *= norm[:, None]
    return z.view(complex)


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

    def allowance(self, closed: float) -> float:
        """How far the estimate may sit from the exact value `closed` and
        still agree: 5 standard errors, with an absolute floor for the
        zero-variance cases."""
        return 5 * self.std_error + 1e-12 * max(1.0, abs(closed))


@dataclass(frozen=True)
class _Plan:
    """What the blocks of one twirl share: the amplitude table, the register
    size, the sites 0 in every index (latest first, so the sites before
    each keep their axes), the other free sites in order, per index the
    rows of its support in the rotated table (None when its support is
    every rotated site), and the rows of the widest table a block makes:
    the register's, else the first projection's, else the last rotation's."""

    amps: np.ndarray
    register: int
    projected: list
    rotated: list
    supports: list
    widest: int


def _plan(amps, indices, register) -> _Plan:
    free = len(indices[0]) - register
    rotated = [p for p in range(1, free + 1) if any(bits[p - 1] for bits in indices)]
    projected = [p for p in range(free, 0, -1) if p not in rotated]
    supports = []
    for bits in indices:
        rows = np.zeros(1, dtype=np.intp)
        for i, p in enumerate(rotated):
            if bits[p - 1]:  # the j-th support site is bit j of a support row
                rows = np.concatenate((rows, rows + (1 << i)))
        supports.append(None if len(rows) == 2 ** len(rotated) else rows)
    widest = 2 ** (free - 1) if projected and not register else 2**free
    return _Plan(amps, register, projected, rotated, supports, widest)


def _draw(seed, k, b, free, register, out):
    """Chunk k's draw: the rows of every site for all b samples, in site
    order, then the register's row 0, from the k-th jump of the Philox
    stream of `seed`.  The site rows fill the float table `out`, from one
    call that draws the stream of one call per site.  It runs in a worker
    thread, so it calls nothing perfbench's tracer wraps: the tracer keeps
    one span stack."""
    rng = _rng_for(seed, k)
    uv = _to_sphere(rng.standard_normal((free * b, 4), out=out[: free * b]))
    rows = [(site[:, 0], site[:, 1]) for site in uv.reshape(free, b, 2)]
    return rows, _sphere_rows(rng, b, 2**register) if register else None


def _block(plan, drawn, vals, c0, work):
    """Columns c0 .. c0 + BLOCK of one chunk: project the sites 0 in every
    index, rotate the others, and write |d|^2 of the i-th index into
    vals[i].  With one index this is the projection of its 0-sites and the
    rotation of its 1-sites; with the whole family every site is rotated.
    The steps write into the three scratch tables `work` in turn, so a
    block allocates no table of its own."""
    amps, register = plan.amps, plan.register
    rows, row0 = drawn
    cols = slice(c0, c0 + BLOCK)
    n = amps.size.bit_length() - 1
    spare, cross = list(work[:2]), work[2]

    def scratch(shape):  # the scratch table t is not in
        spare.reverse()
        return spare[1][: prod(shape)].reshape(shape)

    # Axes of t: the sites, site 1 first, then the sample, of length 1
    # until a step broadcasts it.
    if register:
        t = amps.reshape((2,) * (n - register) + (2**register,))
        t = np.matmul(t, row0[cols].T, out=scratch(t.shape[:-1] + (len(row0[cols]),)))
    else:
        t = amps.reshape((2,) * n + (1,))
    for p in plan.projected:
        u, v = (r[cols] for r in rows[p - 1])
        at = (slice(None),) * (p - 1)
        nt = scratch(t.shape[: p - 1] + t.shape[p:-1] + u.shape)
        c = cross[: nt.size].reshape(nt.shape)
        np.multiply(u, t[at + (0,)], out=nt)
        nt += np.multiply(v, t[at + (1,)], out=c)  # u a0 + v a1
        t = nt
    # Now the axes are the rotated sites; each rotated site moves to the
    # front, so the first one ends least significant.
    for i, p in enumerate(plan.rotated):
        u, v = (r[cols] for r in rows[p - 1])
        at = (slice(None),) * i
        a0, a1 = t[at + (0,)], t[at + (1,)]
        nt = scratch((2,) + a0.shape[:-1] + u.shape)
        c = cross[: nt[0].size].reshape(nt[0].shape)
        np.multiply(a0, u, out=nt[0])
        nt[0] += np.multiply(v, a1, out=c)
        np.multiply(a1, u.conj(), out=nt[1])
        nt[1] -= np.multiply(v.conj(), a0, out=c)
        t = nt
    table = t.reshape(2 ** len(plan.rotated), -1)
    for out, support in zip(vals, plan.supports):
        d = invariants.evaluate_d(table if support is None else table[support], BLOCK)
        out[cols] = d.real**2 + d.imag**2


def _chunk_results(plan, seed, sizes, inflight):
    """Yield the (indices, b) table of |d|^2 of every chunk, in chunk order.

    Each chunk is one task on a pool of WORKERS threads: it draws into a
    table of its own, then runs its blocks one BLOCK of columns at a time.
    The draws release the GIL and the blocks mostly hold it, so a task
    takes one lock, the lane, for its blocks: they run one at a time on
    one scratch workspace while the next chunks' draws run beside them.
    At most `inflight` chunks are submitted; chunk k + inflight reuses
    chunk k's table once chunk k is done.  With one chunk in flight or
    one usable core the chunks run inline.
    """
    free = plan.amps.size.bit_length() - 1 - plan.register
    register, m = plan.register, len(plan.supports)
    workspace = [np.empty(plan.widest * min(BLOCK, sizes[0]), dtype=complex) for _ in range(3)]
    if WORKERS == 1:
        inflight = 1
    tables = [np.empty((free * sizes[0], 4)) for _ in range(inflight)]

    def draw(k):
        return _draw(seed, k, sizes[k], free, register, tables[k % inflight])

    def blocks(k, drawn):
        vals = np.empty((m, sizes[k]))
        for c0 in range(0, sizes[k], BLOCK):
            _block(plan, drawn, vals, c0, workspace)
        return vals

    if inflight == 1:
        for k in range(len(sizes)):
            yield blocks(k, draw(k))
        return
    # imported here: it costs a cold single-chunk run about 9 ms
    import threading
    from concurrent.futures import ThreadPoolExecutor

    lane = threading.Lock()

    def chunk(k):
        drawn = draw(k)
        with lane:  # the blocks share `workspace`
            return blocks(k, drawn)

    with ThreadPoolExecutor(WORKERS) as pool:
        ahead = deque(pool.submit(chunk, k) for k in range(inflight))
        try:
            for k in range(len(sizes)):
                vals = ahead.popleft().result()
                if k + inflight < len(sizes):  # chunk k's table is free again
                    ahead.append(pool.submit(chunk, k + inflight))
                yield vals
        finally:
            for fut in ahead:
                fut.cancel()


def _twirl(amps, indices, gammas, samples, seed, register=0) -> list[TwirlEstimate]:
    """Average gamma * |d_bits|^2 for every bits of `indices` over an SU(2)
    on each of the first n - register sites and one U(2^register) on the
    remaining sites, which must be 0-sites of every index.  One draw serves
    every index."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"samples = {samples} exceeds the cap of {MAX_SAMPLES} (haar.MAX_SAMPLES)"
        )
    n = len(indices[0])
    plan = _plan(amps, indices, register)
    thetas = sorted({sum(bits) for bits in indices})
    sizes = [min(CHUNK, samples - done) for done in range(0, samples, CHUNK)]
    # A chunk in flight holds its drawn rows, two numbers per site and 2^k
    # for the register, and the widest table of a block.  An index read
    # from part of that table copies its 2^theta rows, and every index
    # after the first keeps 8 bytes a sample.
    drawn = 2 * (n - register) + (2**register if register else 0)
    rows = plan.widest + max(
        (2 ** sum(bits) for bits, s in zip(indices, plan.supports) if s is not None), default=0)
    chunk = 16 * (drawn * sizes[0] + rows * min(BLOCK, sizes[0]))
    chunk += 8 * sizes[0] * (len(indices) - 1)
    # the cached subset_splits of each theta, ~130 B a triple
    schedule = sum(130 * 3 ** (theta - 1) for theta in thetas)
    theta = thetas[-1]
    invariants.check_bytes(
        chunk + schedule,
        f"twirl of theta = {theta} over {n} sites needs {chunk} bytes per chunk "
        f"and {schedule} for the subset schedule",
    )
    # One more chunk with drawn rows than threads, so that a draw can run
    # beside the blocks; fewer when their tables would pass the cap together.
    inflight = min(WORKERS + 1, len(sizes), (invariants.MAX_TABLE_BYTES - schedule) // chunk)
    for theta in thetas:  # cached before the workers start, so none builds it twice
        subset_splits(theta)
    count = 0
    mean = np.zeros(len(indices))
    m2 = np.zeros(len(indices))
    for vals in _chunk_results(plan, seed, sizes, inflight):
        b = vals.shape[1]
        total = count + b
        for i, v in enumerate(vals):
            chunk_mean = v.mean()
            delta = chunk_mean - mean[i]
            mean[i] += delta * b / total
            m2[i] += ((v - chunk_mean) ** 2).sum() + delta**2 * count * b / total
        count = total
    return [
        TwirlEstimate(
            mean=gamma * float(mu),
            std_error=gamma * sqrt(s / (samples - 1)) / sqrt(samples),
            samples=samples,
            seed=int(seed),
        )
        for gamma, mu, s in zip(gammas, mean, m2)
    ]


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
    return _twirl(amps, [bits], [invariants.gamma_factor(n, theta)], samples, seed)[0]


def twirl_family(state, indices=None, samples: int = 100_000, seed: int = 0):
    """Monte-Carlo estimates of I_index for several indices of one state, by
    one twirl: {bits: TwirlEstimate}, keyed by the bit tuple of each index.

    `indices` defaults to every theta >= 2 index of the family.  Each chunk
    is drawn once, as twirl_estimate draws it, and serves every index, so
    each estimate matches twirl_estimate(state, index, samples, seed) to
    roundoff: a site 0 in one index but not in all is rotated, not projected.
    """
    amps = qubit_amps(state)
    n = amps.size.bit_length() - 1
    if indices is None:
        indices = invariants.invariant_family(n)[1:]
    indices = list(dict.fromkeys(parse_index(ix) for ix in indices))
    if not indices:
        raise ValueError("twirl oracle needs an index with theta >= 2")
    for bits in indices:
        if len(bits) != n:
            raise ValueError(f"index {index_str(bits)} has {len(bits)} sites, state has {n}")
        if sum(bits) < 2:
            raise ValueError("twirl oracle is defined for indices with theta >= 2")
    gammas = [invariants.gamma_factor(n, sum(bits)) for bits in indices]
    return dict(zip(indices, _twirl(amps, indices, gammas, samples, seed)))


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
    bits = tuple(kept_bits) + (0,) * k
    return _twirl(amps, [bits], [float(gamma)], samples, seed, k)[0]


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
