"""The grid's raise by broadcasting: one new innermost grid axis per site,
and at a 1-site the kept digit stacked in front.

This is the build `invariants.grid_coefficients` replaced with contiguous
per-site steps, kept as the literal oracle for it: the same elementwise
operations in another layout, so every c_k must agree bit for bit.  It
builds one state's whole table at a time, so it is meant for n <= 6.
"""

import numpy as np

from luinv.invariants import _grid_plan, evaluate_d


def stacked_coefficients(amps: np.ndarray, bits: tuple[int, ...]) -> np.ndarray:
    """Every c_k of each state of a (B, 2**n) batch, shape (B, grid points),
    in the order of grid_coefficients."""
    lengths, roots = _grid_plan(bits)[:2]
    n, theta = len(bits), sum(bits)
    points = int(np.prod(lengths))
    out = np.empty((amps.shape[0], points), dtype=complex)
    for s, state in enumerate(amps):
        # Axes of t: the digits kept at the 1-sites done (latest first), the
        # sites to do, the state, the grid axes of the sites done.
        t = state[:, None].reshape((2,) * n + (1,))
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
        out[s] = c.reshape(-1)
    return out
