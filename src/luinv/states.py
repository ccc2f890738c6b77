"""State file IO, named state generators, and partition parsing.

The on-disk format is JSON:

    {"n": 3, "d": 2, "amplitudes": [[re, im], ...]}

with d^n amplitude pairs in big-endian site order (site 1 most
significant), at most MAX_AMPLITUDES of them.  Floats round-trip exactly
through repr, so write followed by parse is the identity.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, permute_sites, tensor
from .cumulants import check_partition

STATE_KINDS = ("random", "bell", "ghz", "w", "separable")

# Largest amplitude table d**n a state file may declare, checked before
# d**n is computed; its JSON text alone would take about a gigabyte.
MAX_AMPLITUDES = 2**24


def parse_sites(text: str, what: str) -> list[int]:
    """Parse comma-separated site labels like "2,4", naming any token that
    is not a string of decimal digits as `what`; the range is the caller's."""
    sites = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok.isdecimal():
            raise ValueError(f"{what} {tok!r} is not a positive integer")
        sites.append(int(tok))
    return sites


def parse_partition(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Parse a partition like "1,2|3" into blocks of site labels.

    Blocks are separated by '|', sites within a block by ','.  The
    blocks must cover {1..n} exactly once (see `check_partition`).
    """
    blocks = [parse_sites(part, "partition site") for part in text.split("|")]
    return check_partition(blocks, n)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def load_state(path) -> AlgebraElement:
    """Read a state file, with diagnostics naming any offending field."""
    raw = Path(path).read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    for field in ("n", "amplitudes"):
        if field not in doc:
            raise ValueError(f"{path}: missing field {field!r}")
    n = doc["n"]
    d = doc.get("d", 2)
    if not _is_int(n) or n < 1:
        raise ValueError(f"{path}: field 'n' must be a positive integer")
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"{path}: field 'd' must be an integer >= 2")
    if d > MAX_AMPLITUDES:
        raise ValueError(
            f"{path}: field 'd' = {d} exceeds the cap of {MAX_AMPLITUDES} amplitudes"
        )
    # d >= 2, so an n past the cap's bit length exceeds it without d**n
    if n >= MAX_AMPLITUDES.bit_length() or d**n > MAX_AMPLITUDES:
        raise ValueError(
            f"{path}: field 'n' = {n} gives more than {MAX_AMPLITUDES} "
            f"amplitudes at d = {d}"
        )
    size = d**n
    amps = doc["amplitudes"]
    if not isinstance(amps, list) or len(amps) != size:
        have = len(amps) if isinstance(amps, list) else "non-list"
        raise ValueError(
            f"{path}: field 'amplitudes' must list {size} (re, im) pairs, got {have}"
        )
    coeffs = np.empty(size, dtype=complex)
    for k, pair in enumerate(amps):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(x) or isinstance(x, float) for x in pair)
        ):
            raise ValueError(
                f"{path}: amplitudes[{k}] must be a [re, im] pair of numbers"
            )
        try:
            coeffs[k] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(
                f"{path}: amplitudes[{k}] is outside floating-point range"
            ) from None
    return AlgebraElement(n, d, coeffs)


def save_state(state: AlgebraElement, path) -> None:
    doc = {
        "n": state.n,
        "d": state.d,
        "amplitudes": [[float(c.real), float(c.imag)] for c in state.coeffs],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def state_digest(state: AlgebraElement) -> str:
    """Stable short hash of (n, d, amplitude bytes) for report headers."""
    h = hashlib.sha256()
    h.update(f"{state.n},{state.d}:".encode())
    h.update(np.ascontiguousarray(state.coeffs).tobytes())
    return h.hexdigest()[:16]


def _normalized(coeffs: np.ndarray) -> np.ndarray:
    return coeffs / np.linalg.norm(coeffs)


def generate_state(
    kind: str, n: int, seed: int = 0, partition: str | None = None
) -> AlgebraElement:
    """Build a named or random state.

    random: normalized complex-Gaussian amplitudes.
    bell: (|00> + |11>)/sqrt(2), n = 2 only.
    ghz: (|0...0> + |1...1>)/sqrt(2).
    w: equal superposition of the weight-1 basis states.
    separable: tensor product of independent random factors over the
        blocks of `partition` (defaults to fully separable).
    """
    if kind not in STATE_KINDS:
        raise ValueError(f"unknown state kind {kind!r}")
    if n < 1:
        raise ValueError("need at least one site")
    # as in load_state, 2**n is never computed for an n past the cap
    if n >= MAX_AMPLITUDES.bit_length():
        raise ValueError(f"'n' = {n} gives more than {MAX_AMPLITUDES} amplitudes")
    rng = np.random.default_rng(seed)
    if kind == "random":
        c = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return AlgebraElement(n, 2, _normalized(c))
    if kind == "bell":
        if n != 2:
            raise ValueError("bell states have exactly two sites")
        return AlgebraElement(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    if kind == "ghz":
        if n < 2:
            raise ValueError("ghz needs at least two sites")
        c = np.zeros(2**n)
        c[0] = c[-1] = 1 / np.sqrt(2)
        return AlgebraElement(n, 2, c)
    if kind == "w":
        if n < 2:
            raise ValueError("w needs at least two sites")
        c = np.zeros(2**n)
        for k in range(n):
            c[1 << k] = 1 / np.sqrt(n)
        return AlgebraElement(n, 2, c)
    # separable
    blocks = parse_partition(partition or "|".join(str(s) for s in range(1, n + 1)), n)
    factors = []
    for block in blocks:
        m = len(block)
        c = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
        factors.append(AlgebraElement(m, 2, _normalized(c)))
    prod = factors[0]
    for f in factors[1:]:
        prod = tensor(prod, f)
    # tensor laid the blocks out in order; permute back to site order
    order = [s for block in blocks for s in block]
    perm = tuple(order.index(p) + 1 for p in range(1, n + 1))
    return permute_sites(prod, perm)
