"""Deterministic JSON report documents.

A report carries the tool version, a digest of the input state, the
seed (when randomness was involved), and one entry per computed
quantity.  Serialization is canonical (sorted keys, repr floats), so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

from . import __version__

METHODS = ("closed-form", "monte-carlo", "transvectant", "zhou")


def make_entry(
    index: str,
    value: float,
    degree: int,
    method: str,
    std_error: float | None = None,
) -> dict:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    entry = {
        "index": index,
        "value": float(value),
        "degree": int(degree),
        "method": method,
    }
    if std_error is not None:
        entry["std_error"] = float(std_error)
    return entry


def make_report(
    input_digest: str, entries: list[dict], seed: int | None = None
) -> dict:
    doc = {
        "tool": "luinv",
        "version": __version__,
        "input_digest": input_digest,
        "entries": entries,
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def render_report(doc: dict) -> str:
    """Canonical serialization: stable across runs for equal content.

    Strict JSON (RFC 8259): a NaN or infinite value raises ValueError
    instead of printing NaN or Infinity.
    """
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
