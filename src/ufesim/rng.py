"""Deterministic random-stream derivation.

Each simulation replicate owns an independent stdlib Random seeded from
SHA-256 over (root seed, replicate index).  Streams therefore do not
depend on execution order: replicate i draws the same numbers whichever
replicates ran before it.
"""
from __future__ import annotations

import hashlib
import random

_DOMAIN = b"ufesim.replicate"


def derive_seed(root_seed: int, index: int) -> int:
    """Collapse (root seed, index) into one well-mixed 64-bit seed."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    payload = b"%s:%d:%d" % (_DOMAIN, root_seed, index)
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def replicate_stream(root_seed: int, index: int) -> random.Random:
    """Fresh Random for replicate `index` of a run seeded with root_seed."""
    return random.Random(derive_seed(root_seed, index))
