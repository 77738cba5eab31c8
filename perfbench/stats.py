"""Sample statistics and output digests for the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (0 < q < 1), or None without support.

    The value at rank ``ceil(q * n)`` of the sorted samples is the
    percentile; the ``n - rank`` samples above it are the ones "beyond"
    it, and fewer than :data:`MIN_BEYOND` of those means the tail is too
    thin to read, so nothing is reported.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1): {q!r}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def samples_needed(q: float) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n


def digest(payload: Any) -> str:
    """sha256 of text, bytes, or canonical JSON of anything else."""
    if isinstance(payload, str):
        data = payload.encode("utf-8")
    elif isinstance(payload, bytes):
        data = payload
    else:
        data = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: str) -> str:
    """sha256 over every file under ``root``: relative names and bytes."""
    h = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read())
            h.update(b"\0")
    return h.hexdigest()
