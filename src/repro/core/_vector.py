"""Shared NumPy-acceleration shim for the vectorized chunk paths.

Every chunk fast path (the OASRS chunk kernel, SRS/STS samplers, stratum
statistics, the native system's moment accounting) is pure-stdlib with an
optional NumPy acceleration.  This module centralises the three pieces
they share:

* ``np`` — the NumPy module, or ``None`` when it is not installed (every
  caller must keep a stdlib fallback),
* ``VECTOR_MIN`` — the default chunk length below which the Python loop
  beats the NumPy call overhead (callers with different per-item costs may
  use their own named threshold),
* ``derive_generator(rng)`` — a ``numpy.random.Generator`` seeded from a
  stdlib ``random.Random``, so seeded runs stay reproducible end to end.
"""

from __future__ import annotations

import random

try:
    import numpy as np
except ImportError:  # pragma: no cover - environment without numpy
    np = None

__all__ = ["np", "VECTOR_MIN", "derive_generator"]

# Below this chunk size the Python loop beats the NumPy call overhead.
VECTOR_MIN = 64


def derive_generator(rng: random.Random):
    """Vector RNG derived from the scalar RNG (requires NumPy present)."""
    return np.random.default_rng(rng.getrandbits(64))
