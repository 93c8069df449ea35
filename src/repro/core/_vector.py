"""Shared NumPy-acceleration shim for the vectorized chunk paths.

Every chunk fast path (the OASRS chunk kernel, stratum statistics, the
native system's moment accounting) is pure-stdlib with an optional NumPy
acceleration.  This module centralises the two pieces they share:

* ``np`` — the NumPy module, or ``None`` when it is not installed (every
  caller must keep a stdlib fallback),
* ``derive_generator(rng)`` — a ``numpy.random.Generator`` seeded from a
  stdlib ``random.Random``, so seeded runs stay reproducible end to end.
"""

from __future__ import annotations

import random

try:
    import numpy as np
except ImportError:  # pragma: no cover - environment without numpy
    np = None

__all__ = ["np", "derive_generator"]


def derive_generator(rng: random.Random):
    """Vector RNG derived from the scalar RNG (requires NumPy present)."""
    return np.random.default_rng(rng.getrandbits(64))
