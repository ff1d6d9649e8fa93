"""Counter-based random streams (splitmix64).

Every random decision in the package is a pure function of
(seed, trial, slot), so trial i never depends on how many trials run
before or after it, and a kernel can draw any edge's coin in any order
without carrying generator state.

Slot conventions used by callers:
  slot 0        reserved (stream base itself)
  slot 1        seed-node pick for a cascade trial
  slot 2 + k    coin for CSR edge index k
  slot 2 + E + j  j-th synthetic timestamp gap (E = edge count)
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

SLOT_SEED_NODE = 1
SLOT_EDGE_BASE = 2


def mix64(z: int) -> int:
    """Splitmix64 finalizer; a bijection on 64-bit words.

    Reference implementation on masked Python ints. numpy uint64
    scalars warn on overflow, so scalar work stays in plain ints.
    """
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 on a uint64 array (wraparound is silent for arrays)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def trial_base(seed: int, trial: int) -> int:
    """Base word of the (seed, trial) stream.

    Two-level split: the seed picks a root, the trial index jumps along
    the root's gamma sequence. Changing the trial count reshuffles nothing.
    """
    if trial < 0:
        raise ValueError("trial index must be >= 0")
    root = mix64(seed)
    return mix64((root + (trial + 1) * GAMMA) & MASK64)


def stream_value(base: int, slot: int) -> int:
    """slot-th 64-bit word of the stream rooted at `base`."""
    return mix64((base + slot * GAMMA) & MASK64)


def stream_values(base: int, slots: np.ndarray) -> np.ndarray:
    """Vectorized stream_value for a uint64 slot array."""
    z = np.uint64(base & MASK64) + slots.astype(np.uint64) * np.uint64(GAMMA)
    return mix64_array(z)


def unit_float(bits: int) -> float:
    """Map a 64-bit word to [0, 1) using the top 53 bits."""
    return ((bits & MASK64) >> 11) * 2.0 ** -53


def unit_floats(bits: np.ndarray) -> np.ndarray:
    """Vectorized unit_float on a uint64 array."""
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
