"""Bloom filters over integer term ids.

The adaptive-synopsis extension (:mod:`repro.core.synopsis`, after the
authors' INFOCOM'08 follow-up) summarizes each peer's term set in a
compact synopsis that neighbors can consult before forwarding a query.
We implement the classic Bloom filter with ``k`` double-hashed probe
positions, vectorized so that inserting or testing a million term ids
is a handful of numpy calls.

Term ids are non-negative integers (the lexicon interns strings to
ids), so the hash family is a pair of splitmix64-style integer mixers
rather than a byte-string hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BloomFilter", "optimal_parameters", "probe_positions", "splitmix64"]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray, salt: int) -> np.ndarray:
    """splitmix64 finalizer — a cheap, well-distributed 64-bit mixer."""
    z = (x.astype(np.uint64) + np.uint64(salt)) & _MASK64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9) & _MASK64
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB) & _MASK64
    return z ^ (z >> np.uint64(31))


def probe_positions(ids: np.ndarray, m_bits: int, k_hashes: int) -> np.ndarray:
    """Probe positions of ``ids``, shape ``(len(ids), k_hashes)`` — double hashing."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    h1 = splitmix64(ids, 0x9E3779B97F4A7C15)
    h2 = splitmix64(ids, 0xD1B54A32D192ED03) | np.uint64(1)  # odd => full cycle
    j = np.arange(k_hashes, dtype=np.uint64)
    probes = (h1[:, None] + j[None, :] * h2[:, None]) & _MASK64
    return (probes % np.uint64(m_bits)).astype(np.int64)


def optimal_parameters(capacity: int, fp_rate: float) -> tuple[int, int]:
    """Return ``(m_bits, k_hashes)`` for the target capacity and FP rate."""
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not 0.0 < fp_rate < 1.0:
        raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
    m = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
    k = max(1, round(m / capacity * math.log(2)))
    return m, k


@dataclass
class BloomFilter:
    """Fixed-size Bloom filter over non-negative integer ids."""

    m_bits: int
    k_hashes: int

    def __post_init__(self) -> None:
        if self.m_bits <= 0:
            raise ValueError(f"m_bits must be positive, got {self.m_bits}")
        if self.k_hashes <= 0:
            raise ValueError(f"k_hashes must be positive, got {self.k_hashes}")
        self._bits = np.zeros(self.m_bits, dtype=bool)
        self._count = 0

    @classmethod
    def for_capacity(cls, capacity: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Construct a filter sized for ``capacity`` items at ``fp_rate``."""
        m, k = optimal_parameters(capacity, fp_rate)
        return cls(m, k)

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Probe positions, shape ``(len(ids), k)``."""
        return probe_positions(ids, self.m_bits, self.k_hashes)

    def add(self, ids: np.ndarray | int) -> None:
        """Insert one id or an array of ids."""
        pos = self._positions(np.atleast_1d(np.asarray(ids)))
        self._bits[pos.ravel()] = True
        self._count += pos.shape[0]

    def contains(self, ids: np.ndarray | int) -> np.ndarray | bool:
        """Membership test; scalar in, scalar out; array in, bool array out."""
        arr = np.atleast_1d(np.asarray(ids))
        pos = self._positions(arr)
        hits = self._bits[pos].all(axis=1)
        if np.isscalar(ids) or np.asarray(ids).ndim == 0:
            return bool(hits[0])
        return hits

    def __contains__(self, item: int) -> bool:
        return bool(self.contains(int(item)))

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set — drives the realized false-positive rate."""
        return float(self._bits.mean())

    @property
    def approx_fp_rate(self) -> float:
        """Estimated false-positive probability at the current fill."""
        return float(self.fill_ratio**self.k_hashes)

    @property
    def n_inserted(self) -> int:
        """Number of ids inserted (with multiplicity)."""
        return self._count

    def clear(self) -> None:
        """Reset to the empty filter."""
        self._bits[:] = False
        self._count = 0

    def union_update(self, other: "BloomFilter") -> None:
        """In-place union with a filter of identical parameters."""
        if (self.m_bits, self.k_hashes) != (other.m_bits, other.k_hashes):
            raise ValueError("cannot union Bloom filters with different parameters")
        self._bits |= other._bits
        self._count += other._count

    def copy(self) -> "BloomFilter":
        """Deep copy."""
        clone = BloomFilter(self.m_bits, self.k_hashes)
        clone._bits = self._bits.copy()
        clone._count = self._count
        return clone
