"""Seedable, portable pseudo-random generator.

The campaign harness must replay byte-for-byte across platforms and language
runtimes, so randomness comes from SplitMix64 (Steele, Lea and Flood's
mix function, the same one java.util.SplittableRandom uses) rather than from
random.Random, whose helper methods are not pinned across Python versions.
All derived quantities (ranges, shuffles, coin flips) are defined here on top
of the raw 64-bit stream.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream: state += golden gamma, output = mix64(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias.

        One 64-bit draw covers at most 2^64 values, so a larger n is an
        error rather than a loop that no draw ends.
        """
        if not 0 < n <= 1 << 64:
            raise ValueError(f"randrange needs a bound in [1, 2^64], got {n}")
        if n & (n - 1) == 0:
            return self.next_u64() & (n - 1)
        # largest multiple of n that fits in 64 bits
        limit = _MASK64 - (_MASK64 % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / (1 << 53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the back."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(master: int, *indices: int) -> int:
    """Child seed for a (cell, trial, ...) coordinate.

    Folds each index into the master seed through the mix function, so
    distinct coordinates give independent-looking streams and the mapping is
    reproducible everywhere.
    """
    h = _mix64(master & _MASK64)
    for idx in indices:
        h = _mix64(h ^ ((idx & _MASK64) * _GOLDEN & _MASK64))
    return h
