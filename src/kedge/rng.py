"""Seedable, portable pseudo-random generator.

The campaign harness must replay byte-for-byte across platforms and language
runtimes, so randomness comes from SplitMix64 (Steele, Lea and Flood's
mix function, the same one java.util.SplittableRandom uses) rather than from
random.Random, whose helper methods are not pinned across Python versions.
All derived quantities (ranges, cycle orders, coin flips) are defined here on
top of the raw 64-bit stream.

The state is a Weyl sequence (s + r * gamma after r draws from s), so a lost
cycle try's unread draws at bounds i, i - 1, ..., 2 are jumped in one step
unless the one at bound b lands on a rejected state r of b: s + (i + 1 - b) *
gamma = r, or s / gamma + i + 1 = r / gamma + b (mod 2^64), one table lookup.
"""

from __future__ import annotations

import functools

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_M1_INV = pow(_M1, -1, 1 << 64)
_M2_INV = pow(_M2, -1, 1 << 64)
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
# the largest bound whose rejected states are tabled; unread draws above it are mixed
_TABLED_BOUND = 64


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def _unmix64(z: int) -> int:
    """The inverse of _mix64 on 64-bit values: each xorshift by s >= 22 is
    undone by two more shifts, and each odd multiplier by its inverse."""
    z ^= z >> 31 ^ z >> 62
    z = z * _M2_INV & _MASK64
    z ^= z >> 27 ^ z >> 54
    z = z * _M1_INV & _MASK64
    return z ^ z >> 30 ^ z >> 60


def _limit(b: int) -> int:
    """randrange(b) keeps a draw exactly when it is below this: the largest
    multiple of b in 64 bits, or 2^64 for a power of two, which rejects nothing."""
    return _MASK64 - _MASK64 % b if b & (b - 1) else 1 << 64


@functools.cache
def _rejected_states(b: int) -> frozenset[int]:
    """The states whose draw randrange(b) rejects: since _mix64 is a
    bijection, these are the MASK % b + 1 preimages of the draws at or above
    the limit, or none for a power of two.  Bounds up to _TABLED_BOUND only."""
    if not 2 <= b <= _TABLED_BOUND:
        raise ValueError(f"rejected states are tabled for bounds 2..{_TABLED_BOUND}, got {b}")
    return frozenset(_unmix64(y) for y in range(_limit(b), 1 << 64))


@functools.cache
def _jump_table() -> dict[int, int]:
    """r / gamma + b (mod 2^64) -> the least such b, over the 849 tabled rejected states."""
    bounds = range(_TABLED_BOUND, 1, -1)
    return {(r * _GOLDEN_INV + b) & _MASK64: b for b in bounds for r in _rejected_states(b)}


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
        limit = _limit(n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / (1 << 53)

    def cycle(self, n: int, avoid: list[int], tries: int) -> list[int] | None:
        """A uniform order of range(n) read as a Hamiltonian cycle none of
        whose edges is in the adjacency masks `avoid`: the first of up to
        `tries` tries that shares no edge, or None when each one does.

        A try's draws are exactly those of a Fisher-Yates shuffle of
        list(range(n)) from the back, randrange(i + 1) for i = n-1 ... 1,
        with the step, mix, rejection test and swap inline.  Edge
        (order[i], order[i+1]) is tested once both ends are final, and
        (order[0], order[1]) and the wrap edge last; the sentinel order[n] =
        n is in no mask, so the first draw's test is always false.  After
        the first shared edge the try is lost: its draws left are jumped
        (see the module docstring) once all are at tabled bounds and none is
        rejected.  The stream ends where the whole shuffles' would.
        """
        if n < 3 or len(avoid) != n or tries < 1:
            got = f"n={n}, {len(avoid)} masks, tries={tries}"
            raise ValueError(f"cycle needs n >= 3, n masks and tries >= 1, got {got}")
        limits = [_limit(b) for b in range(1, n + 1)]
        jump = _jump_table()
        state = self._state
        places = list(range(n + 1))
        for _ in range(tries):
            order = places[:]
            shared = False
            for i in range(n - 1, 0, -1):
                while True:
                    state = (state + _GOLDEN) & _MASK64
                    z = ((state ^ (state >> 30)) * _M1) & _MASK64
                    z = ((z ^ (z >> 27)) * _M2) & _MASK64
                    z ^= z >> 31
                    if z < limits[i]:
                        break
                if not shared:
                    j = z % (i + 1)
                    order[i], order[j] = order[j], order[i]
                    shared = avoid[order[i]] >> order[i + 1] & 1
                if shared and i <= _TABLED_BOUND:
                    if jump.get((state * _GOLDEN_INV + i + 1) & _MASK64, n) > i:
                        state = (state + (i - 1) * _GOLDEN) & _MASK64
                        break
            if not (shared or avoid[order[0]] >> order[1] & 1 or avoid[order[n - 1]] >> order[0] & 1):
                self._state = state
                return order[:n]
        self._state = state
        return None


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
