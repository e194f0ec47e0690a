"""Seedable, portable pseudo-random generator.

The campaign harness must replay byte-for-byte across platforms and language
runtimes, so randomness comes from SplitMix64 (Steele, Lea and Flood's
mix function, the same one java.util.SplittableRandom uses) rather than from
random.Random, whose helper methods are not pinned across Python versions.
All derived quantities (ranges, cycle orders, coin flips) are defined here on
top of the raw 64-bit stream.

The state is a Weyl sequence, s + d * gamma after d draws from s, at stream
position s / gamma + d (mod 2^64).  A draw at a bound up to 64 is rejected
only on the 849 tabled rejected states (55 positions), so one bisect shows
whether the next W draws are clear (a window wrapping past 2^64 goes on from
0); in a clear window each draw's state is known first, and many mix at once.
"""

from __future__ import annotations

import bisect
import functools
import struct
from itertools import chain
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_M1_INV = pow(_M1, -1, 1 << 64)
_M2_INV = pow(_M2, -1, 1 << 64)
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
# the largest bound whose rejected states are tabled; draws above it are made one at a time
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
    """The states whose draw randrange(b) rejects, b <= _TABLED_BOUND: _mix64 is a bijection, so
    the MASK % b + 1 preimages of the draws from the limit up, or none for a power of two."""
    if not 2 <= b <= _TABLED_BOUND:
        raise ValueError(f"rejected states are tabled for bounds 2..{_TABLED_BOUND}, got {b}")
    return frozenset(_unmix64(y) for y in range(_limit(b), 1 << 64))


@functools.cache
def _rejected_positions() -> tuple[int, ...]:
    """The sorted stream positions r / gamma (mod 2^64) of the tabled rejected states."""
    bounds = range(2, _TABLED_BOUND + 1)
    return tuple(sorted({r * _GOLDEN_INV & _MASK64 for b in bounds for r in _rejected_states(b)}))


def _clear(state: int, count: int) -> bool:
    """Whether the next `count` draws from `state` miss every tabled rejected
    state: the first position after state's, wrapping past 2^64, is beyond them."""
    at = state * _GOLDEN_INV & _MASK64
    positions = _rejected_positions()
    i = bisect.bisect_right(positions, at)
    ahead = positions[i] if i < len(positions) else positions[0] + (1 << 64)
    return ahead > at + count


@functools.cache
def _lanes(groups: int, width: int) -> tuple[int, int, int, int, struct.Struct]:
    """groups * width 64-bit lanes, 128 bits apart so no product carries into the next:
    per lane 1, its group g and (f + 1) * gamma, the lane mask, little-endian fields."""
    fields = struct.Struct("<" + "Q8x" * groups * width)
    per_lane = [(1, g, (f + 1) * _GOLDEN & _MASK64) for g in range(groups) for f in range(width)]
    ones, index, offset = (int.from_bytes(fields.pack(*v), "little") for v in zip(*per_lane))
    return ones, index, offset, ones * _MASK64, fields


def _mixed(state: int, stride: int, groups: int, width: int) -> tuple[int, ...]:
    """Outputs at states state + (g * stride + f + 1) * gamma, g < groups, f < width, in order."""
    ones, index, offset, lanes, fields = _lanes(groups, width)
    z = ((state & _MASK64) * ones + (stride * _GOLDEN & _MASK64) * index + offset) & lanes
    z = ((z ^ z >> 30) & lanes) * _M1 & lanes
    z = ((z ^ z >> 27) & lanes) * _M2 & lanes
    return fields.unpack((z ^ z >> 31).to_bytes(16 * groups * width, "little"))


class SplitMix64:
    """SplitMix64 stream: state += golden gamma, output = mix64(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias; one 64-bit
        draw covers at most 2^64 values, so a larger n is an error, not an endless loop."""
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

    def draws(self, count: int, bound: int) -> Iterator[int] | None:
        """The next `count` outputs, mixed 32 at a time as they are read, when randrange at
        bounds up to `bound` keeps each, so x % b is its answer; else None, nothing drawn."""
        if bound > _TABLED_BOUND or not _clear(self._state, count):
            return None
        start, self._state = self._state, (self._state + count * _GOLDEN) & _MASK64
        return chain.from_iterable(_mixed(start + c * _GOLDEN, 1, 32, 1) for c in range(0, count, 32))

    def cycle(self, n: int, avoid: list[int], tries: int) -> list[int] | None:
        """A uniform order of range(n) read as a Hamiltonian cycle none of
        whose edges is in the adjacency masks `avoid`: the first of up to
        `tries` tries that shares no edge, or None when each one does.

        A try draws as a Fisher-Yates shuffle of list(range(n)) from the back,
        randrange(i + 1) for i = n-1 ... 1, and is lost at its first shared
        edge: (order[i], order[i+1]) once both ends are final (the sentinel
        order[n] = n is in no mask), then (order[0], order[1]) and the wrap
        edge.  When n <= 64 and the call's tries * (n - 1) draws are clear, try
        c starts c * (n - 1) draws in and the first 4 draws of a chunk of tries
        are mixed at once.  Otherwise draws are made one at a time.  The stream
        ends where the whole shuffles' would.
        """
        if n < 3 or len(avoid) != n or tries < 1:
            got = f"n={n}, {len(avoid)} masks, tries={tries}"
            raise ValueError(f"cycle needs n >= 3, n masks and tries >= 1, got {got}")
        places, step, start = list(range(n + 1)), n - 1, self._state
        if n <= _TABLED_BOUND and _clear(start, tries * step):
            c, groups, width = 0, 4, min(step, 4)
            while c < tries:
                lead = _mixed(start + c * step * _GOLDEN, step, groups, width)
                for g in range(min(groups, tries - c)):
                    order, i = places[:], step
                    for z in lead[g * width:(g + 1) * width]:
                        j = z % (i + 1)
                        order[i], order[j] = order[j], order[i]
                        if avoid[order[i]] >> order[i + 1] & 1:
                            break
                        i -= 1
                    else:  # the try's draws after its lead, mixed one at a time
                        at = start + (c * step + width) * _GOLDEN
                        while i:
                            at += _GOLDEN
                            j = _mix64(at) % (i + 1)
                            order[i], order[j] = order[j], order[i]
                            if avoid[order[i]] >> order[i + 1] & 1:
                                break
                            i -= 1
                        else:
                            ends = avoid[order[0]] >> order[1] & 1 or avoid[order[step]] >> order[0] & 1
                            if not ends:
                                self._state = (start + (c + 1) * step * _GOLDEN) & _MASK64
                                return order[:n]
                    c += 1
                groups = min(2 * groups, 256)
            self._state = (start + tries * step * _GOLDEN) & _MASK64
            return None
        for _ in range(tries):
            order, shared = places[:], False
            for i in range(step, 0, -1):
                j = self.randrange(i + 1)
                if not shared:
                    order[i], order[j] = order[j], order[i]
                    shared = avoid[order[i]] >> order[i + 1] & 1
            if not (shared or avoid[order[0]] >> order[1] & 1 or avoid[order[step]] >> order[0] & 1):
                return order[:n]
        return None


def derive_seed(master: int, *indices: int) -> int:
    """Child seed for a (cell, trial, ...) coordinate: each index is folded
    into the master seed through the mix function, so distinct coordinates
    give independent-looking streams, the same on every platform."""
    h = _mix64(master & _MASK64)
    for idx in indices:
        h = _mix64(h ^ ((idx & _MASK64) * _GOLDEN & _MASK64))
    return h
