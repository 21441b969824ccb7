"""Portable deterministic random number generation.

Everything random in this package (synthetic data, weight init, batch
sampling) flows through ``Xoshiro256StarStar`` so that a given seed
reproduces the same stream on any platform and in any port of the code.
numpy's generators are deliberately not used for anything that affects
output artifacts.

The recipe, fixed for reproducibility:

* State: four 64-bit words produced by four successive splitmix64 steps
  applied to the user seed (mod 2^64).
* Core step: xoshiro256** (Blackman & Vigna), returning 64-bit words.
* ``random()``: top 53 bits of one word, scaled by 2^-53 -> [0, 1).
* ``normal()``: one Box-Muller cosine deviate per pair of words
  (u1 in (0, 1] to keep the log finite; the sine companion is discarded
  to keep the procedure stateless).
* ``randrange(n)``: rejection sampling below the largest multiple of n,
  so bounded integers are exactly uniform.
* ``shuffle``: descending Fisher-Yates; ``sample``: partial ascending
  Fisher-Yates over index lists.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding, pure-Python 64-bit arithmetic."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        state = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            state.append(word)
        self._s = state

    def next_u64(self) -> int:
        # rotl(x, k) written out as ((x << k) | (x >> (64 - k))) & _MASK64
        s = self._s
        s0, s1, s2, s3 = s
        scrambled = (s1 * 5) & _MASK64
        result = ((((scrambled << 7) | (scrambled >> 57)) & _MASK64) * 9) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s[0] = s0 ^ s3
        s[1] = s1 ^ s2
        s[2] = s2 ^ ((s1 << 17) & _MASK64)
        s[3] = ((s3 << 45) | (s3 >> 19)) & _MASK64
        return result

    def getstate(self) -> tuple[int, ...]:
        """The four state words: generators in equal states draw equal streams."""
        return tuple(self._s)

    def random(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal deviate (Box-Muller, cosine branch)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, count: int) -> np.ndarray:
        """count normal() deviates as float64, allocated before the first draw."""
        return np.fromiter((self.normal() for _ in range(count)), np.float64, count)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        limit = (2**64 // n) * n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle (descending)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        idx = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]
