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
* ``normals(count)``: one Box-Muller cosine deviate per pair of words
  (u1 in (0, 1] to keep the log finite; the sine companion is discarded
  to keep the procedure stateless), read through ``words``.
* ``randrange(n)``: rejection sampling below the largest multiple of n,
  so bounded integers are exactly uniform.
* ``shuffle``: descending Fisher-Yates; ``sample``: partial ascending
  Fisher-Yates over index lists.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_LANE_CUTOVER, _LANE = 4096, 128  # see Xoshiro256StarStar.words
_NORMALS_CHUNK = 16384  # deviates per words() call in Xoshiro256StarStar.normals


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _step(s: list) -> int | np.ndarray:
    """One xoshiro256** step, in place, of four ints or uint64 arrays; returns the word."""
    # rotl(x, k) written out as ((x << k) | (x >> (64 - k))) & _MASK64
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


def _jump(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 states times a GF(2) matrix, given as the (256, 4) states
    that it maps the basis states to: the XOR of those of each set bit."""
    table = np.zeros((32, 256, 4), np.uint64)  # byte b's 256 values -> XOR of its rows
    for t in range(8):
        table[:, 1 << t:2 << t] = table[:, :1 << t] ^ matrix.reshape(32, 8, 1, 4)[:, t]
    return np.bitwise_xor.reduce(table[np.arange(32), states.astype("<u8").view(np.uint8)], axis=1)


@functools.cache
def _power(steps: int) -> np.ndarray:
    """The (256, 4) states that a power of two steps take the basis states to."""
    if steps == 1:
        basis = list(np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8").T)
        _step(basis)
        return np.stack(basis, axis=1)
    return _jump(_power(steps // 2), _power(steps // 2))


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
        return _step(self._s)

    def words(self, count: int) -> np.ndarray:
        """The next count words as uint64, as count next_u64 calls draw them;
        from _LANE_CUTOVER on, in _LANE-word lanes that start _power jumps apart."""
        if count < _LANE_CUTOVER:
            return np.fromiter((self.next_u64() for _ in range(count)), np.uint64, count)
        lanes = -(-count // _LANE)
        starts = np.array([self._s], np.uint64)
        while len(starts) < lanes:  # lanes [m, 2m) start m lanes on from [0, m)
            starts = np.concatenate([starts, _jump(_power(len(starts) * _LANE), starts)])
        state = list(starts[:lanes].T)
        out = np.empty((lanes, _LANE), np.uint64)
        for t in range(_LANE):
            out[:, t] = _step(state)
            if t == (count - 1) % _LANE:  # the last lane's last word that counts
                self._s = [int(s[-1]) for s in state]
        return out.reshape(-1)[:count]

    def getstate(self) -> tuple[int, ...]:
        """The four state words: generators in equal states draw equal streams."""
        return tuple(self._s)

    def setstate(self, state: tuple[int, ...]) -> None:
        """Go on from getstate()'s words."""
        self._s = list(state)

    def random(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (_step(self._s) >> 11) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """count standard normal deviates (Box-Muller), allocated before the first draw."""
        out = np.empty(count)
        for start in range(0, count, _NORMALS_CHUNK):
            w = self.words(2 * min(_NORMALS_CHUNK, count - start)).reshape(-1, 2) >> np.uint64(11)
            u1 = ((w[:, 0] + np.uint64(1)) * 2.0**-53).tolist()  # (0, 1], exact
            u2 = (w[:, 1] * 2.0**-53).tolist()
            # math, not numpy's SIMD log and cos, which may round otherwise on another CPU
            out[start:start + len(u1)] = [math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
                                          for a, b in zip(u1, u2)]
        return out

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
