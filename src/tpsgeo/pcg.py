"""numpy's default generator in plain integer arithmetic: PCG64 (O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good Algorithms
for Random Number Generation", HMC-CS-2014-0905) seeded through numpy's
SeedSequence.  PCG64(seed).uniform(low, high, size) gives the same float64
array, bit for bit, as numpy.random.default_rng(seed).uniform(low, high,
size), so the suites draw numpy's sample points without loading
numpy.random, and the points stay the same when a numpy release changes
its Generator algorithms."""

from __future__ import annotations

import math

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's constants: the entropy pool of POOL 32-bit words is
# hashed with (INIT_A, MULT_A) and read out with (INIT_B, MULT_B)
POOL = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: xor the running constant into a word, step
    the constant, multiply by the stepped constant and fold the high half
    down, all mod 2**32."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    out = (MIX_L * x - MIX_R * y) & _M32
    return out ^ out >> 16


def seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, numpy.uint64) for an int seed
    >= 0."""
    # the seed's 32-bit words, least significant first; 0 is one word
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (POOL - len(entropy))
    hashmix = _hasher(INIT_A, MULT_A)
    pool = [hashmix(word) for word in entropy[:POOL]]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL:]:
        for dst in range(POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(INIT_B, MULT_B)
    out = [hashmix(pool[i % POOL]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The 128-bit LCG state and increment of numpy's PCG64(seed); each
    output steps the state and returns its XSL-RR 64-bit digest."""

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = seed_words(seed)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # pcg64_srandom_r: step from state 0, add the seed, step again
        self.state = (self.inc + (s_hi << 64 | s_lo)) * MULTIPLIER + self.inc & _M128

    def doubles(self, count: int) -> list[float]:
        """The next count doubles in [0, 1): the top 53 bits of each
        output, times 2**-53."""
        state, inc, out = self.state, self.inc, []
        for _ in range(count):
            state = (state * MULTIPLIER + inc) & _M128
            rot = state >> 122
            x = (state >> 64 ^ state) & _M64
            x = (x >> rot | x << (64 - rot)) & _M64
            out.append((x >> 11) * 2.0**-53)
        self.state = state
        return out

    def uniform(self, low, high, size: tuple[int, ...]) -> np.ndarray:
        """Generator.uniform for finite bounds with low <= high: low +
        (high - low) * u in C order, where low and high broadcast against
        size (a scalar, or one bound per column)."""
        u = np.array(self.doubles(math.prod(size))).reshape(size)
        low = np.asarray(low, dtype=float)
        return low + (np.asarray(high, dtype=float) - low) * u
