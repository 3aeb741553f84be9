"""Deterministic 64-bit PRNG for seeded sampling.

SplitMix64 is small enough to pin down exactly, so reports are reproducible
byte for byte across platforms and Python versions; the stdlib generator is
deliberately avoided.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def checked_seed(seed: int) -> int:
    """A seed the generator reads as it is: one in [0, 2**64).  A wider or
    negative one would alias another seed, so it is refused."""
    if not 0 <= seed <= _MASK:
        raise ValueError("seed must lie in [0, 2**64), got %d" % seed)
    return seed


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection on the SplitMix64 outputs."""
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            self.state = z = (self.state + 0x9E3779B97F4A7C15) & _MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                return z % n

    def distinct_integers(self, count: int, lo: int, hi: int) -> list[int]:
        out: list[int] = []
        seen = set()
        while len(out) < count:
            x = lo + self.below(hi - lo + 1)
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out
