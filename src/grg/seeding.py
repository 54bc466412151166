"""Deterministic seed derivation for parallel replications.

Every replication of an experiment gets its own 64-bit seed derived from
the master seed and the replication index with a fixed integer hash
(splitmix64).  Derived seeds are independent of scheduling order, so a
run is reproducible no matter how replications are distributed over
workers.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden-ratio increment and mix."""
    x = (x + _GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a replication index into a master seed.

    The high bit set on the index term keeps index 0 from collapsing to
    a plain rehash of the master seed.
    """
    return splitmix64(splitmix64(master_seed & _MASK)
                      ^ splitmix64((index & _MASK) | 0x8000000000000000))
