"""Seeded pseudo-random scalars and vectors for the exact check suites.

Every randomized check in the package draws from a ``random.Random``
seeded with an explicit value (DEFAULT_SEED unless overridden), so runs
are reproducible byte for byte.  ``random_ints`` is the one draw path:
the int kernels take its (ints, den) as they are, and ``random_vec``
builds canonical scalars from the same draws.
"""

import random

from .linalg import Vec

DEFAULT_SEED = 1729


def rng_from(seed):
    return random.Random(DEFAULT_SEED if seed is None else seed)


def random_ints(field, dim, rng):
    """``dim`` draws as (ints, den): over Q each Fraction(randint(-6, 6),
    randint(1, 4)) written over 12, over GF(p) randrange(p) over 1."""
    p = field.characteristic
    if p:
        return [rng.randrange(p) for _ in range(dim)], 1
    return [12 * rng.randint(-6, 6) // rng.randint(1, 4) for _ in range(dim)], 12


def random_vec(field, dim, rng):
    return Vec._trusted(field, field.from_ints(*random_ints(field, dim, rng)))
