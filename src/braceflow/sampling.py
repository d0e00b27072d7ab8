"""Seeded pseudo-random scalars and vectors for the exact check suites.

Every randomized check in the package draws from a ``random.Random``
seeded with an explicit value (DEFAULT_SEED unless overridden), so runs
are reproducible byte for byte.
"""

import random

from fractions import Fraction

from .linalg import Vec

DEFAULT_SEED = 1729


def rng_from(seed):
    return random.Random(DEFAULT_SEED if seed is None else seed)


def random_scalar(field, rng):
    if field.characteristic == 0:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return field.of(rng.randrange(field.characteristic))


def random_vec(field, dim, rng):
    # random_scalar already returns canonical scalars of the field
    return Vec._trusted(field, tuple(random_scalar(field, rng) for _ in range(dim)))
