"""Deterministic seed derivation for reproducible multi-stream experiments."""

import zlib

import numpy as np


def derived_seed(*parts):
    """Mix ints and strings into one well-spread integer seed."""
    entropy = [zlib.crc32(p.encode()) if isinstance(p, str) else int(p)
               for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
