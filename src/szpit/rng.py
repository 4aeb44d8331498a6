"""Seeded, splittable randomness.

The generator is named: SHA-256 label derivation over Python's Mersenne
Twister (``random.Random``).  A root seed plus a path of string labels
determines every stream, so fixed seeds give byte-identical outputs
regardless of call interleaving or thread count, and independent subsystems
can split off their own streams without coordinating.
"""

from __future__ import annotations

import hashlib
import random


def _path_hash(seed: int, labels):
    """The SHA-256 state after a root seed and a label path."""
    h = hashlib.sha256(str(seed).encode())
    for label in labels:
        h.update(b"/" + label.encode())
    return h


class Rng:
    """A seedable stream that can split off independent child streams.

    It keeps the hash state of its path, so a split hashes only its own
    label, and seeds its generator only on the first draw.
    """

    def __init__(self, seed: int, *labels: str):
        self._start(seed, labels, _path_hash(seed, labels))

    def _start(self, seed: int, labels, path_hash) -> None:
        self.seed = seed
        self.labels = labels
        self._path_hash = path_hash

    def __getattr__(self, name: str):
        # Reached only while ``_random`` is not yet in the instance dict.
        if name != "_random":
            raise AttributeError(name)
        self._random = random.Random(int.from_bytes(self._path_hash.digest()[:8], "big"))
        return self._random

    def split(self, label: str) -> "Rng":
        path_hash = self._path_hash.copy()
        path_hash.update(b"/" + label.encode())
        child = Rng.__new__(Rng)
        child._start(self.seed, (*self.labels, label), path_hash)
        return child

    def randrange(self, stop: int) -> int:
        return self._random.randrange(stop)

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def choice(self, seq):
        return seq[self._random.randrange(len(seq))]

    def point(self, n: int, q: int) -> tuple:
        """A uniform point of S_q^n."""
        return tuple(self._random.randrange(q) for _ in range(n))

    def bits(self, m: int) -> str:
        return "".join("01"[self._random.randrange(2)] for _ in range(m))
