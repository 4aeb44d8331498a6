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
    label.  A child keeps its parent's state and hashes its label at its
    first draw or split, and a stream seeds its generator at its first
    draw.
    """

    def __init__(self, seed: int, *labels: str):
        self.seed = seed
        self.labels = labels
        self._path_hash = _path_hash(seed, labels)

    def __getattr__(self, name: str):
        # Reached only while the attribute is not yet in the instance dict.
        if name == "_path_hash":
            value = self._parent_hash.copy()
            value.update(b"/" + self.labels[-1].encode())
        elif name == "_random":
            value = random.Random(int.from_bytes(self._path_hash.digest()[:8], "big"))
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def split(self, label: str) -> "Rng":
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child.labels = (*self.labels, label)
        child._parent_hash = self._path_hash  # only ever copied, never updated
        return child

    def randrange(self, stop: int) -> int:
        return self._random.randrange(stop)

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def choice(self, seq):
        return seq[self._random.randrange(len(seq))]

    def point(self, n: int, q: int) -> tuple:
        """A uniform point of S_q^n."""
        randrange = self._random.randrange
        return tuple([randrange(q) for _ in range(n)])
