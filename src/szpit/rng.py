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
from itertools import chain
from typing import Callable, Iterable, Iterator, Union

# The most points ``Rng.points`` draws from the generator at once.
BATCH = 16


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
    draw.  A label given to :meth:`split` as a zero-argument callable is
    called then, so a child that never draws never formats its label.
    """

    def __init__(self, seed: int, *labels: str):
        self.labels = labels
        self._path_hash = _path_hash(seed, labels)

    def __getattr__(self, name: str):
        # Reached only while the attribute is not yet in the instance dict.
        if name == "_path_hash":
            if callable(self.labels[-1]):
                self.labels = (*self.labels[:-1], self.labels[-1]())
            value = self._parent_hash.copy()
            value.update(b"/" + self.labels[-1].encode())
        elif name == "_random":
            value = random.Random(int.from_bytes(self._path_hash.digest()[:8], "big"))
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def split(self, label: Union[str, Callable[[], str]]) -> "Rng":
        """The child at ``label``: a str, or a callable that returns one."""
        child = Rng.__new__(Rng)
        child.labels = (*self.labels, label)
        child._parent_hash = self._path_hash  # only ever copied, never updated
        return child

    def randrange(self, stop: int) -> int:
        return self._random.randrange(stop)

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def points(self, n: int, q: int, count: int) -> Iterator[tuple]:
        """``count`` uniform points of S_q^n, drawn lazily in batches of at
        most ``BATCH`` points.  Each coordinate is drawn as ``randrange(q)``
        draws it, with getrandbits(|q|) again while the value is >= q, so
        the values, and the generator state once every point is taken, are
        those of n * count ``randrange(q)`` calls.  An empty range raises
        here, not at the first point."""
        if n * count and q < 1:
            raise ValueError(f"empty range for a coordinate: q = {q}")
        sizes = (min(BATCH, count - start) for start in range(0, count, BATCH))
        return chain.from_iterable(self._batch(n, q, size) for size in sizes)

    def _batch(self, n: int, q: int, count: int) -> Iterable[tuple]:
        getrandbits = self._random.getrandbits
        k = q.bit_length()
        need, coords = n * count, []
        while len(coords) < need:  # rejection keeps order: draw only the missing ones
            coords += [v for v in [getrandbits(k) for _ in range(need - len(coords))] if v < q]
        return zip(*[iter(coords)] * n) if n else ((),) * count
