"""The named generator: SHA-256 label derivation over random.Random."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from szpit.rng import BATCH, Rng

from helpers import random_bits
from oracles import derive_seed


def test_same_path_same_stream():
    a = Rng(42, "x").split("y")
    b = Rng(42, "x", "y")
    assert [a.randrange(100) for _ in range(5)] == [b.randrange(100) for _ in range(5)]


def test_sibling_streams_differ():
    root = Rng(42, "x")
    assert root.split("a").randrange(1 << 30) != root.split("b").randrange(1 << 30)


def test_split_is_interleaving_independent():
    r1 = Rng(7)
    c1 = r1.split("child")
    _ = r1.randrange(1000)  # draws on the parent do not disturb the child
    r2 = Rng(7)
    _ = r2.randrange(1000)
    c2 = r2.split("child")
    assert [c1.randrange(10) for _ in range(4)] == [c2.randrange(10) for _ in range(4)]


def test_derive_seed_stable():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "ab")


# Values drawn with the generator seeded when the stream was made; seeding
# on the first draw must give the same ones.
PINNED = [
    (lambda: Rng(42, "x"), "y", lambda r: r.randrange(1 << 30), 907013164),
    (lambda: Rng(3, "hs-verify"), "0:0101", lambda r: next(r.points(2, 31, 1)), (10, 24)),
]


@pytest.mark.parametrize("parent, label, draw, want", PINNED)
def test_pinned_child_streams(parent, label, draw, want):
    assert draw(parent().split(label)) == want
    drawn = parent()
    drawn.randrange(1000)  # a parent that already drew splits the same child
    assert draw(drawn.split(label)) == want


def test_split_without_a_draw_seeds_nothing():
    child = Rng(42, "x").split("y")
    assert "_random" not in vars(child)
    child.randrange(2)
    assert "_random" in vars(child)


def test_split_hashes_its_label_at_its_first_draw_or_split():
    child = Rng(42, "x").split("y")
    assert "_path_hash" not in vars(child)
    grandchild = child.split("z")
    assert "_path_hash" in vars(child) and "_path_hash" not in vars(grandchild)
    streams = [(grandchild, ("x", "y", "z")), (child.split("w").split("v"), ("x", "y", "w", "v"))]
    for stream, labels in streams:
        want = random.Random(derive_seed(42, *labels))
        assert [stream.randrange(1 << 40) for _ in range(3)] == [want.randrange(1 << 40) for _ in range(3)]


@pytest.mark.parametrize("parent, label, draw, want", PINNED)
def test_a_callable_label_is_formatted_at_the_first_draw(parent, label, draw, want):
    # The child of a callable label draws the stream of the label it
    # returns, and calls it once, at its first hash; a child that never
    # draws never calls it.
    calls = []

    def late():
        calls.append(label)
        return label

    parent().split(late)  # never draws
    child = parent().split(late)
    assert calls == []
    assert draw(child) == want
    child.split("more").randrange(2)
    assert calls == [label] and child.labels[-1] == label


def test_bits_and_point_shapes():
    r = Rng(5, "shapes")
    assert 0 <= random_bits(r, 8) < 1 << 8 and 0 <= random_bits(r, 32) < 1 << 32
    (p,) = r.points(3, 4, 1)
    assert len(p) == 3 and all(0 <= v < 4 for v in p)


# q = 2^k + 1 rejects about half of its draws; q > 2^32 takes more than one
# 32-bit word per draw.
MODULI = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(1, 40).flatmap(lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1])),
    st.integers((1 << 32) + 1, 1 << 80),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(q=MODULI, n=st.integers(0, 4), count=st.integers(0, 40), seed=st.integers(0, 1 << 16))
def test_point_and_points_are_randrange_draws(q, n, count, seed):
    ref = random.Random(derive_seed(seed, "draws"))
    want = tuple(tuple(ref.randrange(q) for _ in range(n)) for _ in range(count))
    batch, single = Rng(seed, "draws"), Rng(seed, "draws")
    assert tuple(batch.points(n, q, count)) == want
    assert tuple(next(single.points(n, q, 1)) for _ in range(count)) == want
    assert batch._random.getstate() == single._random.getstate() == ref.getstate()


def test_draws_fail_only_when_something_is_drawn():
    r = Rng(5, "empty")
    assert tuple(r.points(0, 0, 1)) == ((),) and tuple(r.points(0, 0, 3)) == ((), (), ())
    assert tuple(r.points(2, 0, 0)) == ()
    with pytest.raises(ValueError):
        random.Random(0).randrange(0)
    # The call itself raises, before any point is taken.
    for bad in (lambda: r.points(1, 0, 1), lambda: r.points(2, -3, 1), lambda: r.points(1, 0, 40)):
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize("count", [15, 16, 17, 32, 33])
@pytest.mark.parametrize("q", [5, 1 << 8, (1 << 40) + 3])
def test_points_across_batch_boundaries(q, count):
    # Taken in full, the points are n * count randrange draws and leave the
    # generator where those draws leave it; taken in part, they are a prefix.
    n = 3
    ref = random.Random(derive_seed(11, "batches"))
    want = [tuple(ref.randrange(q) for _ in range(n)) for _ in range(count)]
    full = Rng(11, "batches")
    assert list(full.points(n, q, count)) == want
    assert full._random.getstate() == ref.getstate()
    for taken in (1, BATCH - 1, BATCH, BATCH + 1, count - 1):
        part = Rng(11, "batches").points(n, q, count)
        assert [next(part) for _ in range(min(taken, count))] == want[:taken]
