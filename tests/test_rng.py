"""The named generator: SHA-256 label derivation over random.Random."""

import pytest

from szpit.rng import Rng

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
    (lambda: Rng(3, "hs-verify"), "0:0101", lambda r: r.point(2, 31), (10, 24)),
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


def test_bits_and_point_shapes():
    r = Rng(5, "shapes")
    assert len(r.bits(8)) == 8 and set(r.bits(32)) <= {"0", "1"}
    p = r.point(3, 4)
    assert len(p) == 3 and all(0 <= v < 4 for v in p)
