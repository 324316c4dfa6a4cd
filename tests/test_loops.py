"""Word reduction, free bases, and tame generating systems of map loops."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holofield.groups import build_group
from holofield.loops import (
    EdgeWord,
    abelian_rank,
    abelianization,
    concat,
    free_basis,
    holonomy_of_word,
    inverse,
    reduce_word,
    refine_generators,
    spanning_tree,
    tame_generators,
    validate_word,
    word_end,
)
from holofield.surface import (
    RibbonMap,
    SurfaceSpec,
    faces,
    split_face,
    standard_map,
    subdivide_edge,
)


def torus_map():
    return RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1))


def theta_map():
    return RibbonMap((1, 0, 3, 2, 5, 4), (2, 5, 4, 1, 0, 3), (1,) * 6)


MAPS = [
    ("torus", torus_map()),
    ("theta", theta_map()),
    ("klein", standard_map(SurfaceSpec(False, 2, 0, 1.0))),
    ("disk", standard_map(SurfaceSpec(True, 0, 1, 1.0, (0,)))),
    ("pair of pants", standard_map(SurfaceSpec(True, 0, 3, 1.0, (0, 0, 0)))),
    ("one-holed torus", standard_map(SurfaceSpec(True, 2, 1, 1.0, (0,)))),
    ("genus two", standard_map(SurfaceSpec(True, 4, 0, 1.0))),
]


def random_walk(m, base, length, rng):
    """A random word chaining head-to-tail from base."""
    darts = []
    at = base
    for _ in range(length):
        d = rng.choice(sorted(m.vertex_cycles()[at]))
        darts.append(d)
        at = m.vertex_of(m.alpha[d])
    return EdgeWord(base, tuple(darts))


@given(st.integers(0, 10**9), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_reduce_idempotent_and_endpoint_preserving(seed, length):
    m = theta_map()
    rng = random.Random(seed)
    w = random_walk(m, 0, length, rng)
    r = reduce_word(m, w)
    validate_word(m, r)
    assert word_end(m, r) == word_end(m, w)
    assert reduce_word(m, r) == r
    assert abelianization(m, r) == abelianization(m, w)


@given(st.integers(0, 10**9), st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_word_times_inverse_reduces_to_nothing(seed, length):
    m = torus_map()
    rng = random.Random(seed)
    w = random_walk(m, 0, length, rng)
    r = reduce_word(m, concat(m, w, inverse(m, w)))
    assert r.darts == ()
    assert r.base == w.base


def test_concat_endpoint_mismatch_raises():
    m = theta_map()
    w1 = EdgeWord(0, (0,))
    w2 = EdgeWord(0, (2,))
    with pytest.raises(Exception):
        concat(m, w1, w2)


@pytest.mark.parametrize("name,m", MAPS)
def test_free_basis_rank(name, m):
    base = 0
    basis = free_basis(m, base)
    expected = m.n_edges - m.n_vertices + 1
    assert len(basis) == expected
    for w in basis:
        validate_word(m, w)
        assert w.base == base and word_end(m, w) == base
        assert reduce_word(m, w) == w
    assert abelian_rank(m, basis) == expected


def test_spanning_tree_avoids_forbidden_edges():
    m = standard_map(SurfaceSpec(True, 0, 3, 1.0, (0, 0, 0)))
    default = spanning_tree(m)
    forbidden = {next(e for e in m.edges() if e not in default)}
    tree = spanning_tree(m, forbidden)
    assert not (tree & forbidden)
    assert len(tree) == m.n_vertices - 1


@pytest.mark.parametrize("name,m", MAPS)
def test_tame_generator_counts_and_relation(name, m):
    from holofield.surface import euler_and_genus

    tame = tame_generators(m)
    fs = faces(m)
    p = len(m.boundary)
    chi, ori, g, p2 = euler_and_genus(m)
    assert p2 == p
    # g is the reduced genus: twice the handle count when orientable
    assert len(tame.a) == g
    assert len(tame.c) == p
    assert len(tame.l) == len(fs.cycles)
    for w in tame.a + tame.c + tame.l:
        validate_word(m, w)
        assert w.base == tame.base and word_end(m, w) == tame.base
    assert tame.relation_word(m).darts == ()


@pytest.mark.parametrize("name,m", MAPS)
def test_tame_generators_dropping_last_face_is_a_basis(name, m):
    tame = tame_generators(m)
    gens = tame.generators_dropping_last_face()
    expected = m.n_edges - m.n_vertices + 1
    assert len(gens) == expected
    assert abelian_rank(m, gens) == expected


def test_tame_generators_on_subdivided_map():
    m, _ = subdivide_edge(torus_map(), 0)
    tame = tame_generators(m)
    assert tame.relation_word(m).darts == ()
    assert len(tame.a) == 2 and len(tame.l) == 1


def test_refine_generators_after_face_split():
    m = torus_map()
    tame = tame_generators(m)
    fine, cont = split_face(m, 0, 0, 2)
    refined = refine_generators(tame, m, fine, 0, cont)
    assert len(refined.l) == 2
    assert refined.relation_word(fine).darts == ()
    # the coarse facial lasso is the product of the two refined ones
    prod = reduce_word(fine, concat(fine, *refined.l))
    coarse_l = reduce_word(fine, tame.l[0])
    assert prod == coarse_l


def test_refine_generators_twice():
    m = torus_map()
    tame = tame_generators(m)
    fine, cont = split_face(m, 0, 0, 2)
    tame = refine_generators(tame, m, fine, 0, cont)
    finer, cont2 = split_face(fine, 0, 0, 1)
    tame = refine_generators(tame, fine, finer, 0, cont2)
    assert len(tame.l) == 3
    assert tame.relation_word(finer).darts == ()


def test_refined_generators_keep_the_spanning_tree():
    m = torus_map()
    tame = tame_generators(m)
    fine, cont = split_face(m, 0, 0, 2)
    refined = refine_generators(tame, m, fine, 0, cont)
    assert refined.tree == tame.tree
    assert len(refined.tree) == fine.n_vertices - 1


def test_holonomy_multiplicative_and_inverse():
    G = build_group("S3")
    m = theta_map()
    rng = random.Random(7)
    config = {e: rng.randrange(G.n) for e in m.edges()}
    w1 = random_walk(m, 0, 9, rng)
    w2 = random_walk(m, word_end(m, w1), 6, rng)
    h1 = holonomy_of_word(G, m, config, w1)
    h2 = holonomy_of_word(G, m, config, w2)
    assert holonomy_of_word(G, m, config, concat(m, w1, w2)) == G.mul[h1][h2]
    assert holonomy_of_word(G, m, config, inverse(m, w1)) == G.inv[h1]


def test_holonomy_invariant_under_reduction():
    G = build_group("S4")
    m = standard_map(SurfaceSpec(True, 2, 1, 1.0, (0,)))
    rng = random.Random(11)
    config = {e: rng.randrange(G.n) for e in m.edges()}
    for _ in range(50):
        w = random_walk(m, 0, rng.randrange(30), rng)
        assert holonomy_of_word(G, m, config, w) == holonomy_of_word(
            G, m, config, reduce_word(m, w))


def test_tame_relation_holonomy_is_identity():
    """The single relation holds for every holonomy configuration, so the
    generator holonomies always satisfy w(a) c_1..c_p = l_1..l_f."""
    G = build_group("S3")
    m = standard_map(SurfaceSpec(True, 2, 1, 1.0, (0,)))
    tame = tame_generators(m)
    rng = random.Random(3)
    for _ in range(30):
        config = {e: rng.randrange(G.n) for e in m.edges()}
        assert holonomy_of_word(G, m, config, tame.relation_word(m)) == 0
        lhs = 0
        for i, s in tame.w:
            x = holonomy_of_word(G, m, config, tame.a[i])
            lhs = G.mul[lhs][x if s == 1 else G.inv[x]]
        for c in tame.c:
            lhs = G.mul[lhs][holonomy_of_word(G, m, config, c)]
        rhs = 0
        for l in tame.l:
            rhs = G.mul[rhs][holonomy_of_word(G, m, config, l)]
        assert lhs == rhs
