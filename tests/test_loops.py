"""Word reduction, free bases, and tame generating systems of map loops."""

import hashlib
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holofield.groups import build_group
from holofield.loops import (
    EdgeWord,
    holonomy_of_steps,
    spanning_tree,
    tame_generators,
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
from oracles import (
    abelian_rank,
    abelianization,
    concat,
    free_basis,
    holonomy_of_word,
    inverse,
    reduce_word,
    refine_generators,
    validate_word,
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
    gens = list(tame.a) + list(tame.c) + list(tame.l[:-1])
    expected = m.n_edges - m.n_vertices + 1
    assert len(gens) == expected
    assert abelian_rank(m, gens) == expected


def test_tame_generators_on_subdivided_map():
    m, _ = subdivide_edge(torus_map(), 0)
    tame = tame_generators(m)
    assert tame.relation_word(m).darts == ()
    assert len(tame.a) == 2 and len(tame.l) == 1


def split_torus():
    m, _ = split_face(standard_map(SurfaceSpec(True, 2, 0, 1.0)), 0, 0, 2)
    return m


def split_subdivided_klein():
    m, _ = split_face(standard_map(SurfaceSpec(False, 2, 0, 1.0)), 0, 0, 1)
    return subdivide_edge(m, 0)[0]


def subdivided_pants():
    m = standard_map(SurfaceSpec(True, 0, 3, 1.0, (0, 0, 0)))
    return subdivide_edge(m, m.boundary[0][0])[0]


# (map, {field: value}) with every word written as its darts from base 0
GOLDEN = [
    (split_torus, {
        "a": [(2,), (4,)], "c": [], "c_meta": [],
        "l": [(3, 4, 2, 5, 0, 5, 2), (3, 4, 1)], "face_of_l": [0, 1],
        "w": [(0, -1), (1, 1), (0, 1), (1, -1)],
        "conj": [(4, 3, 5, 2), (5, 2)]}),
    (split_subdivided_klein, {
        "a": [(2,), (4,)], "c": [], "c_meta": [],
        "l": [(5, 3, 3, 5, 0, 7, 2, 2, 4), (5, 3, 3, 1, 6)],
        "face_of_l": [0, 1], "w": [(1, -1), (0, -1), (0, -1), (1, -1)],
        "conj": [(4, 2, 2, 4), (2, 2, 4)]}),
    (subdivided_pants, {
        "a": [], "c": [(0, 2, 13, 1), (4, 6, 5), (8, 10, 9)],
        "c_meta": [(0, 1), (1, 1), (2, 1)],
        "l": [(0, 2, 13, 1, 4, 6, 5, 8, 10, 9)], "face_of_l": [0], "w": [],
        "conj": [(8, 11, 9, 4, 7, 5, 0, 3, 12, 1)]}),
]


@pytest.mark.parametrize("build,expected", GOLDEN,
                         ids=[b.__name__ for b, _ in GOLDEN])
def test_tame_generators_exact_words(build, expected):
    """The exact tame system on three refined maps: the byte-stable output
    of the tame and holo-mono checks depends on these words, not only on
    their properties."""
    tame = tame_generators(build())
    words = ("a", "c", "l", "conj")
    assert all(w.base == 0 for f in words for w in getattr(tame, f))
    got = {f: [w.darts for w in getattr(tame, f)] for f in words}
    got.update((f, getattr(tame, f)) for f in ("c_meta", "face_of_l", "w"))
    assert got == expected


def standard_sweep():
    """(map, is standard) for the 24 standard maps, orientable of reduced
    genus 0, 2, 4, 6 and non-orientable of genus 1-4, each with 0-2
    boundaries, each followed by the ends of two seeded chains of 1-3
    random face splits and edge subdivisions."""
    for ori, genera in ((True, (0, 2, 4, 6)), (False, (1, 2, 3, 4))):
        for g in genera:
            for p in range(3):
                m0 = standard_map(SurfaceSpec(ori, g, p, 1.0, (0,) * p))
                yield m0, True
                for seed in range(2):
                    rng = random.Random(1000 * ori + 100 * g + 10 * p + seed)
                    m = m0
                    for _ in range(rng.randint(1, 3)):
                        cycles = faces(m).cycles
                        f = rng.randrange(len(cycles))
                        if rng.random() < 0.5 and len(cycles[f]) > 1:
                            i, j = rng.sample(range(len(cycles[f])), 2)
                            m = split_face(m, f, i, j)[0]
                        else:
                            m = subdivide_edge(m, rng.randrange(m.n_darts))[0]
                    yield m, False


# sha256 of the sweep's tame systems and refinements: reduced words are
# unique, so every construction of the same system gives this digest
SWEEP_DIGEST = (
    "6f044578928458c96d9687dfc48f93dddaeb1f951d845d12ddc622a301a2a14d")


def test_tame_and_refined_systems_over_a_sweep_are_pinned():
    """Every TameGenerators field on the sweep's 72 maps, and the refined
    system at every corner pair of every face of the 24 standard maps."""
    digest = hashlib.sha256()

    def record(tame):
        digest.update(repr([getattr(tame, f.name) for f in fields(tame)])
                      .encode())

    for m, standard in standard_sweep():
        tame = tame_generators(m)
        record(tame)
        for f, cyc in enumerate(faces(m).cycles if standard else ()):
            for i in range(len(cyc)):
                for j in range(i + 1, len(cyc)):
                    fine, cont = split_face(m, f, i, j)
                    record(refine_generators(
                        tame, m, fine, tame.face_of_l.index(f), cont))
    assert digest.hexdigest() == SWEEP_DIGEST


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


@pytest.mark.parametrize("name", ["Z3", "S3", "Q8", "S4"])
def test_holonomy_of_steps_agrees_on_dicts_tuples_and_blocks(name):
    """A word's holonomy on one configuration, given as a dict or as a
    tuple, is a Python int, the identity for the empty word, and equals
    that configuration's column of a block; the fold of the table agrees
    with all three."""
    G = build_group(name)
    rng = random.Random(name)
    letters, columns = 5, 40
    block = np.array([[rng.randrange(G.n) for _ in range(columns)]
                      for _ in range(letters)])
    for length in (0, 1, 2, 7, 19):
        steps = [(rng.randrange(letters), rng.random() < 0.5)
                 for _ in range(length)]
        out = holonomy_of_steps(G, steps, block)
        assert out.shape == (columns,)
        for j, values in enumerate(block.T.tolist()):
            expected = 0
            for e, rev in steps:
                x = values[e]
                expected = G.mul[expected][G.inv[x] if rev else x]
            as_tuple = holonomy_of_steps(G, steps, tuple(values))
            as_dict = holonomy_of_steps(G, steps, dict(enumerate(values)))
            assert type(as_tuple) is int and type(as_dict) is int
            assert as_tuple == as_dict == out[j] == expected
            if not steps:
                assert as_tuple == 0


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
