"""Refined maps: face splits on twisted edges, random refinement chains,
and configuration sums that span several enumeration blocks."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holofield import loops
from holofield.covering import monodromy_marginal, verify_holo_mono
from holofield.groups import build_group, character_table, conjugacy_classes
from holofield.holonomy import (
    GConstraints,
    _gauge_fixed,
    marginal_generators,
    partition_formula,
    partition_graph,
    sample_df,
)
from holofield.levy import HeatKernel, uniform_jump_measure
from holofield.loops import EdgeWord, tame_generators
from holofield.surface import (
    SurfaceSpec,
    euler_and_genus,
    faces,
    split_face,
    standard_map,
    subdivide_edge,
)
from oracles import enumerate_H, free_basis, holonomy_of_word

G = build_group("S3")
PI = uniform_jump_measure(G)
HK = HeatKernel(PI, character_table(G))

TWISTED = [
    SurfaceSpec(False, 1, 0, 1.0),
    SurfaceSpec(False, 2, 0, 1.0),
    SurfaceSpec(False, 3, 0, 1.0),
    SurfaceSpec(False, 1, 1, 1.0, (1,)),
]


@pytest.mark.parametrize("spec", TWISTED, ids=[
    "projective plane", "klein bottle", "three cross-caps", "moebius band"])
def test_splits_across_twisted_edges(spec):
    """Every chord of the standard map's face, where the face runs along
    twisted edges: the tame system exists and closes, its holonomy law
    equals the monodromy law, and every later edge subdivision keeps
    graph = formula."""
    m = standard_map(spec)
    C = GConstraints(spec.constraints)
    zf = partition_formula(G, spec, HK)
    r = len(faces(m).cycles[0])
    for i, j in itertools.permutations(range(r), 2):
        fine, _ = split_face(m, 0, i, j, (0.3, 0.7))
        tame = tame_generators(fine)
        assert tame.relation_word(fine).darts == ()
        if not spec.constraints:
            assert verify_holo_mono(G, fine, HK, tame=tame).passed
        for d in range(fine.n_darts):
            sub, _ = subdivide_edge(fine, d)
            assert partition_graph(G, sub, C, HK) == pytest.approx(
                zf, abs=1e-12)


SURFACES = [(True, 0), (True, 2), (False, 1), (False, 2)]


@given(st.sampled_from(SURFACES), st.integers(0, 1),
       st.lists(st.tuples(st.booleans(), st.floats(0, 1), st.floats(0, 1),
                          st.floats(0, 1), st.floats(0.2, 0.8)),
                max_size=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_refinement_chains(surface, boundaries, steps):
    """Random split_face / subdivide_edge chains keep the Euler data, the
    tame relation, graph = formula and, without constraints, holonomy law
    = monodromy law."""
    orientable, genus = surface
    spec = SurfaceSpec(orientable, genus, boundaries, 1.0, (1,) * boundaries)
    m = standard_map(spec)
    euler = euler_and_genus(m)
    for split, u, v, w, share in steps:
        if split:
            fs = faces(m)
            face = min(int(u * len(fs.cycles)), len(fs.cycles) - 1)
            r = len(fs.cycles[face])
            if r < 2:
                continue
            ci = min(int(v * r), r - 1)
            cj = (ci + 1 + min(int(w * (r - 1)), r - 2)) % r
            a = m.areas[face]
            m, _ = split_face(m, face, ci, cj, (share * a, (1 - share) * a))
        else:
            m, _ = subdivide_edge(m, min(int(u * m.n_darts), m.n_darts - 1))
        chi, ori, g, p = euler_and_genus(m)
        assert (chi, ori, g, p) == euler
    tame = tame_generators(m)
    assert tame.relation_word(m).darts == ()
    C = GConstraints(spec.constraints)
    assert partition_graph(G, m, C, HK) == pytest.approx(
        partition_formula(G, spec, HK), abs=1e-10)
    if not boundaries:
        assert verify_holo_mono(G, m, HK, tame=tame).passed


def seven_letter_map():
    """Double torus with two boundaries (transpositions, 3-cycles), its
    face split twice: 6^6 * 3 * 2 = 279,936 gauge-fixed configurations."""
    spec = SurfaceSpec(True, 4, 2, 1.0, (1, 2))
    m = standard_map(spec)
    m, _ = split_face(m, 0, 0, 5)
    m, _ = split_face(m, 0, 0, 3)
    return spec, m


def test_sums_across_block_seams():
    """A sum over more than two enumeration blocks: graph = formula, the
    generator law's total = the graph sum, and exact draws keep the
    boundary classes."""
    spec, m = seven_letter_map()
    C = GConstraints(spec.constraints)
    classes = conjugacy_classes(G)
    count = _gauge_fixed(G, m, C, classes).count
    assert count == 279_936 and count > 2 * loops._BLOCK
    zg = partition_graph(G, m, C, HK)
    # the 279,936 terms are summed with exact rounding (math.fsum), which
    # lands 1.2e-15 from the formula; a left-to-right sum drifted 2.4e-12
    assert zg == pytest.approx(partition_formula(G, spec, HK), abs=1e-12)
    _, total = marginal_generators(G, m, C, free_basis(m, 0)[:2], HK)
    assert total == pytest.approx(zg, abs=1e-12)
    for config in sample_df(G, m, C, HK, seed=5, count=4):
        assert sorted(config) == m.edges()
        for circ, c in zip(m.boundary, spec.constraints):
            h = holonomy_of_word(G, m, config,
                                 EdgeWord(m.vertex_of(circ[0]), circ))
            assert classes.class_of[h] == c


def test_sample_df_memory_is_one_float_per_configuration(monkeypatch):
    """The running sum of the weights is one preallocated float array, so
    the peak allocation stays under 12 bytes per gauge-fixed configuration
    (a list of block arrays joined into a copy takes about 16)."""
    spec, m = seven_letter_map()
    C = GConstraints(spec.constraints)
    monkeypatch.setattr(loops, "_BLOCK", 1000)
    tracemalloc.start()
    try:
        sample_df(G, m, C, HK, seed=5, count=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 279_936


def test_block_size_leaves_results_unchanged(monkeypatch):
    """Every sum adds its terms in row order, so cutting the enumeration
    into more blocks changes no bit of any result."""
    spec = SurfaceSpec(False, 2, 0, 1.0)
    m, _ = split_face(standard_map(spec), 0, 0, 2, (0.4, 0.6))
    m, _ = subdivide_edge(m, 1)
    tame = tame_generators(m)
    gens = list(tame.a) + list(tame.c) + list(tame.l)
    bundle = SurfaceSpec(True, 2, 1, 1.0, (1,))

    def results():
        return (partition_graph(G, m, GConstraints(), HK),
                marginal_generators(G, m, GConstraints(), gens, HK),
                marginal_generators(G, m, GConstraints(), gens[:1]),
                sample_df(G, m, GConstraints(), HK, seed=9, count=5),
                monodromy_marginal(G, m, tame, PI),
                [t.entries() for t in enumerate_H(G, bundle, 2)])

    whole = results()
    monkeypatch.setattr(loops, "_BLOCK", 100)
    assert results() == whole
