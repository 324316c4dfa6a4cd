"""Ramified covering enumeration, exact counting, bundle masses, sampling,
and agreement between field holonomy laws and covering monodromy laws."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from holofield.covering import (
    MonodromyTuple,
    aut_order,
    bb_mass,
    bb_mass_fixed_k,
    canonical_word,
    conjugation_orbits,
    counting_check,
    enumerate_H,
    evaluate_word,
    monodromy_marginal,
    sample_covering,
    twist_mass_contraction,
    verify_holo_mono,
)
from holofield.groups import build_group, character_table, conjugacy_classes
from holofield.holonomy import CapExceeded, partition_formula
from holofield.levy import (
    HeatKernel,
    uniform_jump_measure,
)
from holofield.surface import RibbonMap, SurfaceSpec, standard_map


def sphere(t=1.0, constraints=()):
    return SurfaceSpec(True, 0, len(constraints), t, tuple(constraints))


def test_canonical_word_shapes():
    assert canonical_word(True, 0) == []
    w = canonical_word(True, 2)
    G = build_group("S3")
    for a1 in range(6):
        for a2 in range(6):
            v = evaluate_word(G, w, (a1, a2))
            comm = G.mul[G.mul[a1][a2]][G.mul[G.inv[a1]][G.inv[a2]]]
            assert v == comm
    w = canonical_word(False, 2)
    for a1 in range(6):
        for a2 in range(6):
            v = evaluate_word(G, w, (a1, a2))
            assert v == G.mul[G.mul[a1][a1]][G.mul[a2][a2]]


def test_monodromy_tuple_validation():
    G = build_group("Z2")
    with pytest.raises(ValueError):
        MonodromyTuple(G, True, 0, (), (), (), (1, 1, 1))  # odd parity
    with pytest.raises(ValueError):
        MonodromyTuple(G, True, 0, (), (), (), (1, 0))  # trivial twist
    t = MonodromyTuple(G, True, 0, (), (), (), (1, 1))
    assert t.relation_value() == 0 and t.k == 2


def test_enumerate_sphere_z2():
    """Over Z2 a sphere tuple is a list of copies of the flip multiplying to
    the identity: only even k is possible."""
    G = build_group("Z2")
    assert enumerate_H(G, sphere(), 3) == []
    two = enumerate_H(G, sphere(), 2)
    assert len(two) == 1 and two[0].d == (1, 1)


def test_enumerate_sphere_z2_k0():
    G = build_group("Z2")
    zero = enumerate_H(G, sphere(), 0)
    assert len(zero) == 1 and zero[0].d == ()


def test_enumerate_sphere_s3_transpositions():
    """Two-point ramified covers of the sphere with transposition twists:
    the second twist must invert the first, giving one tuple per
    transposition."""
    G = build_group("S3")
    classes = conjugacy_classes(G)
    two = enumerate_H(G, sphere(), 2)
    pairs = [t.d for t in two]
    assert all(G.mul[x][y] == 0 for x, y in pairs)
    assert len(pairs) == G.n - 1


def test_counting_is_exact():
    G = build_group("Z2")
    lhs, rhs = counting_check(G, sphere(), 2, lambda t: 1)
    assert lhs == rhs == Fraction(1, 2)
    G = build_group("S3")
    lhs, rhs = counting_check(G, sphere(), 2, lambda t: 1)
    assert lhs == rhs == Fraction(5, 6)


def test_counting_over_torus():
    G = build_group("S3")
    spec = SurfaceSpec(True, 2, 0, 1.0)
    for k in (0, 1, 2):
        lhs, rhs = counting_check(G, spec, k, lambda t: 1)
        assert lhs == rhs


def test_counting_rejects_noninvariant_functional():
    G = build_group("S3")
    with pytest.raises(ValueError):
        counting_check(G, sphere(), 2, lambda t: t.d[0])


def test_aut_order_is_centralizer():
    G = build_group("S3")
    t = MonodromyTuple(G, True, 0, (), (), (), (1, 1))
    # centralizer of a transposition in S3 has order 2
    assert aut_order(t) == 2
    orbits = conjugation_orbits(G, [t.conjugate(g) for g in range(G.n)])
    assert len(orbits) == 1 and len(orbits[0]) == 3


def test_fixed_k_mass_matches_contraction():
    G = build_group("S3")
    pi = uniform_jump_measure(G, 1)
    for spec in (sphere(), SurfaceSpec(True, 2, 0, 1.0),
                 sphere(constraints=(1,))):
        for k in (0, 1, 2, 3):
            assert bb_mass_fixed_k(G, spec, pi, k) == \
                twist_mass_contraction(G, spec, pi, k)


MASS_CASES = [
    ("Z2", SurfaceSpec(True, 0, 0, 1.0)),
    ("Z2", SurfaceSpec(False, 2, 0, 0.7)),
    ("S3", SurfaceSpec(True, 0, 0, 1.0)),
    ("S3", SurfaceSpec(True, 2, 0, 1.3)),
    ("S3", SurfaceSpec(True, 0, 1, 1.0, (1,))),
    ("S3", SurfaceSpec(True, 0, 3, 0.6, (1, 1, 2))),
]


@pytest.mark.parametrize("gname,spec", MASS_CASES)
def test_bb_mass_matches_partition_function(gname, spec):
    G = build_group(gname)
    pi = uniform_jump_measure(G, 1.0)
    hk = HeatKernel(pi, character_table(G))
    assert bb_mass(G, spec, pi) == pytest.approx(
        partition_formula(G, spec, hk), abs=1e-9)


def test_bb_mass_z2_sphere_closed_form():
    G = build_group("Z2")
    pi = uniform_jump_measure(G, 1.0)
    for t in (0.2, 1.0, 3.0):
        expect = math.exp(-t) * math.cosh(t) * 2  # 1 + e^{-2t}
        assert bb_mass(G, sphere(t), pi) == pytest.approx(expect, abs=1e-11)


def test_bb_mass_at_large_rate_times_t():
    G = build_group("S3")
    pi = uniform_jump_measure(G, 1.0)
    hk = HeatKernel(pi, character_table(G))
    spec = SurfaceSpec(True, 2, 0, 1000.0)
    assert bb_mass(G, spec, pi) == pytest.approx(
        partition_formula(G, spec, hk), abs=1e-9)


def test_sample_covering_at_large_intensity():
    G = build_group("Z2")
    pi = uniform_jump_measure(G, 1.0)
    counts, tup = sample_covering(G, sphere(1500.0), pi, 0)
    assert counts.total == tup.k > 1000
    assert tup.relation_value() == 0


HOLO_MONO_CASES = [
    ("S3", SurfaceSpec(True, 0, 1, 1.0, (1,))),
    ("S3", SurfaceSpec(True, 2, 0, 1.0)),
    ("Z2", SurfaceSpec(False, 2, 0, 1.0)),
]


@pytest.mark.parametrize("gname,spec", HOLO_MONO_CASES)
def test_holonomy_equals_monodromy(gname, spec):
    from holofield.holonomy import GConstraints

    G = build_group(gname)
    pi = uniform_jump_measure(G, 1.0)
    m = standard_map(spec)
    C = GConstraints(boundary_classes=spec.constraints)
    report = verify_holo_mono(G, m, pi, C=C, tol=1e-9)
    assert report.passed
    assert report.max_abs_diff <= 1e-12


def test_holonomy_equals_monodromy_split_faces():
    from holofield.loops import refine_generators, tame_generators
    from holofield.surface import split_face

    G = build_group("S3")
    pi = uniform_jump_measure(G, 1.0)
    m = RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1), areas=(1.0,))
    tame = tame_generators(m)
    fine, cont = split_face(m, 0, 0, 2)
    tame = refine_generators(tame, m, fine, 0, cont)
    report = verify_holo_mono(G, fine, pi, tame=tame, tol=1e-9)
    assert report.passed


def test_monodromy_marginal_total_is_partition_function():
    from holofield.loops import tame_generators

    G = build_group("S3")
    pi = uniform_jump_measure(G, 1.0)
    hk = HeatKernel(pi, character_table(G))
    spec = SurfaceSpec(True, 2, 0, 1.0)
    m = standard_map(spec)
    from holofield.holonomy import GConstraints

    pmf, total = monodromy_marginal(G, m, tame_generators(m), pi,
                                    GConstraints())
    assert total == pytest.approx(sum(pmf.values()), abs=1e-12)
    assert total == pytest.approx(
        partition_formula(G, spec, hk), abs=1e-10)


def test_sample_covering_z2_sphere_parity():
    G = build_group("Z2")
    pi = uniform_jump_measure(G, 1.0)
    for seed in range(40):
        counts, tup = sample_covering(G, sphere(), pi, seed)
        assert counts.total == tup.k
        assert tup.k % 2 == 0
        assert tup.relation_value() == 0


def test_sample_covering_matches_twist_count_law():
    """On the Z2 sphere the accepted ramification count follows the Poisson
    law conditioned on even values."""
    G = build_group("Z2")
    pi = uniform_jump_measure(G, 1.0)
    t = 1.0
    draws = 3000
    seen = Counter(sample_covering(G, sphere(t), pi, seed)[1].k
                   for seed in range(draws))
    norm = math.cosh(t) * math.exp(-t)
    for k in (0, 2, 4):
        expect = math.exp(-t) * t ** k / math.factorial(k) / norm
        assert seen[k] / draws == pytest.approx(expect, abs=0.03)


def test_enumeration_cap():
    G = build_group("S4")
    with pytest.raises(CapExceeded):
        enumerate_H(G, SurfaceSpec(True, 4, 0, 1.0), 4, cap=1000)
