"""Ramified covering enumeration, exact counting, bundle masses, sampling,
and agreement between field holonomy laws and covering monodromy laws."""

import hashlib
import math
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from holofield.covering import (
    MonodromyTuple,
    bb_mass,
    canonical_word,
    counting_check,
    monodromy_marginal,
    sample_covering,
    tame_law,
    verify_holo_mono,
)
from holofield.groups import build_group, character_table, conjugacy_classes
from holofield.holonomy import (
    CapExceeded,
    GConstraints,
    marginal_generators,
    partition_formula,
    partition_graph,
)
from holofield.levy import (
    HeatKernel,
    SeriesKernel,
    jump_measure_from_class_rates,
    poisson_weights,
    uniform_jump_measure,
)
from holofield.loops import holonomy_of_steps, tame_generators
from holofield.surface import (
    RibbonMap,
    SurfaceSpec,
    faces,
    split_face,
    standard_map,
    subdivide_edge,
)
from oracles import (
    aut_order,
    bb_mass_fixed_k,
    enumerate_H,
    twist_mass_contraction,
)


def sphere(t=1.0, constraints=()):
    return SurfaceSpec(True, 0, len(constraints), t, tuple(constraints))


def test_canonical_word_shapes():
    assert canonical_word(True, 0) == []
    w = canonical_word(True, 2)
    G = build_group("S3")
    for a1 in range(6):
        for a2 in range(6):
            v = holonomy_of_steps(G, w, (a1, a2))
            comm = G.mul[G.mul[a1][a2]][G.mul[G.inv[a1]][G.inv[a2]]]
            assert v == comm
    w = canonical_word(False, 2)
    for a1 in range(6):
        for a2 in range(6):
            v = holonomy_of_steps(G, w, (a1, a2))
            assert v == G.mul[G.mul[a1][a1]][G.mul[a2][a2]]


def _relation(t: MonodromyTuple) -> int:
    """w(a) c_1..c_p d_1..d_k of a tuple, multiplied out with G.mul."""
    G = t.group
    word = [G.inv[t.a[i]] if inverted else t.a[i]
            for i, inverted in canonical_word(t.orientable, t.genus)]
    out = 0
    for x in word + list(t.c) + list(t.d):
        out = G.mul[out][x]
    return out


def test_monodromy_tuple_validation():
    G = build_group("Z2")
    with pytest.raises(ValueError):
        MonodromyTuple(G, True, 0, (), (), (), (1, 1, 1))  # odd parity
    with pytest.raises(ValueError):
        MonodromyTuple(G, True, 0, (), (), (), (1, 0))  # trivial twist
    with pytest.raises(ValueError, match="outside its class"):
        # the identity closes the disk's relation but lies in class 0
        MonodromyTuple(G, True, 0, (1,), (), (0,), ())
    t = MonodromyTuple(G, True, 0, (), (), (), (1, 1))
    assert _relation(t) == 0 and t.k == 2


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


# (group, orientable, genus, boundary classes, k): the S4 annulus with
# classes of size 6 and 8, the Q8 Moebius band, the D4 one-holed torus, the
# S3 one-holed Klein bottle and the A4 Klein bottle
CONSTRAINED_SHAPES = {
    "S4 annulus": ("S4", True, 0, (1, 2), 2),
    "Q8 Moebius band": ("Q8", False, 1, (2,), 3),
    "D4 one-holed torus": ("D4", True, 2, (1,), 2),
    "S3 one-holed Klein bottle": ("S3", False, 2, (1,), 3),
    "A4 Klein bottle": ("A4", False, 2, (), 2),
}


def constrained_shape(name):
    gname, orientable, genus, cons, k = CONSTRAINED_SHAPES[name]
    return (build_group(gname), SurfaceSpec(orientable, genus, len(cons),
                                            1.0, cons), k)


@pytest.mark.parametrize("name, ones, auts", [
    ("S4 annulus", 44, 44),
    ("Q8 Moebius band", 86, 186),
    ("D4 one-holed torus", 96, 208),
    ("S3 one-holed Klein bottle", 378, 380),
    ("A4 Klein bottle", 122, 142),
])
def test_counting_on_constrained_shapes(name, ones, auts):
    """Both sides of the count, pinned for f = 1 and f = |Aut| beyond the
    closed Z2/S3 surfaces."""
    G, spec, k = constrained_shape(name)
    for f, want in ((lambda t: 1, ones), (aut_order, auts)):
        lhs, rhs = counting_check(G, spec, k, f)
        assert isinstance(lhs, Fraction) and lhs == rhs == Fraction(want)


def test_counting_rejects_noninvariant_functional_on_boundary():
    G, spec, k = constrained_shape("S4 annulus")
    with pytest.raises(ValueError, match="conjugation-invariant"):
        counting_check(G, spec, k, lambda t: t.c[0])



def test_counting_across_gather_and_block_bounds(monkeypatch):
    """Gathers of two rows inside blocks of seven leave both sides of the
    count unchanged, still catch a non-invariant functional, and still
    count the sphere with no twists, whose tuples have no letters."""
    import holofield.covering as covering
    import holofield.loops as loops

    G, spec, k = constrained_shape("S3 one-holed Klein bottle")
    want = [counting_check(G, spec, k, f) for f in (lambda t: 1, aut_order)]
    monkeypatch.setattr(covering, "_GATHER", 100)
    monkeypatch.setattr(loops, "_BLOCK", 7)
    assert [counting_check(G, spec, k, f)
            for f in (lambda t: 1, aut_order)] == want
    with pytest.raises(ValueError, match="conjugation-invariant"):
        counting_check(G, spec, k, lambda t: t.d[0])
    assert counting_check(G, sphere(), 0, lambda t: 1) == (Fraction(1, 6),
                                                           Fraction(1, 6))


@pytest.mark.parametrize("name", ["S4 torus", "Q8 Moebius band"])
def test_enumerate_aut_is_aut_order(name, monkeypatch):
    """cover enumerate's |Aut| comes from counting_check's conjugate-key
    gather: enumerate_H's tuples in its order, each with its aut_order,
    also across gathers of two rows inside blocks of seven."""
    import holofield.covering as covering
    import holofield.loops as loops

    if name == "S4 torus":
        G, spec, k = build_group("S4"), SurfaceSpec(True, 2, 0, 1.0), 2
    else:
        G, spec, k = constrained_shape(name)
    tuples = enumerate_H(G, spec, k)
    want = [(t, aut_order(t)) for t in tuples]
    assert covering._enumerate_aut(G, spec, k) == want
    assert len(want) == {"S4 torus": 12792, "Q8 Moebius band": 688}[name]
    if name == "Q8 Moebius band":
        monkeypatch.setattr(covering, "_GATHER", 100)
        monkeypatch.setattr(loops, "_BLOCK", 7)
        assert covering._enumerate_aut(G, spec, k) == want

@pytest.mark.parametrize("name, count, first, last", [
    ("S4 annulus", 1056, (1, 3, 1, 3), (21, 20, 23, 22)),
    ("Q8 Moebius band", 688, (0, 2, 1, 1, 3), (7, 3, 7, 7, 2)),
    ("S3 one-holed Klein bottle", 2268, (0, 0, 1, 1, 1, 1),
     (5, 5, 5, 5, 5, 5)),
])
def test_enumerate_order_is_pinned(name, count, first, last):
    """Genus entries vary slowest, then boundary entries, then twists,
    with the closing twist last."""
    G, spec, k = constrained_shape(name)
    tuples = enumerate_H(G, spec, k)
    assert len(tuples) == count
    assert tuples[0].entries() == first and tuples[-1].entries() == last


def test_aut_order_is_centralizer():
    G = build_group("S3")
    t = MonodromyTuple(G, True, 0, (), (), (), (1, 1))
    # centralizer of a transposition in S3 has order 2
    assert aut_order(t) == 2
    conjugates = [MonodromyTuple(G, True, 0, (), (), (),
                                 tuple(G.conj(g, x) for x in t.d))
                  for g in range(G.n)]
    # the orbits of simultaneous conjugation: all the conjugates share one,
    # of size n / |Aut| = 3
    orbits = {frozenset(tuple(G.conj(h, x) for x in u.entries())
                        for h in range(G.n)) for u in conjugates}
    assert len(orbits) == 1 and len(next(iter(orbits))) == 3


def test_fixed_k_mass_matches_contraction():
    G = build_group("S3")
    pi = uniform_jump_measure(G, 1)
    for spec in (sphere(), SurfaceSpec(True, 2, 0, 1.0),
                 sphere(constraints=(1,))):
        for k in (0, 1, 2, 3):
            assert bb_mass_fixed_k(G, spec, pi, k) == \
                twist_mass_contraction(G, spec, pi, k)


def test_fixed_k_mass_with_float_rates():
    """Float rates are summed with math.fsum: the mass agrees with its
    Fraction twin to about an ulp (left to right it drifted to 1.8e-14 on
    the torus at k = 3)."""
    G = build_group("S3")
    exact = jump_measure_from_class_rates(G, {1: Fraction(3, 10),
                                              2: Fraction(7, 5)})
    floats = jump_measure_from_class_rates(G, {1: 0.3, 2: 1.4})
    for spec in (sphere(), SurfaceSpec(True, 2, 0, 1.0),
                 sphere(constraints=(1,)), SurfaceSpec(False, 2, 0, 1.0)):
        for k in (1, 2, 3):
            assert bb_mass_fixed_k(G, spec, floats, k) == pytest.approx(
                float(bb_mass_fixed_k(G, spec, exact, k)), abs=1e-15)


MASS_CASES = [
    ("Z2", SurfaceSpec(True, 0, 0, 1.0)),
    ("Z2", SurfaceSpec(False, 2, 0, 0.7)),
    ("S3", SurfaceSpec(True, 0, 0, 1.0)),
    ("S3", SurfaceSpec(True, 2, 0, 1.3)),
    ("S3", SurfaceSpec(True, 0, 1, 1.0, (1,))),
    ("S3", SurfaceSpec(True, 0, 3, 0.6, (1, 1, 2))),
]

# Boundary classes C != C^-1 (A4's two 3-cycle classes, Z3's generators)
# under jump rates that are not inversion-invariant.
ONE_SIDED_RATES = {"A4": {1: 0.3, 2: 1.1, 3: 0.2}, "Z3": {1: 1.0}}
ONE_SIDED_MASS_CASES = [
    ("A4", SurfaceSpec(True, 0, 1, 0.7, (1,))),
    ("A4", SurfaceSpec(True, 0, 1, 0.7, (2,))),
    ("A4", SurfaceSpec(True, 0, 3, 0.9, (1, 1, 2))),
    ("Z3", SurfaceSpec(True, 0, 1, 1.0, (1,))),
    ("Z3", SurfaceSpec(True, 2, 2, 0.5, (1, 1))),
]


@pytest.mark.parametrize("gname,spec", MASS_CASES)
def test_bb_mass_matches_partition_function(gname, spec):
    G = build_group(gname)
    pi = uniform_jump_measure(G, 1.0)
    hk = HeatKernel(pi, character_table(G))
    assert bb_mass(G, spec, pi) == pytest.approx(
        partition_formula(G, spec, hk), abs=1e-9)


@pytest.mark.parametrize("gname,spec", ONE_SIDED_MASS_CASES)
def test_bb_mass_reads_boundary_classes_uninverted(gname, spec):
    G = build_group(gname)
    pi = jump_measure_from_class_rates(G, ONE_SIDED_RATES[gname])
    hk = HeatKernel(pi, character_table(G))
    assert bb_mass(G, spec, pi) == pytest.approx(
        partition_formula(G, spec, hk), abs=1e-9)


def test_bb_mass_is_poisson_mix_of_inverted_contractions():
    """sum_k P(N = k) twist_mass_contraction(k) is the mass of the surface
    whose boundary classes are inverted: the twists close the inverse of
    w(a) c_1..c_p."""
    G = build_group("A4")
    classes = conjugacy_classes(G)
    pi = jump_measure_from_class_rates(G, ONE_SIDED_RATES["A4"])
    spec = SurfaceSpec(True, 0, 2, 0.7, (1, 3))
    inverted = SurfaceSpec(True, 0, 2, 0.7, tuple(
        classes.class_of[G.inv[classes.reps[c]]] for c in spec.constraints))
    assert inverted.constraints == (2, 3)
    mix = math.fsum(
        p * float(twist_mass_contraction(G, inverted, pi, k))
        for k, p in enumerate(poisson_weights(float(pi.total_rate) * 0.7,
                                              1e-15)))
    assert bb_mass(G, spec, pi) == pytest.approx(mix, abs=1e-12)


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
    assert _relation(tup) == 0


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
    hk = HeatKernel(pi, character_table(G))
    report = verify_holo_mono(G, m, hk, C=C, tol=1e-9)
    assert report.passed
    assert report.max_abs_diff <= 1e-12


def test_holonomy_equals_monodromy_split_faces():
    from holofield.loops import tame_generators
    from oracles import refine_generators
    from holofield.surface import split_face

    G = build_group("S3")
    pi = uniform_jump_measure(G, 1.0)
    m = RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1), areas=(1.0,))
    tame = tame_generators(m)
    fine, cont = split_face(m, 0, 0, 2)
    tame = refine_generators(tame, m, fine, 0, cont)
    hk = HeatKernel(pi, character_table(G))
    report = verify_holo_mono(G, fine, hk, tame=tame, tol=1e-9)
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
        assert _relation(tup) == 0


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


def _digest_shapes():
    """S3, D4, Q8, A4 and S4 on orientable genus 0 and 2 and non-orientable
    genus 1 and 2, with 0-2 boundaries (classes 1 and r - 1) and 0-3
    twists, wherever the enumeration has at most 600 rows."""
    for name in ("S3", "D4", "Q8", "A4", "S4"):
        G = build_group(name)
        classes = conjugacy_classes(G)
        for orientable, genera in ((True, (0, 2)), (False, (1, 2))):
            for genus in genera:
                for p in range(3):
                    cons = (1, classes.r - 1)[:p]
                    spec = SurfaceSpec(orientable, genus, p, 0.7, cons)
                    for k in range(4):
                        size = G.n ** (genus + max(k - 1, 0)) * math.prod(
                            classes.sizes[c] for c in cons)
                        if size <= 600:
                            yield G, classes, spec, k


def test_bundle_digest():
    """Tuples, automorphism orders, both sides of the count for f = 1 and
    f = |Aut|, and 20 sampled draws per surface, hashed over the sweep:
    pins enumeration order, the count and the sampler's random stream."""
    digest = hashlib.sha256()
    for G, classes, spec, k in _digest_shapes():
        for t in enumerate_H(G, spec, k):
            digest.update(repr((t.entries(), aut_order(t))).encode())
        for f in (lambda _: 1, aut_order):
            digest.update(repr(counting_check(G, spec, k, f, classes))
                          .encode())
        if k == 0:
            rates = {c: 1 + min(c, classes.inverse_class[c])
                     for c in range(1, classes.r)}
            pi = jump_measure_from_class_rates(G, rates, classes)
            for seed in range(20):
                counts, t = sample_covering(G, spec, pi, seed, classes)
                digest.update(repr((counts.total, t.entries())).encode())
    assert digest.hexdigest() == (
        "279eaad498a419a1c700f32f2a63026b9ba3a304c30ee4f2b329429e523f0dac")


def test_monodromy_tuple_surface():
    """An enumerated tuple equals, hashes like and prints like the same
    tuple built through the validating constructor, and cannot be
    assigned to."""
    G = build_group("S3")
    spec = SurfaceSpec(False, 1, 1, 1.0, (1,))
    t = enumerate_H(G, spec, 2)[5]
    u = MonodromyTuple(G, False, 1, (1,), (0,), (2,), (3, 1))
    assert t == u and hash(t) == hash(u) and len({t, u}) == 1
    assert t != MonodromyTuple(G, False, 1, (1,), (0,), (2,), (4, 5))
    assert (t.a, t.c, t.d, t.k) == ((0,), (2,), (3, 1), 2)
    assert t.group is G and t.orientable is False and t.genus == 1
    assert t.boundary_classes == (1,) and t.entries() == (0, 2, 3, 1)
    assert repr(t) == (
        "MonodromyTuple(group=FiniteGroup(S3, n=6), orientable=False, "
        "genus=1, boundary_classes=(1,), a=(0,), c=(2,), d=(3, 1))")
    assert pickle.loads(pickle.dumps(t)) == t
    for name in ("a", "d", "group", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, ())
    assert t.d == (3, 1)
    Z2 = build_group("Z2")
    assert repr(MonodromyTuple(Z2, True, 0, (), (), (), (1, 1))) == (
        "MonodromyTuple(group=FiniteGroup(Z2, n=2), orientable=True, "
        "genus=0, boundary_classes=(), a=(), c=(), d=(1, 1))")
    for args, match in [
        ((G, False, 1, (1,), (), (2,), (3, 1)), "genus entries"),
        ((G, False, 1, (1,), (0,), (), (3, 1)), "boundary entries"),
        ((G, False, 1, (1,), (0,), (0,), (3, 3)), "outside its class"),
        ((G, True, 0, (), (), (), (0,)), "non-trivial"),
        ((G, False, 1, (1,), (0,), (2,), (3, 2)), "surface relation"),
    ]:
        with pytest.raises(ValueError, match=match):
            MonodromyTuple(*args)


def _refined(spec):
    """The standard map with one edge subdivided and face 0 split."""
    m, _ = subdivide_edge(standard_map(spec), 0)
    return split_face(m, 0, 0, len(faces(m).cycles[0]) // 2)[0]


KERNEL_SPECS = [SurfaceSpec(True, 2, 0, 0.9),
                SurfaceSpec(True, 0, 1, 0.7, (1,)),
                SurfaceSpec(False, 2, 0, 1.1)]


@pytest.mark.parametrize("gname", ["S3", "A4", "Q8", "D4"])
@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=["torus", "disk", "klein"])
def test_graph_on_series_kernel_matches_formula_on_characters(gname, spec):
    """The graph route reads a SeriesKernel as it reads a HeatKernel, so
    graph = formula holds with no character on the graph side. In A4,
    class 1 holds 3-cycles, which inversion sends to class 2, and the
    orientable rates are one-sided."""
    G = build_group(gname)
    pi = jump_measure_from_class_rates(G, {1: 1.0, 2: 0.5}) \
        if spec.orientable else uniform_jump_measure(G, 1.3)
    hk = HeatKernel(pi, character_table(G))
    zg = partition_graph(G, _refined(spec), GConstraints(spec.constraints),
                         SeriesKernel(pi))
    assert abs(zg - partition_formula(G, spec, hk)) <= 1e-10


def test_tame_law_on_characters_matches_monodromy_marginal():
    """One tame-generator law, read with either heat kernel."""
    G = build_group("S3")
    pi = jump_measure_from_class_rates(G, {1: 0.7, 2: 1.1})
    m = split_face(standard_map(SurfaceSpec(True, 2, 0, 1.0)), 0, 0, 2,
                   (0.4, 0.6))[0]
    tame = tame_generators(m)
    hk = HeatKernel(pi, character_table(G))
    law, total = tame_law(G, m, tame, hk)
    mono, mono_total = monodromy_marginal(G, m, tame, pi)
    assert law.keys() == mono.keys()
    assert max(abs(law[k] - mono[k]) for k in law) <= 1e-10
    assert abs(total - mono_total) <= 1e-10


def test_verify_holo_mono_reads_the_tame_side_from_its_kernel():
    """On the split torus of verify tame, kernel=hk is the holonomy law
    against tame_law on the characters, the default kernel is the series
    at the default tail tolerance, and a report cannot be altered."""
    G = build_group("S3")
    pi = jump_measure_from_class_rates(G, {1: 0.7, 2: 1.1})
    m = split_face(standard_map(SurfaceSpec(True, 2, 0, 1.0)), 0, 0, 2,
                   (0.4, 0.6))[0]
    tame = tame_generators(m)
    hk = HeatKernel(pi, character_table(G))
    law, _ = marginal_generators(G, m, GConstraints(),
                                 list(tame.a) + list(tame.c) + list(tame.l),
                                 hk)
    closed, _ = tame_law(G, m, tame, hk)
    report = verify_holo_mono(G, m, hk, kernel=hk)
    assert report.max_abs_diff == max(
        abs(law.get(key, 0.0) - closed.get(key, 0.0))
        for key in law.keys() | closed.keys())
    assert verify_holo_mono(G, m, hk) == verify_holo_mono(
        G, m, hk, kernel=SeriesKernel(hk.pi))
    with pytest.raises(FrozenInstanceError):
        report.max_abs_diff = 0.0


def test_bb_mass_is_partition_formula_on_series_kernel():
    G = build_group("A4")
    pi = jump_measure_from_class_rates(G, {1: 1.0, 3: 0.25})
    spec = SurfaceSpec(True, 2, 1, 1.0, (2,))
    assert bb_mass(G, spec, pi) == partition_formula(
        G, spec, SeriesKernel(pi))
    assert bb_mass(G, spec, pi, 2.5, tail_tol=1e-6) == partition_formula(
        G, replace(spec, area=2.5), SeriesKernel(pi, 1e-6))


def test_negative_twist_count_is_rejected():
    """k < 0 is an input error, not the k = 0 or k = 1 answer."""
    G = build_group("S3")
    spec = SurfaceSpec(True, 2, 0, 1.0)
    pi = uniform_jump_measure(G, 1)
    for call in (lambda: enumerate_H(G, spec, -1),
                 lambda: counting_check(G, spec, -1, lambda _: 1),
                 lambda: bb_mass_fixed_k(G, spec, pi, -1),
                 lambda: twist_mass_contraction(G, spec, pi, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            call()
