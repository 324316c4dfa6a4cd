"""End-to-end verification matrix: every exact identity the engine rests on,
run at fixed tolerances across the builtin groups and reference surfaces."""

import itertools
import random
from fractions import Fraction

import pytest

from holofield.covering import bb_mass, counting_check
from holofield.groups import (
    build_group,
    character_table,
    conjugacy_classes,
    convolution_power,
    convolve,
    density_convolve,
    eta_measure,
    fourier_coefficient,
    kappa_measure,
)
from holofield.holonomy import (
    GConstraints,
    beta1,
    beta2,
    partition_formula,
    partition_graph,
    marginal_generators,
    upsilon,
    z_function,
)
from holofield.levy import (
    HeatKernel,
    check_admissible,
    heat_kernel_series,
    jump_measure_from_class_rates,
    uniform_jump_measure,
)
from holofield.loops import (
    EdgeWord,
    tame_generators,
)
from holofield.surface import (
    RibbonMap,
    SurfaceSpec,
    euler_and_genus,
    faces,
    split_face,
    standard_map,
    subdivide_edge,
)
from oracles import aut_order, builtin_names, free_basis, reduce_word


def make_hk(name):
    G = build_group(name)
    pi = uniform_jump_measure(G, 1.0)
    return G, pi, HeatKernel(pi, character_table(G))


# 1. the power-series and character evaluations of the kernel agree


@pytest.mark.parametrize("gname", ["Z2", "Z4", "S3", "Q8"])
@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_kernel_series_matches_characters(gname, t):
    G, pi, hk = make_hk(gname)
    by_series = heat_kernel_series(pi, t)
    by_chars = hk.density(t)
    diff = max(abs(a - b) for a, b in zip(by_series.values, by_chars.values))
    assert diff <= 1e-9


# 2. kernel semigroup property


@pytest.mark.parametrize("gname", ["Z2", "Z4", "S3", "Q8"])
@pytest.mark.parametrize("s,t", [(0.3, 0.7), (1.0, 2.0)])
def test_kernel_semigroup(gname, s, t):
    G, pi, hk = make_hk(gname)
    conv = density_convolve(hk.density(s), hk.density(t))
    direct = hk.density(s + t)
    assert max(abs(a - b)
               for a, b in zip(conv.values, direct.values)) <= 1e-10


# 3. commutator and square measures: exact convolution identity and
#    Fourier profile


@pytest.mark.parametrize("gname", builtin_names())
def test_square_and_commutator_measures(gname):
    G = build_group(gname)
    table = character_table(G)
    eta = eta_measure(G)
    kappa = kappa_measure(G)
    assert convolve(kappa, eta).weights == convolution_power(kappa, 3).weights
    for a in range(table.r):
        eta_hat = fourier_coefficient(eta, a, table)
        kappa_hat = fourier_coefficient(kappa, a, table)
        assert abs(eta_hat - 1.0 / table.dims[a]) <= 1e-9
        assert abs(kappa_hat - table.fs_indicator[a]) <= 1e-9


# 4. surgery maps between partition functions


def _z_cached(cache, G, hk, ori, p, g, t):
    key = (ori, p, g, t)
    if key not in cache:
        cache[key] = z_function(G, ori, p, g, t, hk)
    return cache[key]


def _assert_close(lhs, rhs, tol):
    for key in rhs.values:
        assert abs(lhs.values[key] - rhs.values[key]) <= tol


@pytest.mark.parametrize("gname", ["S3", "Z4"])
def test_surgery_identities(gname):
    G, pi, hk = make_hk(gname)
    cache = {}

    def z(ori, p, g, t):
        return _z_cached(cache, G, hk, ori, p, g, t)

    genera = {True: (0, 2), False: (1, 2)}
    for t in (0.5, 1.0):
        # one boundary to one cross-cap
        for p in (1, 2, 3):
            for g in genera[True]:
                _assert_close(upsilon(z(True, p, g, t)),
                              z(False, p - 1, g + 1, t), 1e-10)
        # two boundaries to a handle
        for p in (2, 3):
            for g in genera[True]:
                _assert_close(beta1(z(True, p, g, t)),
                              z(True, p - 2, g + 2, t), 1e-10)
    # gluing two surfaces along a boundary circle
    for ori1, ori2 in itertools.product((True, False), repeat=2):
        for g1, g2 in itertools.product(genera[ori1], genera[ori2]):
            for p1, p2 in itertools.product((1, 2, 3), repeat=2):
                for t1, t2 in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)):
                    glued = beta2(z(ori1, p1, g1, t1), z(ori2, p2, g2, t2))
                    direct = z(ori1 and ori2, p1 + p2 - 2, g1 + g2, t1 + t2)
                    _assert_close(glued, direct, 1e-10)


# 5. the graph evaluation does not depend on the map


GRAPH_SPECS = [
    SurfaceSpec(True, 2, 0, 1.0),
    SurfaceSpec(False, 2, 0, 1.0),
    SurfaceSpec(True, 0, 1, 1.0, (1,)),
    SurfaceSpec(True, 0, 3, 1.0, (1, 1, 2)),
]


@pytest.mark.parametrize("spec", GRAPH_SPECS)
@pytest.mark.parametrize("gname", ["Z3", "S3"])
def test_partition_graph_independence(gname, spec):
    G, pi, hk = make_hk(gname)
    target = partition_formula(G, spec, hk)
    C = GConstraints(boundary_classes=spec.constraints)
    m = standard_map(spec)
    assert abs(partition_graph(G, m, C, hk) - target) <= 1e-10
    sub, _ = subdivide_edge(m, 0)
    assert abs(partition_graph(G, sub, C, hk) - target) <= 1e-10
    cyc = faces(m).cycles[0]
    fine, _ = split_face(m, 0, 0, len(cyc) // 2)
    assert abs(partition_graph(G, fine, C, hk) - target) <= 1e-10


# 6. joint law of the tame generator holonomies on a two-face torus


@pytest.mark.parametrize("gname", ["Z3", "S3"])
def test_tame_joint_law_two_face_torus(gname):
    G, pi, hk = make_hk(gname)
    m = RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1), areas=(1.0,))
    fine, _ = split_face(m, 0, 0, 2)
    tame = tame_generators(fine)
    f = len(faces(fine).cycles)
    assert f == 2
    gens = tame.a + tame.l
    pmf, _ = marginal_generators(G, fine, GConstraints(), gens, hk)
    pre = G.n ** (1 - 2 - f)
    qs = [hk.density(fine.areas[i]) for i in range(f)]
    seen = 0
    for key, val in pmf.items():
        zs = key[len(tame.a):]
        expect = pre
        for q, zv in zip(qs, zs):
            expect *= q.values[zv]
        assert abs(val - expect) <= 1e-12
        seen += 1
    assert seen == G.n ** 3


# 7. field holonomies and covering monodromies have the same law


HOLO_MONO_CASES = [
    ("S3", SurfaceSpec(True, 0, 1, 1.0, (1,))),
    ("S3", SurfaceSpec(True, 2, 0, 1.0)),
    ("Z2", SurfaceSpec(False, 2, 0, 1.0)),
]


@pytest.mark.parametrize("gname,spec", HOLO_MONO_CASES)
def test_field_law_equals_covering_law(gname, spec):
    from holofield.covering import verify_holo_mono

    G, pi, hk = make_hk(gname)
    m = standard_map(spec)
    C = GConstraints(boundary_classes=spec.constraints)
    report = verify_holo_mono(G, m, hk, C=C, tol=1e-9)
    assert report.passed


# 8. bundle counting and total mass


@pytest.mark.parametrize("gname", ["Z2", "S3"])
@pytest.mark.parametrize("spec", [SurfaceSpec(True, 0, 0, 1.0),
                                  SurfaceSpec(True, 2, 0, 1.0)])
def test_counting_formula_exact(gname, spec):
    G = build_group(gname)
    for k in (0, 1, 2, 3):
        for f in (lambda t: 1, aut_order):
            lhs, rhs = counting_check(G, spec, k, f)
            assert isinstance(lhs, Fraction) and lhs == rhs


@pytest.mark.parametrize("gname", ["Z2", "S3"])
@pytest.mark.parametrize("spec", [SurfaceSpec(True, 0, 0, 1.0),
                                  SurfaceSpec(True, 2, 0, 1.0)])
def test_bundle_mass_equals_partition_function(gname, spec):
    G, pi, hk = make_hk(gname)
    assert abs(bb_mass(G, spec, pi)
               - partition_formula(G, spec, hk)) <= 1e-9


# 9. combinatorial fixtures and word reduction


FIXTURES = [
    ("torus", RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1)),
     (0, True, 2, 0), 1),
    ("projective plane", RibbonMap((1, 0), (1, 0), (-1, -1)),
     (1, False, 1, 0), 1),
    ("klein bottle", standard_map(SurfaceSpec(False, 2, 0, 1.0)),
     (0, False, 2, 0), 1),
    ("theta graph", RibbonMap((1, 0, 3, 2, 5, 4), (2, 5, 4, 1, 0, 3),
                              (1,) * 6),
     (2, True, 0, 0), 3),
]


@pytest.mark.parametrize("name,m,topo,f", FIXTURES)
def test_fixture_topology(name, m, topo, f):
    assert euler_and_genus(m) == topo
    assert len(faces(m).cycles) == f


@pytest.mark.parametrize("name,m,topo,f", FIXTURES)
def test_fixture_free_basis_rank(name, m, topo, f):
    assert len(free_basis(m, 0)) == m.n_edges - m.n_vertices + 1


def test_reduce_idempotent_on_random_words():
    m = RibbonMap((1, 0, 3, 2, 5, 4), (2, 5, 4, 1, 0, 3), (1,) * 6)
    rng = random.Random(2024)
    for _ in range(1000):
        at = rng.randrange(m.n_vertices)
        darts = []
        for _ in range(rng.randrange(40)):
            d = rng.choice(sorted(m.vertex_cycles()[at]))
            darts.append(d)
            at = m.vertex_of(m.alpha[d])
        w = EdgeWord(darts and m.vertex_of(darts[0]) or 0, tuple(darts))
        r = reduce_word(m, w)
        assert reduce_word(m, r) == r


# 10. positivity, support, small-time behaviour


@pytest.mark.parametrize("gname", builtin_names())
def test_kernel_positive_when_support_generates(gname):
    G = build_group(gname)
    pi = uniform_jump_measure(G, 1.0)
    assert check_admissible(pi).admissible
    for t in (0.01, 1.0, 5.0):
        q = heat_kernel_series(pi, t)
        assert all(v > 0 for v in q.values)


def test_kernel_vanishes_off_generated_subgroup():
    G = build_group("S3")
    classes = conjugacy_classes(G)
    three_cycles = next(c for c in range(classes.r) if classes.sizes[c] == 2)
    pi = jump_measure_from_class_rates(G, {three_cycles: 1.0})
    H = G.subgroup_generated(pi.support())
    assert len(H) == 3
    q = heat_kernel_series(pi, 1.0)
    for x in range(G.n):
        if x in H:
            assert q.values[x] > 0
        else:
            assert q.values[x] == 0.0


@pytest.mark.parametrize("gname", ["Z2", "Z4", "S3", "Q8"])
def test_small_time_mass_bound(gname):
    G, pi, hk = make_hk(gname)
    t = 1e-3
    q = heat_kernel_series(pi, t)
    off_identity = sum(q.values[x] for x in range(1, G.n)) / G.n
    assert off_identity <= t * float(pi.total_rate)
