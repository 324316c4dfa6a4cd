"""Partition functions, surgery maps, joint holonomy laws and sampling."""

import itertools
import math
import random
from collections import Counter

import pytest

from holofield.groups import (
    build_group,
    character_table,
    conjugacy_classes,
)
from holofield.holonomy import (
    CapExceeded,
    GConstraints,
    beta1,
    beta2,
    constrained_configurations,
    df_weight,
    gauge_transform,
    marginal_generators,
    measure_m,
    partition_formula,
    partition_graph,
    sample_df,
    upsilon,
    z_function,
)
from holofield.levy import HeatKernel, uniform_jump_measure
from holofield.loops import (
    EdgeWord,
    free_basis,
    holonomy_of_word,
    spanning_tree,
    tame_generators,
)
from holofield.surface import (
    RibbonMap,
    SurfaceSpec,
    faces,
    split_face,
    standard_map,
    subdivide_edge,
)


def make_hk(name, rate=1.0):
    G = build_group(name)
    pi = uniform_jump_measure(G, rate)
    return G, HeatKernel(pi, character_table(G))


def torus_map(area=1.0):
    return RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1), areas=(area,))


def test_torus_partition_z2_closed_form():
    """Z2 with unit uniform rate: exponents 0 and 2, so Z = 1 + e^{-2t}."""
    G, hk = make_hk("Z2")
    for t in (0.3, 1.0, 2.5):
        spec = SurfaceSpec(True, 2, 0, t)
        assert partition_formula(G, spec, hk) == pytest.approx(
            1.0 + math.exp(-2.0 * t), abs=1e-12)


def test_sphere_partition_is_kernel_at_identity():
    for name in ("Z4", "S3", "Q8"):
        G, hk = make_hk(name)
        table = character_table(G)
        for t in (0.5, 2.0):
            spec = SurfaceSpec(True, 0, 0, t)
            by_chars = sum(
                table.dims[a] ** 2 * math.exp(-t * hk.exponents[a].real)
                for a in range(table.r))
            assert partition_formula(G, spec, hk) == pytest.approx(
                by_chars, abs=1e-12)


def test_disk_partition_is_kernel_at_class():
    G, hk = make_hk("S3")
    classes = conjugacy_classes(G)
    t = 1.2
    q = hk.density(t)
    for c in range(classes.r):
        spec = SurfaceSpec(True, 0, 1, t, (c,))
        rep = classes.reps[c]
        assert partition_formula(G, spec, hk) == pytest.approx(
            q.values[rep], abs=1e-12)


def test_torus_partition_is_exponent_sum():
    """For the torus the class sum against the commutator measure collapses
    to a plain sum of exponentials over the irreps."""
    for name in ("S3", "Q8"):
        G, hk = make_hk(name)
        table = character_table(G)
        t = 0.8
        spec = SurfaceSpec(True, 2, 0, t)
        direct = sum(math.exp(-t * hk.exponents[a].real)
                     for a in range(table.r))
        assert partition_formula(G, spec, hk) == pytest.approx(
            direct, abs=1e-11)


GRAPH_CASES = [
    ("torus", SurfaceSpec(True, 2, 0, 1.0),
     RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1), areas=(1.0,))),
    ("klein", SurfaceSpec(False, 2, 0, 1.0), None),
    ("disk", SurfaceSpec(True, 0, 1, 1.0, (1,)), None),
    ("three-holed sphere", SurfaceSpec(True, 0, 3, 1.0, (1, 1, 2)), None),
]


@pytest.mark.parametrize("name,spec,m", GRAPH_CASES)
@pytest.mark.parametrize("gname", ["Z3", "S3"])
def test_partition_graph_matches_formula(name, spec, m, gname):
    G, hk = make_hk(gname)
    classes = conjugacy_classes(G)
    if max(spec.constraints, default=0) >= classes.r:
        pytest.skip("class index not present in this group")
    if m is None:
        m = standard_map(spec)
    C = GConstraints(boundary_classes=spec.constraints)
    lhs = partition_graph(G, m, C, hk)
    rhs = partition_formula(G, spec, hk)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_partition_graph_invariant_under_refinement():
    G, hk = make_hk("S3")
    spec = SurfaceSpec(True, 2, 0, 1.0)
    m = standard_map(spec)
    C = GConstraints()
    z = partition_graph(G, m, C, hk)
    sub, _ = subdivide_edge(m, 0)
    assert partition_graph(G, sub, C, hk) == pytest.approx(z, abs=1e-10)
    fine, _ = split_face(m, 0, 0, 2)
    assert partition_graph(G, fine, C, hk) == pytest.approx(z, abs=1e-10)


def test_upsilon_trades_boundary_for_crosscap():
    G, hk = make_hk("S3")
    t = 0.7
    for p, g in [(1, 0), (2, 2), (1, 2)]:
        lhs = upsilon(z_function(G, True, p, g, t, hk))
        rhs = z_function(G, False, p - 1, g + 1, t, hk)
        for key in rhs.values:
            assert lhs.values[key] == pytest.approx(rhs.values[key], abs=1e-10)


def test_beta1_trades_two_boundaries_for_handle():
    G, hk = make_hk("Z4")
    t = 0.5
    for p, g in [(2, 0), (3, 2)]:
        lhs = beta1(z_function(G, True, p, g, t, hk))
        rhs = z_function(G, True, p - 2, g + 2, t, hk)
        for key in rhs.values:
            assert lhs.values[key] == pytest.approx(rhs.values[key], abs=1e-10)


def test_beta2_glues_two_surfaces():
    G, hk = make_hk("S3")
    z1 = z_function(G, True, 1, 0, 0.5, hk)
    z2 = z_function(G, True, 2, 2, 1.0, hk)
    lhs = beta2(z1, z2)
    rhs = z_function(G, True, 1, 2, 1.5, hk)
    for key in rhs.values:
        assert lhs.values[key] == pytest.approx(rhs.values[key], abs=1e-10)


def test_z_function_is_symmetric():
    G, hk = make_hk("S3")
    z = z_function(G, True, 3, 0, 1.0, hk)
    assert z.check_symmetry(tol=1e-12)


def test_tame_marginal_matches_closed_form():
    """Joint law of the tame generator holonomies on a split torus:
    n^{1-g-f} prod_i Q_{t_i}(z_i) on tuples satisfying the relation."""
    G, hk = make_hk("S3")
    m = torus_map()
    fine, _ = split_face(m, 0, 0, 2)
    tame = tame_generators(fine)
    fs = faces(fine)
    f = len(fs.cycles)
    assert f == 2
    gens = tame.a + tame.l
    pmf, _ = marginal_generators(G, fine, GConstraints(), gens, hk)
    # the exponent counts handles twice: one factor of n per free edge
    pre = G.n ** (1 - 2 - f)
    qs = [hk.density(fine.areas[i]) for i in range(f)]
    for key, val in pmf.items():
        a1, a2, z1, z2 = key
        avals = (a1, a2)
        wa = 0
        for i, s in tame.w:
            x = avals[i] if s == 1 else G.inv[avals[i]]
            wa = G.mul[wa][x]
        assert G.mul[z1][z2] == wa
        expect = pre * qs[0].values[z1] * qs[1].values[z2]
        assert val == pytest.approx(expect, abs=1e-12)


def test_df_weight_gauge_invariant():
    G, hk = make_hk("S4")
    m = standard_map(SurfaceSpec(True, 2, 1, 1.0, (1,)))
    rng = random.Random(5)
    for _ in range(20):
        config = {e: rng.randrange(G.n) for e in m.edges()}
        j = {v: rng.randrange(G.n) for v in range(m.n_vertices)}
        moved = gauge_transform(G, m, config, j)
        assert df_weight(G, m, hk, moved) == pytest.approx(
            df_weight(G, m, hk, config), rel=1e-12)


def test_measure_m_is_probability():
    G = build_group("S3")
    for spec in (SurfaceSpec(True, 4, 0, 1.0),
                 SurfaceSpec(False, 3, 1, 1.0, (1,)),
                 SurfaceSpec(True, 0, 2, 1.0, (1, 2))):
        mu = measure_m(G, spec)
        assert float(sum(mu.weights)) == pytest.approx(1.0, abs=1e-14)
        assert all(w >= 0 for w in mu.weights)


def test_sample_df_exact_matches_pmf():
    G, hk = make_hk("Z3")
    m = torus_map()
    C = GConstraints()
    pmf, total = marginal_generators(
        G, m, C, tame_generators(m).a, hk, normalize=True)
    draws = sample_df(G, m, C, hk, seed=17, count=4000)
    tame = tame_generators(m)
    counts = Counter()
    for config in draws:
        counts[tuple(holonomy_of_word(G, m, config, w)
                     for w in tame.a)] += 1
    for key, p in pmf.items():
        assert counts[key] / 4000 == pytest.approx(p, abs=0.03)


def test_constrained_cap_raises():
    G, hk = make_hk("S4")
    m = standard_map(SurfaceSpec(True, 4, 0, 1.0))
    with pytest.raises(CapExceeded):
        partition_graph(G, m, GConstraints(), hk, cap=100)


def test_nonorientable_needs_symmetric_jumps():
    G = build_group("Z3")
    from holofield.levy import jump_measure_from_class_rates

    pi = jump_measure_from_class_rates(G, {1: 1.0})
    hk = HeatKernel(pi, character_table(G))
    m = standard_map(SurfaceSpec(False, 1, 0, 1.0))
    with pytest.raises(ValueError):
        partition_graph(G, m, GConstraints(), hk)


# ---------------------------------------------------------------------------
# brute-force oracle: the sum over all n^E edge configurations


def brute_field(G, m, C, hk=None):
    """Every configuration satisfying the constraints (each constrained
    cycle's holonomy in its class), with its uniform weight times, given a
    heat kernel, the product of face kernels; words are read with
    holonomy_of_word."""
    classes = conjugacy_classes(G)
    cycles = C.cycles_and_classes(m)
    face_words = [EdgeWord(m.vertex_of(cyc[0][0]), tuple(d for d, _ in cyc))
                  for cyc in faces(m).cycles]
    qs = [hk.density(t).values for t in m.areas] if hk else []
    edges = m.edges()
    kept = []
    for vals in itertools.product(range(G.n), repeat=len(edges)):
        config = dict(zip(edges, vals))
        if all(classes.class_of[holonomy_of_word(
                G, m, config, EdgeWord(m.vertex_of(cyc[0]), cyc))] == c
               for cyc, c in cycles):
            w = math.prod(q[holonomy_of_word(G, m, config, word)]
                          for word, q in zip(face_words, qs))
            kept.append((config, w))
    return [(config, w / len(kept)) for config, w in kept]


def brute_marginal(G, m, field, gens):
    pmf = {}
    for config, w in field:
        key = tuple(holonomy_of_word(G, m, config, g) for g in gens)
        pmf[key] = pmf.get(key, 0.0) + w
    return pmf


def assert_pmf_equal(got, want, tol=1e-12):
    for key in set(got) | set(want):
        assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=tol)


def twice_subdivided_disk():
    m = standard_map(SurfaceSpec(True, 0, 1, 1.0, (2,)))
    m, _ = subdivide_edge(m, m.boundary[0][0])
    m, _ = subdivide_edge(m, m.boundary[0][1])
    return m


def split_torus():
    fine, _ = split_face(torus_map(), 0, 0, 2, (0.4, 0.6))
    return subdivide_edge(fine, fine.n_darts - 1)[0]


def subdivided_klein():
    m = standard_map(SurfaceSpec(False, 2, 0, 1.0))
    m, _ = subdivide_edge(m, 0)
    return subdivide_edge(m, 2)[0]


ORACLE_CASES = [
    # a boundary circuit of three edges, constrained to the 3-cycles
    ("twice-subdivided disk", SurfaceSpec(True, 0, 1, 1.0, (2,)),
     twice_subdivided_disk),
    ("three-holed sphere", SurfaceSpec(True, 0, 3, 1.0, (1, 1, 2)),
     lambda: standard_map(SurfaceSpec(True, 0, 3, 1.0, (1, 1, 2)))),
    ("split torus", SurfaceSpec(True, 2, 0, 1.0), split_torus),
    ("subdivided klein", SurfaceSpec(False, 2, 0, 1.0), subdivided_klein),
]


@pytest.mark.parametrize("name,spec,build", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_gauge_fixed_sums_match_brute_force(name, spec, build):
    G, hk = make_hk("S3")
    m = build()
    assert m.n_vertices > 1
    C = GConstraints(boundary_classes=spec.constraints)
    field = brute_field(G, m, C, hk)
    z = sum(w for _, w in field)
    assert partition_graph(G, m, C, hk) == pytest.approx(z, abs=1e-12)
    assert z == pytest.approx(partition_formula(G, spec, hk), abs=1e-10)
    gens = free_basis(m, 0)
    pmf, total = marginal_generators(G, m, C, gens, hk)
    assert total == pytest.approx(z, abs=1e-12)
    assert_pmf_equal(pmf, brute_marginal(G, m, field, gens))


def test_marked_cycle_holonomy_lies_in_its_class():
    """A marked cycle of three loops on the one-vertex double torus: its
    holonomy, read in traversal order like every other word, is uniform on
    the 3-cycles of S3 (the reversed product need not even be a 3-cycle)."""
    G, hk = make_hk("S3")
    classes = conjugacy_classes(G)
    m = standard_map(SurfaceSpec(True, 4, 0, 1.0))
    mark = (0, 2, 4)
    C = GConstraints(marks=((mark, 2),))
    field = brute_field(G, m, C, hk)
    assert partition_graph(G, m, C, hk) == pytest.approx(
        sum(w for _, w in field), abs=1e-12)
    pmf, _ = marginal_generators(G, m, C, [EdgeWord(0, mark)],
                                 normalize=True)
    assert {classes.class_of[h] for (h,) in pmf} == {2}
    for (h,), p in pmf.items():
        assert p == pytest.approx(1 / classes.sizes[2], abs=1e-12)


def test_marginal_words_at_two_bases_match_brute_force():
    """Loops at two vertices and an open path between them: their joint
    law depends on the gauge at both ends."""
    G, hk = make_hk("S3")
    m = split_torus()
    far = next(e for e in m.edges()
               if m.vertex_of(e) != m.vertex_of(m.alpha[e]))
    gens = (free_basis(m, m.vertex_of(far))[:2]
            + free_basis(m, m.vertex_of(m.alpha[far]))[:1]
            + [EdgeWord(m.vertex_of(far), (far,))])
    assert len({g.base for g in gens}) == 2
    field = brute_field(G, m, GConstraints(), hk)
    pmf, _ = marginal_generators(G, m, GConstraints(), gens, hk)
    assert_pmf_equal(pmf, brute_marginal(G, m, field, gens))
    pmf, _ = marginal_generators(G, m, GConstraints(), gens)
    uniform = brute_field(G, m, GConstraints())
    assert_pmf_equal(pmf, brute_marginal(G, m, uniform, gens))


def test_gauge_fixed_count_and_cap():
    """n^(E - V + 1 - #cycles) prod |C_i| representatives: 3 * 3 * 2 on the
    three-holed sphere over S3, against 6^6 raw configurations."""
    G, hk = make_hk("S3")
    spec = SurfaceSpec(True, 0, 3, 1.0, (1, 1, 2))
    m, _ = subdivide_edge(standard_map(spec), 0)
    C = GConstraints(boundary_classes=spec.constraints)
    configs = list(constrained_configurations(G, m, C, conjugacy_classes(G)))
    assert len(configs) == 18
    assert all(w == pytest.approx(1 / 18, abs=1e-15) for _, w in configs)
    partition_graph(G, m, C, hk, cap=18)
    with pytest.raises(CapExceeded):
        partition_graph(G, m, C, hk, cap=17)


def test_sample_df_gauge_dependent_edge_law():
    """A spanning-tree edge is the identity on every gauge-fixed
    representative; the draws must still follow its full field law."""
    G, hk = make_hk("S3")
    m, _ = subdivide_edge(torus_map(), 0)
    tree = sorted(spanning_tree(m))
    other = next(e for e in m.edges() if e not in tree)
    pair = (tree[0], other)
    law = Counter()
    for config, w in brute_field(G, m, GConstraints(), hk):
        law[tuple(config[e] for e in pair)] += w
    z = sum(law.values())
    draws = sample_df(G, m, GConstraints(), hk, seed=23, count=4000)
    counts = Counter(tuple(config[e] for e in pair) for config in draws)
    for key in set(law) | set(counts):
        assert counts[key] / 4000 == pytest.approx(law[key] / z, abs=0.03)
    assert len({config[tree[0]] for config in draws}) == G.n


def test_sample_df_exact_path_follows_gauge_fixed_count():
    """6^6 raw configurations but 18 representatives: exact sampling, which
    keeps the boundary constraints, not the unconstrained heat bath."""
    G, hk = make_hk("S3")
    spec = SurfaceSpec(True, 0, 3, 1.0, (1, 1, 2))
    m = standard_map(spec)
    C = GConstraints(boundary_classes=spec.constraints)
    classes = conjugacy_classes(G)
    draws = sample_df(G, m, C, hk, seed=3, count=20, exact_limit=100)
    for config in draws:
        for circ, c in zip(m.boundary, spec.constraints):
            h = holonomy_of_word(G, m, config, EdgeWord(m.vertex_of(circ[0]),
                                                        circ))
            assert classes.class_of[h] == c


SPLIT_SPECS = [
    SurfaceSpec(True, 2, 0, 1.0),
    SurfaceSpec(True, 0, 1, 1.0, (1,)),
    SurfaceSpec(True, 0, 2, 1.0, (1, 2)),
    SurfaceSpec(True, 2, 1, 1.0, (1,)),
    SurfaceSpec(False, 1, 0, 1.0),
    SurfaceSpec(False, 2, 0, 1.0),
    SurfaceSpec(False, 3, 0, 1.0),
    SurfaceSpec(False, 1, 1, 1.0, (1,)),
]


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=[
    "torus", "disk", "annulus", "holed torus", "projective plane",
    "klein bottle", "three cross-caps", "moebius band"])
def test_split_face_sub_areas_every_corner_pair(spec):
    """Every chord of the standard map's face: the half holding corner i
    gets the first sub-area and the other half the second, on
    non-orientable maps too, so the graph sum still equals the formula."""
    G, hk = make_hk("S3")
    m = standard_map(spec)
    C = GConstraints(spec.constraints)
    zf = partition_formula(G, spec, hk)
    cyc = faces(m).cycles[0]
    for i, j in itertools.permutations(range(len(cyc)), 2):
        fine, cont = split_face(m, 0, i, j, (0.3, 0.7))
        fs = faces(fine)
        for k, cycle in enumerate(fs.cycles):
            if cont[k] != 0:
                continue
            darts = set(cycle) | {(fine.alpha[d], -e) for d, e in cycle}
            expect = 0.3 if cyc[i] in darts else 0.7
            assert fine.areas[k] == pytest.approx(expect, abs=1e-15)
        assert partition_graph(G, fine, C, hk) == pytest.approx(zf, abs=1e-12)
