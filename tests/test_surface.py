import hashlib
import json
import math
import random

import pytest

from holofield.surface import (
    MapError,
    RibbonMap,
    SurfaceSpec,
    euler_and_genus,
    faces,
    is_orientable,
    map_from_json,
    map_to_json,
    split_face,
    standard_map,
    subdivide_edge,
)
from oracles import default_areas, gauge_flip


def torus_map():
    # one vertex, two loops a, b with rotation a b a^-1 b^-1
    return RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1))


def theta_map():
    # two vertices joined by three parallel edges, planar embedding
    return RibbonMap((1, 0, 3, 2, 5, 4), (2, 5, 4, 1, 0, 3), (1,) * 6)


def projective_map():
    return RibbonMap((1, 0), (1, 0), (-1, -1))


def klein_map():
    return standard_map(SurfaceSpec(False, 2, 0, 1.0))


def test_torus_faces():
    m = torus_map()
    fs = faces(m)
    chi, orientable, g, p = euler_and_genus(m)
    assert len(fs.cycles) == 1
    assert chi == 0 and orientable and g == 2 and p == 0


def test_theta_faces():
    m = theta_map()
    fs = faces(m)
    chi, orientable, g, p = euler_and_genus(m)
    assert len(fs.cycles) == 3
    assert chi == 2 and orientable and g == 0 and p == 0


def test_projective_plane():
    m = projective_map()
    chi, orientable, g, p = euler_and_genus(m)
    assert chi == 1 and not orientable and g == 1 and p == 0


def test_klein_bottle():
    m = klein_map()
    chi, orientable, g, p = euler_and_genus(m)
    assert chi == 0 and not orientable and g == 2 and p == 0


def test_bad_alpha_rejected():
    with pytest.raises(MapError):
        RibbonMap((0, 1), (1, 0), (1, 1))  # alpha has fixed points
    with pytest.raises(MapError):
        RibbonMap((1, 0), (1, 0), (1, -1))  # lam not constant per edge


def test_empty_boundary_circuit_rejected():
    with pytest.raises(MapError, match="boundary circuits must be non-empty"):
        RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1), ((),))


STANDARD_SPECS = [
    SurfaceSpec(True, 0, 0, 1.0),
    SurfaceSpec(True, 2, 0, 1.0),
    SurfaceSpec(True, 4, 0, 2.0),
    SurfaceSpec(True, 0, 1, 1.0, (0,)),
    SurfaceSpec(True, 0, 3, 1.0, (0, 0, 0)),
    SurfaceSpec(True, 2, 1, 1.0, (0,)),
    SurfaceSpec(False, 1, 0, 1.0),
    SurfaceSpec(False, 2, 0, 1.0),
    SurfaceSpec(False, 3, 2, 1.0, (0, 0)),
]


@pytest.mark.parametrize("spec", STANDARD_SPECS)
def test_standard_map_topology(spec):
    m = standard_map(spec)
    chi, orientable, g, p = euler_and_genus(m)
    assert orientable == spec.orientable
    assert g == spec.genus
    assert p == spec.boundaries
    assert chi == 2 - spec.genus - spec.boundaries
    assert sum(m.areas) == pytest.approx(spec.area)


# sha256 of alpha, sigma, lam, boundary and areas of the standard maps of
# every orientable reduced genus 0-12 and non-orientable genus 1-8, each
# with 0-4 boundaries
STANDARD_MAPS_DIGEST = (
    "9659657b5d10117fbd8188d1b66a56fb2f90a74626fe88df25abc74c9f8af93b")


def test_standard_maps_over_a_sweep_are_pinned():
    digest = hashlib.sha256()
    for orientable, genera in ((True, range(0, 13, 2)), (False, range(1, 9))):
        for g in genera:
            for p in range(5):
                m = standard_map(SurfaceSpec(orientable, g, p, 1.0 + g + p,
                                             (0,) * p))
                digest.update(repr((m.alpha, m.sigma, m.lam, m.boundary,
                                    m.areas)).encode())
    assert digest.hexdigest() == STANDARD_MAPS_DIGEST


def test_orientable_genus_parity_enforced():
    with pytest.raises(MapError):
        SurfaceSpec(True, 1, 0, 1.0)
    with pytest.raises(MapError):
        SurfaceSpec(False, 0, 0, 1.0)


@pytest.mark.parametrize("area", [math.inf, math.nan])
def test_non_finite_areas_rejected(area):
    with pytest.raises(MapError):
        SurfaceSpec(True, 2, 0, area)
    m = standard_map(SurfaceSpec(True, 2, 0, 1.0))
    with pytest.raises(MapError):
        m.with_areas([area])
    split, _ = split_face(m, 0, 0, 2)
    with pytest.raises(MapError):
        split.with_areas([0.5, area])


def test_subdivide_edge_preserves_topology_and_area():
    m = standard_map(SurfaceSpec(True, 2, 0, 1.0))
    m2, cont = subdivide_edge(m, 0)
    assert m2.n_edges == m.n_edges + 1
    assert euler_and_genus(m2) == euler_and_genus(m)
    assert sum(m2.areas) == pytest.approx(sum(m.areas))
    assert set(cont.values()) <= set(range(len(faces(m).cycles)))


def test_split_face_adds_one_face():
    m = standard_map(SurfaceSpec(True, 2, 0, 1.0))
    m2, cont = split_face(m, 0, 0, 2, (0.4, 0.6))
    assert len(faces(m2).cycles) == len(faces(m).cycles) + 1
    assert euler_and_genus(m2)[0] == euler_and_genus(m)[0]
    assert sorted(m2.areas) == [pytest.approx(0.4), pytest.approx(0.6)]


def test_split_face_default_areas_are_proportional():
    m = standard_map(SurfaceSpec(True, 2, 0, 1.0))
    m2, _ = split_face(m, 0, 0, 2)
    assert sum(m2.areas) == pytest.approx(1.0)
    assert all(a > 0 for a in m2.areas)


def test_split_face_bad_areas_rejected():
    m = standard_map(SurfaceSpec(True, 2, 0, 1.0))
    with pytest.raises(MapError):
        split_face(m, 0, 0, 2, (0.4, 0.7))


def test_split_face_checks_sub_areas_relative_to_the_area():
    """Exact splits of a large face pass, though their float sum may round
    off the area; a split off by 1e-6 of the area still fails."""
    rng = random.Random(17)
    for _ in range(2000):
        area = 10 ** rng.uniform(6, 9)
        f = rng.uniform(0.01, 0.99)
        m = standard_map(SurfaceSpec(True, 2, 0, area))
        m2, _ = split_face(m, 0, 0, 2, (f * area, (1 - f) * area))
        assert sorted(m2.areas) == sorted((f * area, (1 - f) * area))
    m = standard_map(SurfaceSpec(True, 2, 0, 1e6))
    with pytest.raises(MapError, match="sum to the split face's area"):
        split_face(m, 0, 0, 2, (0.4e6, 0.6e6 + 1.0))


def test_split_then_subdivide_chain():
    m = standard_map(SurfaceSpec(True, 2, 0, 1.0))
    m2, _ = split_face(m, 0, 0, 2, (0.4, 0.6))
    m3, _ = subdivide_edge(m2, 0)
    chi, orientable, g, p = euler_and_genus(m3)
    assert (chi, orientable, g, p) == (0, True, 2, 0)
    assert sum(m3.areas) == pytest.approx(1.0)


def test_gauge_flip_preserves_topology():
    m = theta_map()
    for v in range(len(m.vertex_cycles())):
        flipped = gauge_flip(m, v)
        assert euler_and_genus(flipped) == euler_and_genus(m)
        assert len(faces(flipped).cycles) == len(faces(m).cycles)


def test_gauge_flip_makes_lambda_nontrivial_but_orientable():
    m = torus_map()
    flipped = gauge_flip(m, 0)
    assert is_orientable(flipped)


def test_json_roundtrip():
    m = standard_map(SurfaceSpec(True, 2, 1, 1.5, (0,)))
    text = map_to_json(m)
    m2 = map_from_json(text)
    assert m2.alpha == m.alpha
    assert m2.sigma == m.sigma
    assert m2.lam == m.lam
    assert m2.boundary == m.boundary
    assert m2.areas == pytest.approx(m.areas)
    data = json.loads(text)
    assert data["darts"] == m.n_darts


# the disk's map file, {"alpha": [[0, 1], [2, 3]], "areas": {"0": 1.0},
# "boundary": [[2]], "darts": 4, "lambda": {"0": 1, "2": 1}, "sigma":
# {"0": [0], "1": [1, 3, 2]}}, with one entry replaced
BAD_MAP_ENTRIES = [
    {"darts": 4.9},
    {"darts": "4"},
    {"darts": True},
    {"alpha": [[0, 1.0], [2, 3]]},
    {"alpha": [[0, 1], [2, True]]},
    {"alpha": [1, 0, 3, "2"]},
    {"alpha": "1032"},
    {"sigma": {"0": [0.0], "1": [1, 3, 2]}},
    {"sigma": {"0": [0], "1": [1, "3", 2]}},
    {"sigma": [[0], [1, 3, 2]]},
    {"lambda": {"0": 1.7, "2": 1}},
    {"lambda": {"0": True, "2": 1}},
    {"boundary": [[2.0]]},
    {"boundary": [[False]]},
    {"areas": {"0": "1.0"}},
    {"areas": {"0": True}},
    {"lambda": {"-4": -1, "2": 1}},
    {"lambda": {"4": 1}},
    {"boundary": [[-2]]},
    {"boundary": [[4]]},
    {"areas": [1.0]},
    {"areas": {"1": 1.0}},
    {"areas": {"0": 1.0, "1": 1.0}},
    {"lambda": {"0": -1, "1": 1}},
    {"sigma": {"0": [0, 0], "1": [1, 3, 2]}},
    {"sigma": {"0": [0], "1": [1, 3, 2], "2": []}},
    {"alpha": [[0, 1], [2, 3], [0, 1]]},
    {"boundary": [[]], "areas": {}},
    {"alpha": [1, 0, 3, 2]},
]


@pytest.mark.parametrize("entry", BAD_MAP_ENTRIES, ids=json.dumps)
def test_map_file_numbers_are_strict(entry):
    """Darts, signs and the dart count are JSON integers and areas JSON
    numbers: none is coerced into another map. Sign keys and boundary
    darts name darts of the map, and the areas key each face once. Each
    dart is listed once in alpha's pairs and once in sigma's cycles, each
    edge has at most one sign, and no cycle or circuit is empty."""
    data = json.loads(map_to_json(standard_map(SurfaceSpec(True, 0, 1, 1.0,
                                                           (0,)))))
    # the file as written loads
    assert map_from_json(json.dumps(data)).boundary == ((2,),)
    with pytest.raises(MapError):
        map_from_json(json.dumps({**data, **entry}))


@pytest.mark.parametrize("key, once, twice", [
    ("lambda", '{"0": -1}', '{"0": -1, "0": 1}'),
    ("areas", '{"0": 2.0}', '{"0": 1.0, "0": 2.0}'),
])
def test_map_file_keys_are_given_once(key, once, twice):
    """A key given twice in one object of the file is a bad map file, not
    its last value: no sign or area is silently dropped."""
    data = json.loads(map_to_json(standard_map(SurfaceSpec(True, 0, 1, 1.0,
                                                           (0,)))))
    text = json.dumps({**data, key: None})
    m = map_from_json(text.replace(f'"{key}": null', f'"{key}": {once}'))
    assert (m.lam[0], m.areas) == ((-1, (1.0,)) if key == "lambda"
                                   else (1, (2.0,)))
    with pytest.raises(MapError, match="repeats a key"):
        map_from_json(text.replace(f'"{key}": null', f'"{key}": {twice}'))


def test_default_areas_proportional_to_perimeter():
    m = theta_map()
    m2 = default_areas(m, 3.0)
    assert sum(m2.areas) == pytest.approx(3.0)
    fs = faces(m)
    perims = [len(c) for c in fs.cycles]
    for a, per in zip(m2.areas, perims):
        assert a == pytest.approx(3.0 * per / sum(perims))


def test_boundary_darts_excluded_from_faces():
    spec = SurfaceSpec(True, 0, 1, 1.0, (0,))
    m = standard_map(spec)
    boundary = set(m.boundary_darts())
    for cyc in faces(m).cycles:
        for d, eps in cyc:
            # a boundary dart appears only with its bounding side
            if d in boundary:
                assert eps == 1
