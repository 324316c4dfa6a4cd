"""Combinatorial maps on compact surfaces, possibly with boundary and
non-orientable, encoded by a dart involution, vertex rotations and an edge
signature. Faces are read off a framed permutation; Euler characteristic,
genus and orientability follow. Also provides the standard one-face polygon
map for each surface type and the two refinement moves (edge subdivision
and face splitting).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

__all__ = [
    "SurfaceSpec",
    "RibbonMap",
    "FaceSet",
    "MapError",
    "faces",
    "euler_and_genus",
    "standard_map",
    "subdivide_edge",
    "split_face",
    "map_to_json",
    "map_from_json",
]


class MapError(ValueError):
    pass


@dataclass(frozen=True)
class SurfaceSpec:
    """A compact surface type: orientability, reduced genus, boundary count,
    total area, and one conjugacy-class index per boundary component."""

    orientable: bool
    genus: int
    boundaries: int
    area: float
    constraints: tuple[int, ...] = ()

    def __post_init__(self):
        if self.orientable:
            if self.genus < 0 or self.genus % 2 != 0:
                raise MapError("orientable reduced genus must be even and >= 0")
        else:
            if self.genus < 1:
                raise MapError("non-orientable genus must be >= 1")
        if self.boundaries < 0:
            raise MapError("boundary count must be >= 0")
        if not self.area > 0:
            raise MapError("total area must be positive")
        if not math.isfinite(self.area):
            raise MapError("total area must be finite")
        if len(self.constraints) != self.boundaries:
            raise MapError("need one boundary class per boundary component")


def _cycles_of(perm: list[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(cyc)
    return out


@dataclass(frozen=True)
class RibbonMap:
    """Map data. Darts are 0..2e-1; alpha[d] is the reverse dart; sigma is
    the successor in the rotation at the dart's base vertex; lam[d] = lam of
    the unoriented edge of d; boundary lists each boundary circuit as the
    sequence of its positively-bounding darts. Areas (one per face, in face
    order) are optional data.
    """

    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    lam: tuple[int, ...]
    boundary: tuple[tuple[int, ...], ...] = ()
    areas: tuple[float, ...] | None = None
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.alpha)
        if m == 0 or m % 2:
            raise MapError("dart count must be positive and even")
        if sorted(self.alpha) != list(range(m)) or any(
            self.alpha[self.alpha[d]] != d or self.alpha[d] == d for d in range(m)
        ):
            raise MapError("alpha must be a fixed-point-free involution")
        if sorted(self.sigma) != list(range(m)):
            raise MapError("sigma must be a permutation of the darts")
        if len(self.lam) != m or any(
            self.lam[d] not in (1, -1) or self.lam[d] != self.lam[self.alpha[d]]
            for d in range(m)
        ):
            raise MapError("lam must be +/-1 and constant on each edge")
        bset = set()
        for circ in self.boundary:
            if not circ:
                raise MapError("boundary circuits must be non-empty")
            for d in circ:
                if d in bset or self.alpha[d] in bset:
                    raise MapError("boundary circuits must be edge-disjoint")
                bset.add(d)
                if self.lam[d] != 1:
                    raise MapError("boundary edges must carry signature +1")
        for circ in self.boundary:
            for i, d in enumerate(circ):
                nxt = circ[(i + 1) % len(circ)]
                if self.vertex_of(nxt) != self.vertex_of(self.alpha[d]):
                    raise MapError("boundary circuit does not chain head-to-tail")
        # the framed permutation must stay inside the framing restriction
        frset = set(self.framed_darts())
        for d, eps in frset:
            if self.phi(d, eps) not in frset:
                raise MapError("boundary marking incompatible with rotations")

    @property
    def n_darts(self) -> int:
        return len(self.alpha)

    @property
    def n_edges(self) -> int:
        return len(self.alpha) // 2

    def edge_of(self, d: int) -> int:
        """Edges are named by their smaller dart."""
        return min(d, self.alpha[d])

    def edges(self) -> list[int]:
        return [d for d in range(self.n_darts) if d < self.alpha[d]]

    def _cached(self, key: str, build):
        """Data derived from the map, built on first use and kept."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def vertex_cycles(self) -> list[list[int]]:
        return self._cached("vertices", _vertices)[0]

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_cycles())

    def vertex_of(self, d: int) -> int:
        return self._cached("vertices", _vertices)[1][d]

    def boundary_darts(self) -> set[int]:
        out = set()
        for circ in self.boundary:
            for d in circ:
                out.add(d)
                out.add(self.alpha[d])
        return out

    def framed_darts(self) -> tuple[tuple[int, int], ...]:
        """All (dart, framing sign) pairs; a positively-bounding boundary
        dart keeps only +1, its reverse only -1, interior darts keep both."""
        return self._cached("framed", _framed_darts)

    def phi(self, d: int, eps: int) -> tuple[int, int]:
        """The facial permutation on framed darts: sigma^-s at the reverse
        dart, s = lam(d) eps."""
        s = self.lam[d] * eps
        rotation = self.sigma if s == -1 else self._cached(
            "sigma_inv", _inverse_rotation)
        return rotation[self.alpha[d]], s

    def twin(self, d: int, eps: int) -> tuple[int, int]:
        """The framed dart running the same edge side the other way: the
        facial permutation runs a face's reversed cycle through the twins
        of its darts. The face across the edge holds twin(d, -eps)."""
        return self.alpha[d], -self.lam[d] * eps

    def with_areas(self, areas) -> "RibbonMap":
        areas = tuple(float(a) for a in areas)
        if len(areas) != len(faces(self).cycles):
            raise MapError("need one area per face")
        if not all(0 < a < math.inf for a in areas):
            raise MapError("face areas must be positive and finite")
        # the derived data do not depend on the areas: the two maps share it
        return replace(self, areas=areas)


def _vertices(m: RibbonMap) -> tuple[list[list[int]], list[int]]:
    """The vertex cycles of sigma, ordered by their lowest dart, and the
    vertex of every dart."""
    cycles = sorted(_cycles_of(list(m.sigma)), key=min)
    vertex_of = [0] * m.n_darts
    for v, cyc in enumerate(cycles):
        for d in cyc:
            vertex_of[d] = v
    return cycles, vertex_of


def _framed_darts(m: RibbonMap) -> tuple[tuple[int, int], ...]:
    pos = {d for circ in m.boundary for d in circ}
    out = []
    for d in range(m.n_darts):
        if d in pos:
            out.append((d, 1))
        elif m.alpha[d] in pos:
            out.append((d, -1))
        else:
            out.append((d, 1))
            out.append((d, -1))
    return tuple(out)


def _inverse_rotation(m: RibbonMap) -> tuple[int, ...]:
    # sigma^-1 lists the darts in the order of their images under sigma
    return tuple(sorted(range(m.n_darts), key=m.sigma.__getitem__))


def _framed_key(item: tuple[int, int]) -> tuple[int, int]:
    d, eps = item
    return (d, 0 if eps == 1 else 1)


@dataclass(frozen=True)
class FaceSet:
    """Interior faces as framed dart cycles, one representative per face
    (the orientation-reversed twin is dropped), in a deterministic order;
    home gives the face of every framed dart in either orientation."""

    cycles: tuple[tuple[tuple[int, int], ...], ...]
    home: dict[tuple[int, int], int] = field(compare=False, repr=False)


def _vertex_signs(m: RibbonMap) -> list[int] | None:
    """Gauge signs making the signature +1 everywhere, or None if the map is
    non-orientable (the signed graph is unbalanced)."""
    v = m.n_vertices
    sign = [0] * v
    for root in range(v):
        if sign[root]:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for d in m.vertex_cycles()[u]:
                w = m.vertex_of(m.alpha[d])
                s = sign[u] * m.lam[d]
                if sign[w] == 0:
                    sign[w] = s
                    stack.append(w)
                elif sign[w] != s:
                    return None
    return sign


def faces(m: RibbonMap) -> FaceSet:
    return m._cached("faces", _faces)


def _faces(m: RibbonMap) -> FaceSet:
    fr = list(m.framed_darts())
    seen = set()
    cycles = []
    for start in sorted(fr, key=_framed_key):
        if start in seen:
            continue
        cyc = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = m.phi(*cur)
        cycles.append(cyc)
    # pair each cycle with its orientation reversal and keep one of the two
    index_of = {}
    for i, cyc in enumerate(cycles):
        for item in cyc:
            index_of[item] = i
    signs = m._cached("signs", _vertex_signs)
    reps = []
    used = set()
    for i, cyc in enumerate(cycles):
        if i in used:
            continue
        j = index_of[m.twin(*cyc[0])]
        if j == i:
            raise MapError("facial cycle equals its own reversal")
        used.update((i, j))
        if signs is not None:
            # orientable: keep the cycle lying in the positive orientation
            # class (gauge sign at the base vertex times the framing)
            d, eps = cyc[0]
            pick = cyc if signs[m.vertex_of(d)] * eps == 1 else cycles[j]
        else:
            a = min(cyc, key=_framed_key)
            b = min(cycles[j], key=_framed_key)
            pick = cyc if _framed_key(a) <= _framed_key(b) else cycles[j]
        k = pick.index(min(pick, key=_framed_key))
        reps.append((tuple(pick[k:] + pick[:k]), i, j))
    reps.sort(key=lambda rep: _framed_key(rep[0][0]))
    face_of = {c: f for f, (_, i, j) in enumerate(reps) for c in (i, j)}
    return FaceSet(tuple(rep for rep, _, _ in reps),
                   {item: face_of[c] for item, c in index_of.items()})


def is_orientable(m: RibbonMap) -> bool:
    """Signed-graph balance of the signature: the map is orientable iff the
    signature can be gauged to +1 everywhere."""
    return m._cached("signs", _vertex_signs) is not None


def euler_and_genus(m: RibbonMap) -> tuple[int, bool, int, int]:
    """(Euler characteristic, orientable?, reduced genus, boundary count)."""
    f = len(faces(m).cycles)
    chi = m.n_vertices - m.n_edges + f
    p = len(m.boundary)
    ori = is_orientable(m)
    g = 2 - p - chi
    if ori and (g % 2 or g < 0):
        raise MapError("inconsistent Euler data for an orientable map")
    if not ori and g < 1:
        raise MapError("inconsistent Euler data for a non-orientable map")
    return chi, ori, g, p


def standard_map(spec: SurfaceSpec) -> RibbonMap:
    """The one-interior-face polygon model of a surface: a single interior
    vertex carrying the canonical word (commutators if orientable, squares
    if not) followed by spoke-conjugated boundary loops."""
    g, p = spec.genus, spec.boundaries
    if g == 0 and p == 0:
        # sphere: a single interior loop edge, two faces
        m = RibbonMap(alpha=(1, 0), sigma=(1, 0), lam=(1, 1))
        return m.with_areas(_proportional(spec.area, faces(m)))
    n_edges = g + 2 * p
    # darts: a-edge i has darts (2i, 2i+1); then per boundary i the spoke
    # (base at the interior vertex, head at the boundary vertex) and the loop
    a_darts = [(2 * i, 2 * i + 1) for i in range(g)]
    spoke = [(2 * g + 4 * i, 2 * g + 4 * i + 1) for i in range(p)]
    loop = [(2 * g + 4 * i + 2, 2 * g + 4 * i + 3) for i in range(p)]
    m2 = 2 * n_edges
    alpha = [0] * m2
    lam = [1] * m2
    for d, e in a_darts + spoke + loop:
        alpha[d], alpha[e] = e, d
    word: list[tuple[int, int]] = []
    if spec.orientable:
        for i in range(0, g, 2):
            x, y = a_darts[i], a_darts[i + 1]
            word += [(x[0], 1), (y[0], 1), (x[1], 1), (y[1], 1)]
    else:
        for i in range(g):
            lam[a_darts[i][0]] = lam[a_darts[i][1]] = -1
            word += [(a_darts[i][0], 1), (a_darts[i][0], -1)]
    for i in range(p):
        word += [(spoke[i][0], 1), (loop[i][0], 1), (spoke[i][1], 1)]
    # each step (d, eps) -> (d', eps') of phi along the word is one link of
    # the rotation, sigma^{-eps'}(alpha(d)) = d', so the word is one face
    sigma = [0] * m2
    for k, (d, eps) in enumerate(word):
        d2, eps2 = word[(k + 1) % len(word)]
        if lam[d] * eps != eps2:
            raise MapError("canonical word framing is inconsistent")
        if eps2 == 1:
            sigma[d2] = alpha[d]
        else:
            sigma[alpha[d]] = d2
    # at each boundary vertex the word links loop -> spoke' -> loop', and
    # loop' -> loop closes the rotation
    for d, e in loop:
        sigma[e] = d
    m = RibbonMap(
        alpha=tuple(alpha),
        sigma=tuple(sigma),
        lam=tuple(lam),
        boundary=tuple((loop[i][0],) for i in range(p)),
    )
    fs = faces(m)
    if len(fs.cycles) != 1 + (0 if p or g else 1):
        raise MapError("standard map construction did not give one face")
    chi, ori, gg, pp = euler_and_genus(m)
    if (ori, gg, pp) != (spec.orientable, g, p):
        raise MapError("standard map has wrong topology")
    return m.with_areas(_proportional(spec.area, fs))


def _proportional(total: float, fs: FaceSet) -> list[float]:
    lens = [len(c) for c in fs.cycles]
    s = sum(lens)
    return [total * L / s for L in lens]


def _transfer_areas(old: RibbonMap, new: RibbonMap, containment: dict[int, int],
                    sub_areas: dict[int, float] | None = None) -> RibbonMap:
    if old.areas is None:
        return new
    fs_new = faces(new)
    areas = []
    for i in range(len(fs_new.cycles)):
        if sub_areas is not None and i in sub_areas:
            areas.append(sub_areas[i])
        else:
            areas.append(old.areas[containment[i]])
    return new.with_areas(areas)


def _containment_by_darts(old: RibbonMap, new: RibbonMap) -> dict[int, int]:
    """Match each new face to the old face sharing a dart (for refinements
    that only insert darts)."""
    old_home = faces(old).home
    out = {}
    for j, cyc in enumerate(faces(new).cycles):
        homes = {old_home[item] for item in cyc if item in old_home}
        if len(homes) != 1:
            raise MapError("could not match refined face to a coarse face")
        out[j] = homes.pop()
    return out


def subdivide_edge(m: RibbonMap, edge_dart: int) -> tuple[RibbonMap, dict[int, int]]:
    """Replace the edge of edge_dart by two edges meeting at a new degree-2
    vertex. Returns the refined map and the new-face -> old-face match."""
    d = edge_dart
    db = m.alpha[d]
    n1, n2 = m.n_darts, m.n_darts + 1
    alpha = list(m.alpha) + [d, db]
    alpha[d], alpha[db] = n1, n2
    sigma = list(m.sigma) + [n2, n1]
    lam = list(m.lam) + [1, 1]
    lam[n1] = lam[d]  # first half keeps the old signature, second half is +1
    lam[db] = 1
    boundary = []
    for circ in m.boundary:
        out = []
        for c in circ:
            out.append(c)
            if c == d:
                out.append(n2)
            elif c == db:
                out.append(n1)
        boundary.append(tuple(out))
    new = RibbonMap(tuple(alpha), tuple(sigma), tuple(lam), tuple(boundary))
    cont = _containment_by_darts(m, new)
    return _transfer_areas(m, new, cont), cont


def split_face(
    m: RibbonMap,
    face: int,
    corner_i: int,
    corner_j: int,
    sub_areas: tuple[float, float] | None = None,
) -> tuple[RibbonMap, dict[int, int]]:
    """Add a chord between two corners of one face, splitting it in two.
    Corners are positions in the face's representative framed cycle; the
    chord runs from corner_i's vertex to corner_j's. sub_areas are the areas
    of (the face starting at corner_i, the face starting at corner_j)."""
    fs = faces(m)
    cyc = fs.cycles[face]
    r = len(cyc)
    if not (0 <= corner_i < r and 0 <= corner_j < r) or corner_i == corner_j:
        raise MapError("corners must be distinct positions on the face")
    if corner_i > corner_j:
        corner_i, corner_j = corner_j, corner_i
        if sub_areas is not None:
            sub_areas = (sub_areas[1], sub_areas[0])
    ei, epsi = cyc[corner_i]
    ej, epsj = cyc[corner_j]
    gd, gr = m.n_darts, m.n_darts + 1
    alpha = list(m.alpha) + [gr, gd]
    lam = list(m.lam) + [epsi * epsj, epsi * epsj]
    sigma = list(m.sigma) + [0, 0]

    def insert_after(d_ref: int, d_new: int, direction: int):
        # place d_new right after d_ref in sigma^direction
        if direction == 1:
            sigma[d_new] = sigma[d_ref]
            sigma[d_ref] = d_new
        else:
            inv = {b: a for a, b in enumerate(sigma[: m.n_darts])}
            prev = inv[d_ref]
            sigma[prev] = d_new
            sigma[d_new] = d_ref

    insert_after(ei, gd, epsi)
    insert_after(ej, gr, epsj)
    new = RibbonMap(tuple(alpha), tuple(sigma), tuple(lam), m.boundary)
    fs_new = faces(new)
    if len(fs_new.cycles) != len(fs.cycles) + 1:
        raise MapError("face split did not add exactly one face")
    cont = _containment_by_darts(m, new)
    sub = {}
    for j, c in enumerate(fs_new.cycles):
        if cont[j] == face:
            if sub_areas is not None:
                sub[j] = sub_areas[0] if fs_new.home[cyc[corner_i]] == j \
                    else sub_areas[1]
            elif m.areas is not None:
                # no explicit sub-areas: split proportionally to perimeter
                sub[j] = m.areas[face] * len(c) / (r + 2)
    if m.areas is not None and sub_areas is not None:
        area = m.areas[face]
        if abs(sub_areas[0] + sub_areas[1] - area) > 1e-9 * area:
            raise MapError("sub-areas must sum to the split face's area")
        if min(sub_areas) <= 0:
            raise MapError("sub-areas must be positive")
    return _transfer_areas(m, new, cont, sub if sub else None), cont


def map_to_json(m: RibbonMap) -> str:
    fs = faces(m)
    data = {
        "darts": m.n_darts,
        "alpha": [[d, m.alpha[d]] for d in m.edges()],
        "sigma": {str(v): cyc for v, cyc in enumerate(m.vertex_cycles())},
        "lambda": {str(e): m.lam[e] for e in m.edges()},
        "boundary": [list(c) for c in m.boundary],
        "areas": {str(i): m.areas[i] for i in range(len(fs.cycles))}
        if m.areas is not None
        else {},
    }
    return json.dumps(data, sort_keys=True)


def _from_cycles(cycles, n: int, message: str) -> list[int]:
    """The permutation of range(n) with the given cycles: each dart listed
    exactly once, in a non-empty cycle, or MapError(message)."""
    if not all(cycles) or sorted(itertools.chain(*cycles)) != list(range(n)):
        raise MapError(message)
    perm = [0] * n
    for cyc in cycles:
        for i, d in enumerate(cyc):
            perm[d] = cyc[(i + 1) % len(cyc)]
    return perm


def _object(pairs: list) -> dict:
    """A JSON object, or MapError when it repeats a key that json.loads
    would otherwise read as its last value alone. Every input file is
    decoded through this hook."""
    if len({k for k, _ in pairs}) < len(pairs):
        raise MapError(f"object repeats a key: {[k for k, _ in pairs]}")
    return dict(pairs)


def map_from_json(text: str) -> RibbonMap:
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise MapError(f"invalid map JSON: {exc}") from exc
    try:
        n, pairs = data["darts"], data["alpha"]
        cycles = list(data["sigma"].values())
        signs = data.get("lambda", {})
        boundary = tuple(tuple(c) for c in data.get("boundary", []))
        # the dart count, darts and signs are JSON integers as they are: no
        # truncated floats, no strings, no bools standing in for 0 and 1
        for x in [n, *itertools.chain(*pairs), *itertools.chain(*cycles),
                  *signs.values(), *itertools.chain(*boundary)]:
            if type(x) is not int:
                raise MapError(f"map entry {x!r} is not an integer")
        # each sign keyed by a dart as map_to_json writes it, each boundary
        # dart in range: a negative index would wrap round to another dart
        darts = {str(d): d for d in range(n)}
        for e in signs:
            if e not in darts:
                raise MapError(f"lambda key {e!r} names no dart")
        for d in itertools.chain(*boundary):
            if not 0 <= d < n:
                raise MapError(f"boundary dart {d} is outside the map")
        # alpha's pairs are its 2-cycles
        alpha = _from_cycles(pairs, n,
                             "alpha must be a fixed-point-free involution")
        sigma = _from_cycles(cycles, n,
                             "sigma must be a permutation of the darts")
        lam = [1] * n
        signed = set()
        for e, s in signs.items():
            d = darts[e]
            if d in signed:
                raise MapError(f"lambda signs the edge of dart {d} twice")
            signed.update((d, alpha[d]))
            lam[d] = lam[alpha[d]] = s
    except (AttributeError, KeyError, TypeError, IndexError) as exc:
        raise MapError(f"malformed map data: {exc}") from exc
    m = RibbonMap(tuple(alpha), tuple(sigma), tuple(lam), boundary)
    areas = data.get("areas", {})
    if areas == {}:  # a map without areas, as map_to_json writes it
        return m
    keys = [str(i) for i in range(len(faces(m).cycles))]
    if not isinstance(areas, dict) or set(areas) != set(keys):
        raise MapError(f"areas must be an object keyed by the faces {keys}")
    values = [areas[k] for k in keys]
    # each a JSON number: no strings, no bools standing in for 0 and 1
    for a in values:
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise MapError(f"area {a!r} is not a number")
    return m.with_areas(values)
