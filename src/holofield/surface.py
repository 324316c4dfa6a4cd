"""Combinatorial maps on compact surfaces, possibly with boundary and
non-orientable, encoded by a dart involution, vertex rotations and an edge
signature. Faces are read off a framed permutation; Euler characteristic,
genus and orientability follow. Also provides the standard one-face polygon
map for each surface type and the two refinement moves (edge subdivision
and face splitting).
"""

from __future__ import annotations

import json
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
    "gauge_flip",
    "map_to_json",
    "map_from_json",
    "default_areas",
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

    def _vertex_data(self):
        if "vertex_cycles" not in self._derived:
            cycles = _cycles_of(list(self.sigma))
            cycles.sort(key=min)
            vof = [0] * self.n_darts
            for v, cyc in enumerate(cycles):
                for d in cyc:
                    vof[d] = v
            self._derived["vertex_cycles"] = cycles
            self._derived["vertex_of"] = vof
        return self._derived["vertex_cycles"], self._derived["vertex_of"]

    def vertex_cycles(self) -> list[list[int]]:
        return self._vertex_data()[0]

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_cycles())

    def vertex_of(self, d: int) -> int:
        return self._vertex_data()[1][d]

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
        if "framed" not in self._derived:
            pos = set()
            for circ in self.boundary:
                pos.update(circ)
            out = []
            for d in range(self.n_darts):
                if d in pos:
                    out.append((d, 1))
                elif self.alpha[d] in pos:
                    out.append((d, -1))
                else:
                    out.append((d, 1))
                    out.append((d, -1))
            self._derived["framed"] = tuple(out)
        return self._derived["framed"]

    def sigma_power(self, d: int, s: int) -> int:
        if s == 1:
            return self.sigma[d]
        if "sigma_inv" not in self._derived:
            inv = [0] * self.n_darts
            for x, y in enumerate(self.sigma):
                inv[y] = x
            self._derived["sigma_inv"] = tuple(inv)
        return self._derived["sigma_inv"][d]

    def phi(self, d: int, eps: int) -> tuple[int, int]:
        """The facial permutation on framed darts."""
        s = self.lam[d] * eps
        return self.sigma_power(self.alpha[d], -s), s

    def with_areas(self, areas) -> "RibbonMap":
        areas = tuple(float(a) for a in areas)
        if len(areas) != len(faces(self).cycles):
            raise MapError("need one area per face")
        if any(a <= 0 for a in areas):
            raise MapError("face areas must be positive")
        return replace(self, areas=areas, _derived={})


def _framed_key(item: tuple[int, int]) -> tuple[int, int]:
    d, eps = item
    return (d, 0 if eps == 1 else 1)


@dataclass(frozen=True)
class FaceSet:
    """Interior faces as framed dart cycles, one representative per face
    (the orientation-reversed twin is dropped), in a deterministic order."""

    cycles: tuple[tuple[tuple[int, int], ...], ...]

    def index_of(self, d: int, eps: int | None = None) -> int:
        for i, cyc in enumerate(self.cycles):
            for e, s in cyc:
                if e == d and (eps is None or s == eps):
                    return i
        raise MapError(f"dart {d} not found in any face representative")

    def word(self, i: int, m: RibbonMap) -> list[int]:
        """Face boundary as signed edge ids (edge+1 forward, -(edge+1) back)."""
        out = []
        for d, _ in self.cycles[i]:
            e = m.edge_of(d)
            out.append(e + 1 if d <= m.alpha[d] else -(e + 1))
        return out


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
    if "faces" in m._derived:
        return m._derived["faces"]
    fr = list(m.framed_darts())
    frset = set(fr)
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
            if cur not in frset:
                raise MapError("framed permutation escaped the framing set")
        cycles.append(cyc)
    # pair each cycle with its orientation reversal and keep one of the two
    def rev_key(cyc):
        d, eps = cyc[0]
        return (m.alpha[d], -m.lam[d] * eps)

    index_of = {}
    for i, cyc in enumerate(cycles):
        for item in cyc:
            index_of[item] = i
    signs = _vertex_signs(m)
    reps = []
    used = set()
    for i, cyc in enumerate(cycles):
        if i in used:
            continue
        j = index_of[rev_key(cyc)]
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
        reps.append(tuple(pick[k:] + pick[:k]))
    reps.sort(key=lambda c: _framed_key(c[0]))
    fs = FaceSet(tuple(reps))
    m._derived["faces"] = fs
    return fs


def is_orientable(m: RibbonMap) -> bool:
    """Signed-graph balance of the signature: the map is orientable iff the
    signature can be gauged to +1 everywhere."""
    return _vertex_signs(m) is not None


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


def _complete_rotation(darts_at_vertex: list[int], succ: dict[int, int]) -> dict:
    """Extend a partial successor relation at one vertex to a single cycle.
    The partial data must be acyclic chains; chains and isolated darts are
    linked in ascending order of their starting dart."""
    pred = {b: a for a, b in succ.items()}
    heads = sorted(d for d in darts_at_vertex if d not in pred)
    if not heads:
        # already a full cycle
        return succ
    full = dict(succ)
    for i, h in enumerate(heads):
        tail = h
        while tail in full:
            tail = full[tail]
        full[tail] = heads[(i + 1) % len(heads)]
    return full


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
    # rotation constraints so that the word is a single facial cycle:
    # a step (d, eps) -> (d', eps') of phi needs sigma^{-eps'}(alpha(d)) = d'
    succ: dict[int, int] = {}
    for k, (d, eps) in enumerate(word):
        d2, eps2 = word[(k + 1) % len(word)]
        if lam[d] * eps != eps2:
            raise MapError("canonical word framing is inconsistent")
        if eps2 == 1:
            succ[d2] = alpha[d]
        else:
            succ[alpha[d]] = d2
    interior = [d for pair in a_darts for d in pair] + [s[0] for s in spoke]
    sigma = dict(_complete_rotation(sorted(interior), {
        a: b for a, b in succ.items() if a in set(interior)
    }))
    for i in range(p):
        at_u = [spoke[i][1], loop[i][0], loop[i][1]]
        sigma.update(_complete_rotation(at_u, {
            a: b for a, b in succ.items() if a in set(at_u)
        }))
    m = RibbonMap(
        alpha=tuple(alpha),
        sigma=tuple(sigma[d] for d in range(m2)),
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


def default_areas(m: RibbonMap, total: float) -> RibbonMap:
    return m.with_areas(_proportional(total, faces(m)))


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
    old_home = {}
    for i, cyc in enumerate(faces(old).cycles):
        for d, eps in cyc:
            old_home[d, eps] = i
            old_home[old.alpha[d], -eps] = i
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
    cont = {}
    old_home = {}
    for i, c in enumerate(fs.cycles):
        for d, eps in c:
            old_home[d, eps] = i
            old_home[m.alpha[d], -eps] = i
    sub = {}
    for j, c in enumerate(fs_new.cycles):
        homes = {old_home[item] for item in c if item[0] < m.n_darts}
        if len(homes) != 1:
            raise MapError("face split produced an unmatchable face")
        cont[j] = homes.pop()
        if cont[j] == face:
            if sub_areas is not None:
                darts = {item for item in c} | {(new.alpha[d], -e)
                                                for d, e in c}
                # distinct faces have disjoint twin-closed dart sets
                sub[j] = sub_areas[0] if cyc[corner_i] in darts \
                    else sub_areas[1]
            elif m.areas is not None:
                # no explicit sub-areas: split proportionally to perimeter
                sub[j] = m.areas[face] * len(c) / (r + 2)
    if m.areas is not None and sub_areas is not None:
        if abs(sub_areas[0] + sub_areas[1] - m.areas[face]) > 1e-9:
            raise MapError("sub-areas must sum to the split face's area")
        if min(sub_areas) <= 0:
            raise MapError("sub-areas must be positive")
    return _transfer_areas(m, new, cont, sub if sub else None), cont


def gauge_flip(m: RibbonMap, vertex: int) -> RibbonMap:
    """Reverse the local orientation at one vertex: the rotation there is
    inverted and every non-loop edge at the vertex flips its signature."""
    cyc = m.vertex_cycles()[vertex]
    sigma = list(m.sigma)
    inv = {m.sigma[d]: d for d in cyc}
    for d in cyc:
        sigma[d] = inv[d]
    lam = list(m.lam)
    for d in cyc:
        if m.vertex_of(m.alpha[d]) != vertex:
            lam[d] = -lam[d]
            lam[m.alpha[d]] = -lam[m.alpha[d]]
    return RibbonMap(m.alpha, tuple(sigma), tuple(lam), m.boundary)


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


def map_from_json(text: str) -> RibbonMap:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapError(f"invalid map JSON: {exc}") from exc
    try:
        n = int(data["darts"])
        alpha = [-1] * n
        raw = data["alpha"]
        if raw and isinstance(raw[0], list):
            for a, b in raw:
                alpha[a], alpha[b] = b, a
        else:
            alpha = [int(x) for x in raw]
        sigma = [-1] * n
        for cyc in data["sigma"].values():
            for i, d in enumerate(cyc):
                sigma[d] = cyc[(i + 1) % len(cyc)]
        lam = [1] * n
        for e, s in data.get("lambda", {}).items():
            d = int(e)
            lam[d] = int(s)
            lam[alpha[d]] = int(s)
        boundary = tuple(tuple(c) for c in data.get("boundary", []))
    except (KeyError, TypeError, IndexError) as exc:
        raise MapError(f"malformed map data: {exc}") from exc
    m = RibbonMap(tuple(alpha), tuple(sigma), tuple(lam), boundary)
    areas = data.get("areas") or {}
    if areas:
        fs = faces(m)
        m = m.with_areas([float(areas[str(i)]) for i in range(len(fs.cycles))])
    return m
