"""Reference routes that only the tests call.

Each is an independent, brute-force way to a value the package computes
by its one route, or a check or convenience the package itself never
needs: the builtin group names and the uniform law on one class, the
positivity support of the series heat kernel, the gauge flip of a map and
its perimeter-proportional areas, concatenated, inverted and reduced
words, free bases and abelianized words of map loops, word holonomies
read from an edge dict, the tame system refined across a face split, the
enumerated monodromy tuples, the automorphism order of a single
monodromy tuple, and the k-twist bundle mass by its two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from holofield.covering import (
    MonodromyTuple,
    _Shape,
    _tuple_rows,
    _tuples_of,
)
from holofield.groups import (
    _BUILTINS,
    ClassMeasure,
    ConjugacyClassTable,
    FiniteGroup,
    _class_law,
    _conj,
    _measure,
    conjugacy_classes,
    convolution_power,
)
from holofield.holonomy import DEFAULT_CAP, measure_m
from holofield.levy import JumpMeasure, heat_kernel_series
from holofield.loops import (
    EdgeWord,
    TameGenerators,
    _inv,
    _lassos,
    _reduced,
    _tree_paths,
    holonomy_of_steps,
    spanning_tree,
    word_end,
    word_steps,
)
from holofield.surface import (
    MapError,
    RibbonMap,
    SurfaceSpec,
    _proportional,
    faces,
)


# ---------------------------------------------------------------------------
# groups


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def delta_class(G: FiniteGroup, c: int) -> ClassMeasure:
    """Uniform probability measure on the conjugacy class with index c."""
    return _measure(G, _class_law(conjugacy_classes(G), c))


# ---------------------------------------------------------------------------
# levy


@dataclass
class SupportReport:
    subgroup: frozenset[int]
    min_on_subgroup: float
    max_off_subgroup: float
    positive_on_subgroup: bool
    vanishes_off_subgroup: bool

    @property
    def ok(self) -> bool:
        return self.positive_on_subgroup and self.vanishes_off_subgroup


def positivity_support_check(pi: JumpMeasure, t: float) -> SupportReport:
    """Q_t, by the series, is positive exactly on the subgroup generated by
    supp(Pi) and within 1e-10 of zero off it."""
    if t <= 0:
        raise ValueError("time must be positive")
    H = pi.group.subgroup_generated(pi.support())
    q = heat_kernel_series(pi, t)
    on = [q.values[x] for x in sorted(H)]
    off = [q.values[x] for x in range(pi.group.n) if x not in H]
    return SupportReport(
        subgroup=H,
        min_on_subgroup=min(on),
        max_off_subgroup=max(map(abs, off)) if off else 0.0,
        positive_on_subgroup=min(on) > 0,
        vanishes_off_subgroup=(not off) or max(map(abs, off)) <= 1e-10,
    )


# ---------------------------------------------------------------------------
# surface


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


def default_areas(m: RibbonMap, total: float) -> RibbonMap:
    return m.with_areas(_proportional(total, faces(m)))


# ---------------------------------------------------------------------------
# loops


def concat(m: RibbonMap, *words: EdgeWord) -> EdgeWord:
    if not words:
        raise MapError("nothing to concatenate")
    out = list(words[0].darts)
    at = word_end(m, words[0])
    for w in words[1:]:
        if w.base != at:
            raise MapError("concatenation endpoints do not match")
        out.extend(w.darts)
        at = word_end(m, w)
    return EdgeWord(words[0].base, tuple(out))


def inverse(m: RibbonMap, w: EdgeWord) -> EdgeWord:
    return EdgeWord(word_end(m, w), _inv(m, w.darts))


def reduce_word(m: RibbonMap, w: EdgeWord) -> EdgeWord:
    """The unique shortest representative of w with the same endpoints."""
    return EdgeWord(w.base, _reduced(m, w.darts))


def validate_word(m: RibbonMap, w: EdgeWord) -> None:
    at = w.base
    for d in w.darts:
        if not (0 <= d < m.n_darts):
            raise MapError(f"dart {d} outside the map")
        if m.vertex_of(d) != at:
            raise MapError("word does not chain head-to-tail")
        at = m.vertex_of(m.alpha[d])


def holonomy_of_word(G: FiniteGroup, m: RibbonMap, config: dict[int, int],
                     w: EdgeWord) -> int:
    """Holonomy of a word: edge elements multiplied in traversal order,
    inverted on reversed darts. config maps each edge id (its smaller dart)
    to a group element."""
    return holonomy_of_steps(G, word_steps(m, w.darts), config)


def free_basis(m: RibbonMap, base: int) -> list[EdgeWord]:
    """The lassos at base of the edges off the spanning tree."""
    tree = spanning_tree(m)
    to_base = _tree_paths(m, tree, base)
    return [_lassos(m, base, to_base, [e]) for e in m.edges() if e not in tree]


def abelianization(m: RibbonMap, w: EdgeWord) -> tuple[int, ...]:
    """Signed edge-crossing counts of a word, indexed by positive edges."""
    idx = {e: i for i, e in enumerate(m.edges())}
    v = [0] * len(idx)
    for d in w.darts:
        e = m.edge_of(d)
        v[idx[e]] += 1 if d == e else -1
    return tuple(v)


def abelian_rank(m: RibbonMap, words: list[EdgeWord]) -> int:
    """Integer rank of the abelianized words over the edge lattice."""
    rows = [[Fraction(x) for x in abelianization(m, w)] for w in words]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        piv = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        pr = rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                fac = rows[r][col] / pr[col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], pr)]
        pivot_row += 1
        rank += 1
    return rank


def refine_generators(
    tame: TameGenerators,
    coarse: RibbonMap,
    fine: RibbonMap,
    split_position: int,
    containment: dict[int, int],
) -> TameGenerators:
    """Tame system on a map obtained from coarse by split_face: the facial
    lasso at split_position factors into the two sub-face lassos; everything
    else is carried over unchanged (the old darts keep their ids)."""
    face_old = tame.face_of_l[split_position]
    news = [j for j, i in containment.items() if i == face_old]
    if len(news) != 2:
        raise MapError("containment does not describe a single face split")
    C = list(tame.cycles[split_position])
    fs_fine = faces(fine)

    def oriented_fine(j):
        # orient the sub-face compatibly with the coarse cycle C
        cyc = list(fs_fine.cycles[j])
        old_items = set(C)
        if any((d, e) in old_items for d, e in cyc):
            return cyc
        # the twins, read backwards, run the reversed cycle
        return [fine.twin(*item) for item in reversed(cyc)]

    cyc_a, cyc_b = (oriented_fine(j) for j in news)
    pos = {it: k for k, it in enumerate(C)}
    r = len(C)

    def chord_index(cyc):
        ks = [k for k, it in enumerate(cyc) if it[0] >= coarse.n_darts]
        if len(ks) != 1:
            raise MapError("sub-face does not contain exactly one chord dart")
        return ks[0]

    def try_roles(fa, fb):
        # fa plays the face cut out first (chord traversed last), fb the
        # complementary one (chord traversed first); the old darts of both,
        # read in this order, must run once around C
        ka, kb = chord_index(fa), chord_index(fb)
        first = fa[ka + 1:] + fa[:ka + 1]
        second = fb[kb:] + fb[:kb]
        try:
            ps = [pos[it] for it in first[:-1] + second[1:]]
        except KeyError:
            return None
        cut = ps[0]
        if ps != [(cut + k) % r for k in range(r)]:
            return None
        return cut, first, second

    roles = try_roles(cyc_a, cyc_b) or try_roles(cyc_b, cyc_a)
    if roles is None:
        raise MapError("sub-faces do not assemble back into the coarse face")
    cut, first, second = roles
    base, tree = tame.base, tame.tree
    # lassos on the fine map reuse the coarse spanning tree (no new vertex);
    # each sub-face's product, read from the cut, is conjugated into place
    # by s_i = x^-1 conj, x being the stretch of C before the cut
    to_base = _tree_paths(fine, tree, base)
    s_i = _lassos(fine, base, to_base,
                  [*_inv(fine, [d for d, _ in C[:cut]]),
                   *tame.conj[split_position].darts])
    l1, l2 = (_lassos(fine, base, to_base,
                      [*_inv(fine, s_i.darts), *(d for d, _ in half),
                       *s_i.darts])
              for half in (first, second))
    if _reduced(fine, l1.darts + l2.darts
                + _inv(fine, tame.l[split_position].darts)):
        raise MapError("refined facial lassos do not multiply to the old one")
    home = fs_fine.home
    at = slice(split_position, split_position + 1)
    l_list, faces_list = list(tame.l), list(tame.face_of_l)
    cycles, conjs = list(tame.cycles), list(tame.conj)
    l_list[at] = [l1, l2]
    faces_list[at] = [home[first[0]], home[second[0]]]
    cycles[at] = [tuple(first), tuple(second)]
    conjs[at] = [s_i, s_i]
    return TameGenerators(
        base=base, a=tame.a, c=tame.c,
        c_meta=tame.c_meta, l=l_list, face_of_l=faces_list, w=tame.w,
        cycles=cycles, conj=conjs, tree=tree,
    )


# ---------------------------------------------------------------------------
# covering


def aut_order(t: MonodromyTuple) -> int:
    """Order of the automorphism group of the bundle: the centralizer of
    the subgroup generated by all tuple entries."""
    entries = list(t.entries())
    return int(np.sum(np.all(_conj(t.group)[:, entries] == entries, axis=1)))


def enumerate_H(G: FiniteGroup, spec: SurfaceSpec, k: int,
                cap: int = DEFAULT_CAP) -> list[MonodromyTuple]:
    """All monodromy tuples with exactly k ramification points."""
    shape = _Shape(G, spec.orientable, spec.genus, spec.constraints)
    return [t for rows in _tuple_rows(G, spec, k, conjugacy_classes(G), cap)
            for t in _tuples_of(shape, rows)]


def _prefactor(G: FiniteGroup, spec: SurfaceSpec,
               classes: ConjugacyClassTable) -> Fraction:
    pre = Fraction(G.n) ** (1 - spec.genus)
    for c in spec.constraints:
        pre /= classes.sizes[c]
    return pre


def bb_mass_fixed_k(G: FiniteGroup, spec: SurfaceSpec, pi: JumpMeasure,
                    k: int):
    """Mass contributed by bundles with exactly k ramification points:
    the prefactored sum over tuples of the product of normalized jump
    probabilities of the twists, at most DEFAULT_CAP of them. Exact when
    the jump rates are rational, and summed with math.fsum otherwise."""
    classes = conjugacy_classes(G)
    pi1 = pi.normalized()
    exact = pi1._exact is not None
    w = np.array(pi1.weights, dtype=object if exact else float)
    weights = []
    for rows in _tuple_rows(G, spec, k, classes, DEFAULT_CAP):
        d = rows[spec.genus + spec.boundaries:]
        weights += np.prod(w[d], axis=0).tolist()
    total = sum(weights, Fraction(0)) if exact else math.fsum(weights)
    return _prefactor(G, spec, classes) * total


def twist_mass_contraction(G: FiniteGroup, spec: SurfaceSpec,
                           pi: JumpMeasure, k: int):
    """Independent route to the k-twist tuple mass: the k-fold convolution
    power of the normalized jump measure, contracted against the law of
    (w(a) c_1..c_p)^{-1}. Exact when the jump rates are rational."""
    classes = conjugacy_classes(G)
    mu = measure_m(G, spec)
    pow_k = convolution_power(pi.normalized(), k)
    scale = G.n ** spec.genus * math.prod(
        classes.sizes[c] for c in spec.constraints)
    total = sum(mu.weights[x] * pow_k.weights[G.inv[x]] * scale
                for x in range(G.n))
    return _prefactor(G, spec, classes) * total
