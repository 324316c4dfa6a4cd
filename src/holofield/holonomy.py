"""The discrete holonomy field over a finite group: uniform measures with
conjugacy-class constraints on boundary circuits and marked cycles, the
heat-kernel weighted field, partition functions by a sum over edge
configurations (one per gauge orbit) and by the closed convolution formula,
surgery operators on partition functions, and exact joint laws of loop
holonomies.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .groups import (
    ClassMeasure,
    ConjugacyClassTable,
    FiniteGroup,
    _class_law,
    _convolve,
    _letter_law,
    _measure,
    _power,
    _times,
    conjugacy_classes,
)
from .levy import HeatKernel, JumpMeasure
from .loops import (
    EdgeWord,
    _product_blocks,
    holonomy_of_steps,
    spanning_tree,
    word_end,
    word_steps,
)
from .surface import RibbonMap, SurfaceSpec, faces, is_orientable

__all__ = [
    "GConstraints",
    "SymmetricClassFunction",
    "CapExceeded",
    "df_weight",
    "partition_graph",
    "measure_m",
    "partition_formula",
    "z_function",
    "upsilon",
    "beta1",
    "beta2",
    "marginal_generators",
    "sample_df",
    "gauge_transform",
]

DEFAULT_CAP = 10 ** 8


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class GConstraints:
    """Conjugacy-class constraints: one class per boundary circuit of the
    map, plus optional marked cycles (edge-disjoint simple cycles given as
    dart sequences) with their own classes."""

    boundary_classes: tuple[int, ...] = ()
    marks: tuple[tuple[tuple[int, ...], int], ...] = ()

    def cycles_and_classes(self, m: RibbonMap):
        if len(self.boundary_classes) != len(m.boundary):
            raise ValueError("need one class per boundary circuit")
        out = [(tuple(circ), c)
               for circ, c in zip(m.boundary, self.boundary_classes)]
        out += [(tuple(cyc), c) for cyc, c in self.marks]
        used = set()
        for cyc, _ in out:
            # a closed chain of darts, as RibbonMap checks its circuits
            if not cyc or any(m.vertex_of(m.alpha[d]) != m.vertex_of(e)
                              for d, e in zip(cyc, cyc[1:] + cyc[:1])):
                raise ValueError(f"cycle {cyc} is not a closed path of darts")
            for d in cyc:
                e = min(d, m.alpha[d])
                if e in used:
                    raise ValueError("constrained cycles must be edge-disjoint")
                used.add(e)
        return out


@dataclass(frozen=True)
class _GaugeFixed:
    """One configuration per gauge orbit of the constrained uniform
    measure: spanning-tree edges at the identity, free edges uniform, and
    the last edge of each constrained cycle forced so that the cycle
    holonomy runs uniformly over its class."""

    free: list[int]
    # per cycle: the forced edge and the word giving its value, which
    # reads the cycle's target holonomy from row n_darts + cycle index
    forced: list[tuple[int, list[tuple[int, bool]]]]
    targets: list[list[int]]
    count: int
    # per face: its compiled word and the heat kernel at its area, which
    # weight each configuration (none for the uniform measure)
    words: list[tuple[tuple, np.ndarray]]


def _gauge_fixed(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                 classes: ConjugacyClassTable | None,
                 cap: float = math.inf,
                 hk: HeatKernel | None = None) -> _GaugeFixed:
    """The constrained uniform measure is invariant under gauges, which
    conjugate every cycle holonomy, and the gauges fixing any one vertex
    move each configuration to exactly one with the edges of a spanning
    tree at the identity. The tree avoids each cycle's forced edge:
    dropping one edge from each of edge-disjoint cycles leaves the graph
    connected. With a heat kernel, the face words that weight each
    configuration by the field density are compiled too."""
    words = _face_words(m, hk) if hk is not None else []
    if classes is None:
        classes = conjugacy_classes(G)
    forced, targets = [], []
    for i, (cyc, c) in enumerate(C.cycles_and_classes(m)):
        *head, (e, rev) = word_steps(m, cyc)
        y = m.n_darts + i
        # head * x_e = y, or head * x_e^-1 = y on a reversed last dart
        forced.append((e, [(y, True)] + head if rev else
                       [(f, not r) for f, r in reversed(head)] + [(y, False)]))
        targets.append(classes.elements_of(c))
    forced_edges = {e for e, _ in forced}
    tree = spanning_tree(m, forbidden=forced_edges)
    free = [e for e in m.edges() if e not in forced_edges and e not in tree]
    count = G.n ** len(free) * math.prod(len(t) for t in targets)
    if count > cap:
        raise CapExceeded(f"{count} configurations exceed the cap {cap}")
    return _GaugeFixed(free, forced, targets, count, words)


def _weighted(G: FiniteGroup, m: RibbonMap, fixed: _GaugeFixed, extra=(),
              rows=None):
    """Blocks of the gauge-fixed configurations in their product order, or
    of the rows with the given indices, each with its row weights: 1/count,
    times the product over faces of the heat kernel at the facial holonomy
    when the face words are compiled. A block is an integer array whose
    row e holds edge e's values (zero off the free and forced edges); rows
    n_darts onward hold the cycle targets, then the letters of the extra
    alphabets, enumerated innermost."""
    k = len(fixed.free)
    alphabets = [range(G.n)] * k + fixed.targets + list(extra)
    for block in _product_blocks(alphabets, rows):
        config = np.zeros((m.n_darts + len(block) - k, block.shape[1]),
                          dtype=np.intp)
        config[fixed.free] = block[:k]
        config[m.n_darts:] = block[k:]
        for e, word in fixed.forced:
            config[e] = holonomy_of_steps(G, word, config)
        w = np.ones(block.shape[1])
        for steps, q in fixed.words:
            w = w * q[holonomy_of_steps(G, steps, config)]
        yield config, 1.0 / fixed.count * w


def _require_inversion_invariant(orientable: bool, pi: JumpMeasure) -> None:
    if not orientable and not pi.inversion_invariant:
        raise ValueError(
            "non-orientable surfaces need an inversion-invariant jump measure")


def _face_words(m: RibbonMap, hk: HeatKernel):
    """Each face's boundary word compiled to steps, with the heat kernel at
    the face's area; areas and orientability are checked once."""
    if m.areas is None:
        raise ValueError("face areas are not assigned")
    _require_inversion_invariant(is_orientable(m), hk.pi)
    return [(word_steps(m, [d for d, _ in cyc]),
             np.array(hk.density(m.areas[i]).values))
            for i, cyc in enumerate(faces(m).cycles)]


def df_weight(G: FiniteGroup, m: RibbonMap, hk: HeatKernel,
              config: dict[int, int]) -> float:
    """Product over faces of the heat kernel at the facial holonomy."""
    return float(math.prod(q[holonomy_of_steps(G, steps, config)]
                           for steps, q in _face_words(m, hk)))


def partition_graph(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                    hk: HeatKernel, classes=None, cap: int = DEFAULT_CAP) -> float:
    """Partition function over edge configurations:
    Z = E[prod_F Q_{t_F}(h(dF))] under the constrained uniform measure."""
    fixed = _gauge_fixed(G, m, C, classes, cap, hk)
    return math.fsum(itertools.chain.from_iterable(
        w.tolist() for _, w in _weighted(G, m, fixed)))


def _word_law(G: FiniteGroup, orientable: bool, genus: int):
    """Law of the surface word w(a) at uniform a, as a (numerators,
    denominator) pair built once per group and surface: eta^{*genus/2} for
    commutators, kappa^{*genus} for squares."""
    return G._cached(("word", orientable, genus), lambda G: _power(
        G, _letter_law(G, orientable), genus // 2 if orientable else genus))


def measure_m(G: FiniteGroup, spec: SurfaceSpec) -> ClassMeasure:
    """The invariant probability measure of a surface: commutators (through
    eta) for orientable surfaces, squares (through kappa) otherwise, then
    one class convolution per boundary."""
    return _measure(G, _surface_law(G, spec))


def _surface_law(G: FiniteGroup, spec: SurfaceSpec,
                 classes: ConjugacyClassTable | None = None):
    """measure_m as a (numerators, denominator) pair: the word law times
    each boundary class's uniform law in turn, on the left, as a central
    law may stand, where its sparsity saves rows."""
    if classes is None:
        classes = conjugacy_classes(G)
    mu = _word_law(G, spec.orientable, spec.genus)
    for c in spec.constraints:
        mu = _times(G, _class_law(classes, c), mu)
    return mu


# integers below 2^53 are exact as floats, so their float quotient is the
# correctly rounded one
_FLOAT_EXACT = 2 ** 53


def _pair(num, dens, q):
    """sum_x q[x] mu({x}) for each (numerators, denominator) pair of a
    batch, numerators (m, n) over a list of m denominators, added in
    element order by the builtin sum. Each v / den is correctly rounded,
    as float(Fraction) is: divided in floats while every integer is below
    _FLOAT_EXACT, else in Python ints."""
    if max(dens) >= _FLOAT_EXACT or int(np.abs(num).max()) >= _FLOAT_EXACT:
        return [float(sum(v / den * q[x] for x, v in enumerate(row)))
                for row, den in zip(num.tolist(), dens)]
    terms = num.astype(float) / np.array(dens, dtype=float)[:, None] * q
    return [float(sum(row)) for row in terms.tolist()]


def partition_formula(G: FiniteGroup, spec: SurfaceSpec, hk: HeatKernel,
                      classes: ConjugacyClassTable | None = None) -> float:
    """Z = sum_x Q_t(x) m({x})."""
    _require_inversion_invariant(spec.orientable, hk.pi)
    num, den = _surface_law(G, spec, classes)
    return _pair(num[None], [den], hk.density(spec.area).values)[0]


@dataclass
class SymmetricClassFunction:
    """A function of p conjugacy classes, symmetric in its arguments."""

    group: FiniteGroup
    classes: ConjugacyClassTable
    arity: int
    values: dict[tuple[int, ...], float]

    def __call__(self, *cs: int) -> float:
        if len(cs) != self.arity:
            raise ValueError("wrong arity")
        return self.values[tuple(sorted(cs))]


def _tabulate(G: FiniteGroup, classes: ConjugacyClassTable, arity: int,
              at, per_class) -> SymmetricClassFunction:
    """The symmetric function whose value at each sorted tuple of classes
    is (1/n) sum_x v[at[x]], v = per_class(tuple) one value per class:
    each class is read once per tuple, and the sum runs in element
    order."""
    return SymmetricClassFunction(G, classes, arity, {
        tup: sum(map(per_class(tup).__getitem__, at)) / G.n for tup in
        itertools.combinations_with_replacement(range(classes.r), arity)})


def z_function(G: FiniteGroup, orientable: bool, p: int, g: int, t: float,
               hk: HeatKernel,
               classes: ConjugacyClassTable | None = None) -> SymmetricClassFunction:
    """Tabulate the partition function over all p-tuples of classes.

    The laws of the sorted tuples of one length come from those one
    shorter by one batched convolution with the class indicators, in
    numerators left unreduced: v / den is the same float for every
    representation of one rational. The tuples are kept in
    combinations_with_replacement order."""
    if classes is None:
        classes = conjugacy_classes(G)
    _require_inversion_invariant(orientable, hk.pi)
    q = hk.density(t).values
    num, den = _word_law(G, orientable, g)
    r = classes.r
    if p:
        indicators = (np.arange(r)[:, None]
                      == classes._class_array).astype(np.int64)
    tuples, nums, dens = [()], num[None], [den]
    for _ in range(p):
        # each tuple grows by every class from its last one on
        grown = [(j, c) for j, tup in enumerate(tuples)
                 for c in range(tup[-1] if tup else 0, r)]
        prefix, last = np.array(grown).T
        nums = _convolve(G, indicators, nums)[prefix, last]
        dens = [dens[j] * classes.sizes[c] for j, c in grown]
        tuples = [tuples[j] + (c,) for j, c in grown]
    return SymmetricClassFunction(G, classes, p,
                                  dict(zip(tuples, _pair(nums, dens, q))))


def upsilon(Z: SymmetricClassFunction) -> SymmetricClassFunction:
    """(1/n) sum_x Z(..., class(x^2))."""
    if Z.arity < 1:
        raise ValueError("arity must be at least 1")
    G, classes = Z.group, Z.classes
    squares = [classes.class_of[G.mul[x][x]] for x in range(G.n)]
    return _tabulate(G, classes, Z.arity - 1, squares, lambda tup: [
        Z(*tup, c) for c in range(classes.r)])


def beta1(Z: SymmetricClassFunction) -> SymmetricClassFunction:
    """(1/n) sum_x Z(..., class(x), class(x^{-1}))."""
    if Z.arity < 2:
        raise ValueError("arity must be at least 2")
    G, classes = Z.group, Z.classes
    return _tabulate(G, classes, Z.arity - 2, classes.class_of, lambda tup: [
        Z(*tup, c, classes.inverse_class[c]) for c in range(classes.r)])


def beta2(Z1: SymmetricClassFunction, Z2: SymmetricClassFunction) -> SymmetricClassFunction:
    """(1/n) sum_z Z1(..., class(z)) Z2(..., class(z^{-1}))."""
    if Z1.arity < 1 or Z2.arity < 1:
        raise ValueError("arities must be at least 1")
    G, classes = Z1.group, Z1.classes
    cut = Z1.arity - 1
    return _tabulate(G, classes, Z1.arity + Z2.arity - 2, classes.class_of,
                     lambda tup: [Z1(*tup[:cut], c)
                                  * Z2(*tup[cut:], classes.inverse_class[c])
                                  for c in range(classes.r)])


def marginal_generators(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                        gens: list[EdgeWord], hk: HeatKernel | None = None,
                        classes: ConjugacyClassTable | None = None,
                        cap: int = DEFAULT_CAP):
    """Exact joint pmf of the holonomies of the given words under the
    constrained uniform measure, weighted by the field density when a heat
    kernel is supplied. Returns (pmf dict, total mass); ValueError for a
    word that is not a path of darts from its base.

    The configuration sum runs over gauge-fixed representatives with the
    first word's base as the fixed vertex; a word starting or ending
    elsewhere also gets averaged over the gauge at those vertices, which
    multiplies the rows enumerated by n per such vertex."""
    # each configuration comes once per gauge j at the words' end vertices,
    # with j = 1 at the first word's base: the last rows of each block; a
    # word from a to b reads j(a) h j(b)^-1
    ends = [(g.base, word_end(m, g)) for g in gens]
    at = sorted({v for pair in ends for v in pair})
    row = {v: i - len(at) for i, v in enumerate(at)}
    steps = [[(row[a], False), *word_steps(m, g.darts), (row[b], True)]
             for g, (a, b) in zip(gens, ends)]
    gauges = [[0] if v == gens[0].base else range(G.n) for v in at]
    share = 1.0 / math.prod(len(j) for j in gauges)

    # each key's weights are added in row order
    pmf: dict[tuple[int, ...], float] = {}
    fixed = _gauge_fixed(G, m, C, classes, cap, hk)
    for config, w in _weighted(G, m, fixed, gauges):
        keys = [holonomy_of_steps(G, s, config) for s in steps]
        k = np.reshape(keys, (len(steps), len(w)))
        for key, x in zip(map(tuple, k.T.tolist()), (w * share).tolist()):
            pmf[key] = pmf.get(key, 0.0) + x
    return pmf, math.fsum(pmf.values())


def gauge_transform(G: FiniteGroup, m: RibbonMap, config: dict[int, int],
                    j: dict[int, int]) -> dict[int, int]:
    """Act on a configuration by a vertex-indexed family of group elements;
    loop holonomies are conjugated, so invariant functionals are unchanged."""
    out = {}
    for e in m.edges():
        tail = m.vertex_of(e)
        head = m.vertex_of(m.alpha[e])
        out[e] = G.mul[j[tail]][G.mul[config[e]][G.inv[j[head]]]]
    return out


def sample_df(G: FiniteGroup, m: RibbonMap, C: GConstraints, hk: HeatKernel,
              seed: int, count: int = 1,
              classes: ConjugacyClassTable | None = None,
              cap: int = DEFAULT_CAP):
    """Exact samples from the field measure: categorical sampling over the
    gauge-fixed configurations, at most cap of them, each draw moved by an
    independent uniform gauge so that it follows the full field law."""
    rng = random.Random(seed)
    # the running sum of the weights, added in row order in one array of
    # count floats; the drawn rows are rebuilt from their indices
    fixed = _gauge_fixed(G, m, C, classes, cap, hk)
    cumulative = np.empty(fixed.count)
    lo = 0
    for _, w in _weighted(G, m, fixed):
        cumulative[lo:lo + len(w)] = w
        lo += len(w)
    np.cumsum(cumulative, out=cumulative)
    draws = [(rng.random(), {v: rng.randrange(G.n)
                             for v in range(m.n_vertices)})
             for _ in range(count)]
    rows = np.searchsorted(cumulative, [u * cumulative[-1] for u, _ in draws])
    edges = m.edges()
    drawn = (dict(zip(edges, values))
             for config, _ in _weighted(G, m, fixed, rows=rows)
             for values in config[edges].T.tolist())
    out = [gauge_transform(G, m, config, j)
           for config, (_, j) in zip(drawn, draws)]
    return out if count > 1 else out[0]
