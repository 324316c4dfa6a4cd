"""The discrete holonomy field over a finite group: uniform measures with
conjugacy-class constraints on boundary circuits and marked cycles, the
heat-kernel weighted field, partition functions by a sum over edge
configurations (one per gauge orbit) and by the closed convolution formula,
surgery operators on partition functions, and exact joint laws of loop
holonomies.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass

from .groups import (
    ClassMeasure,
    ConjugacyClassTable,
    FiniteGroup,
    conjugacy_classes,
    convolve,
    convolution_power,
    delta_class,
    eta_measure,
    kappa_measure,
)
from .levy import HeatKernel
from .loops import (
    EdgeWord,
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
    "constrained_configurations",
    "uniform_constrained_mass",
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
    # per cycle: steps before the forced edge, forced edge, reversed?
    cycles: list[tuple[tuple[tuple[int, bool], ...], int, bool]]
    targets: list[list[int]]
    count: int


def _gauge_fixed(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                 classes: ConjugacyClassTable) -> _GaugeFixed:
    """The constrained uniform measure is invariant under gauges, which
    conjugate every cycle holonomy, and the gauges fixing any one vertex
    move each configuration to exactly one with the edges of a spanning
    tree at the identity. The tree avoids each cycle's forced edge:
    dropping one edge from each of edge-disjoint cycles leaves the graph
    connected."""
    cycles, targets = [], []
    for cyc, c in C.cycles_and_classes(m):
        steps = word_steps(m, cyc)
        cycles.append((steps[:-1],) + steps[-1])
        targets.append(classes.elements_of(c))
    forced = {e for _, e, _ in cycles}
    tree = spanning_tree(m, forbidden=forced)
    free = [e for e in m.edges() if e not in forced and e not in tree]
    count = G.n ** len(free) * math.prod(len(t) for t in targets)
    return _GaugeFixed(free, cycles, targets, count)


def _representatives(G: FiniteGroup, m: RibbonMap, fixed: _GaugeFixed):
    weight = 1.0 / fixed.count
    config = dict.fromkeys(m.edges(), 0)
    for vals in itertools.product(range(G.n), repeat=len(fixed.free)):
        config.update(zip(fixed.free, vals))
        for ys in itertools.product(*fixed.targets):
            for (head, e, rev), y in zip(fixed.cycles, ys):
                # head * value(last dart) = y
                val = G.mul[G.inv[holonomy_of_steps(G, head, config)]][y]
                config[e] = G.inv[val] if rev else val
            yield dict(config), weight


def constrained_configurations(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                               classes: ConjugacyClassTable,
                               cap: int = DEFAULT_CAP):
    """Iterate (config, probability weight) pairs, one per gauge orbit of
    the uniform measure with constraints: edges of a spanning tree at the
    identity, the other free edges uniform, one edge per constrained cycle
    forced so the cycle holonomy is uniform on its class. There are
    n^(E - V + 1 - #cycles) prod |C_i| of them, each of weight 1/count.

    The mixture reproduces the uniform measure only for functionals
    invariant under gauges that fix one vertex (any one): the face-weight
    product, and holonomies of loops all based at that vertex."""
    fixed = _gauge_fixed(G, m, C, classes)
    if fixed.count > cap:
        raise CapExceeded(f"{fixed.count} configurations exceed the cap {cap}")
    yield from _representatives(G, m, fixed)


def uniform_constrained_mass(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                             f, classes: ConjugacyClassTable | None = None,
                             cap: int = DEFAULT_CAP) -> float:
    """Exact expectation of a configuration functional under the uniform
    measure with constraints, summed over gauge-fixed representatives: f
    must be gauge-invariant, or invariant under the gauges fixing one
    vertex (a function of loops based there)."""
    if classes is None:
        classes = conjugacy_classes(G)
    return sum(w * f(config)
               for config, w in constrained_configurations(G, m, C, classes, cap))


def _face_words(m: RibbonMap, hk: HeatKernel):
    """Each face's boundary word compiled to steps, with the heat kernel at
    the face's area; areas and orientability are checked once."""
    if m.areas is None:
        raise ValueError("face areas are not assigned")
    if not is_orientable(m) and not hk.pi.inversion_invariant:
        raise ValueError(
            "non-orientable maps need an inversion-invariant jump measure")
    return [(word_steps(m, [d for d, _ in cyc]),
             hk.density(m.areas[i]).values)
            for i, cyc in enumerate(faces(m).cycles)]


def _face_weight(G: FiniteGroup, words, config: dict[int, int]) -> float:
    w = 1.0
    for steps, q in words:
        w *= q[holonomy_of_steps(G, steps, config)]
    return w


def df_weight(G: FiniteGroup, m: RibbonMap, hk: HeatKernel,
              config: dict[int, int]) -> float:
    """Product over faces of the heat kernel at the facial holonomy."""
    return _face_weight(G, _face_words(m, hk), config)


def partition_graph(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                    hk: HeatKernel, classes=None, cap: int = DEFAULT_CAP) -> float:
    """Partition function over edge configurations:
    Z = E[prod_F Q_{t_F}(h(dF))] under the constrained uniform measure."""
    words = _face_words(m, hk)
    return uniform_constrained_mass(
        G, m, C, lambda cfg: _face_weight(G, words, cfg), classes, cap)


def _word_law(G: FiniteGroup, orientable: bool, genus: int) -> ClassMeasure:
    """Law of the surface word w(a) at uniform a: eta^{*genus/2} for
    commutators, kappa^{*genus} for squares."""
    if orientable:
        return convolution_power(eta_measure(G), genus // 2)
    return convolution_power(kappa_measure(G), genus)


def measure_m(G: FiniteGroup, spec: SurfaceSpec,
              classes: ConjugacyClassTable | None = None) -> ClassMeasure:
    """The invariant probability measure of a surface: commutators (through
    eta) for orientable surfaces, squares (through kappa) otherwise, then
    one class convolution per boundary."""
    if classes is None:
        classes = conjugacy_classes(G)
    mu = _word_law(G, spec.orientable, spec.genus)
    for c in spec.constraints:
        mu = convolve(mu, delta_class(G, c, classes))
    return mu


def partition_formula(G: FiniteGroup, spec: SurfaceSpec, hk: HeatKernel,
                      classes: ConjugacyClassTable | None = None) -> float:
    """Z = sum_x Q_t(x) m({x})."""
    if not spec.orientable and not hk.pi.inversion_invariant:
        raise ValueError(
            "non-orientable surfaces need an inversion-invariant jump measure")
    mu = measure_m(G, spec, classes)
    q = hk.density(spec.area)
    return float(sum(float(w) * q.values[x] for x, w in enumerate(mu.weights)))


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

    def check_symmetry(self, tol: float = 0.0) -> bool:
        for key in self.values:
            for perm in itertools.permutations(key):
                if abs(self.values[tuple(sorted(perm))] - self.values[key]) > tol:
                    return False
        return True


def z_function(G: FiniteGroup, orientable: bool, p: int, g: int, t: float,
               hk: HeatKernel,
               classes: ConjugacyClassTable | None = None) -> SymmetricClassFunction:
    """Tabulate the partition function over all p-tuples of classes."""
    if classes is None:
        classes = conjugacy_classes(G)
    if not orientable and not hk.pi.inversion_invariant:
        raise ValueError(
            "non-orientable surfaces need an inversion-invariant jump measure")
    base = _word_law(G, orientable, g)
    q = hk.density(t)
    out = {}
    for tup in itertools.combinations_with_replacement(range(classes.r), p):
        mu = base
        for c in tup:
            mu = convolve(mu, delta_class(G, c, classes))
        out[tup] = float(sum(float(w) * q.values[x]
                             for x, w in enumerate(mu.weights)))
    return SymmetricClassFunction(G, classes, p, out)


def upsilon(Z: SymmetricClassFunction) -> SymmetricClassFunction:
    """(1/n) sum_x Z(..., class(x^2))."""
    if Z.arity < 1:
        raise ValueError("arity must be at least 1")
    G, classes = Z.group, Z.classes
    out = {}
    for tup in itertools.combinations_with_replacement(range(classes.r), Z.arity - 1):
        s = sum(Z(*tup, classes.class_of[G.mul[x][x]]) for x in range(G.n))
        out[tup] = s / G.n
    return SymmetricClassFunction(G, classes, Z.arity - 1, out)


def beta1(Z: SymmetricClassFunction) -> SymmetricClassFunction:
    """(1/n) sum_x Z(..., class(x), class(x^{-1}))."""
    if Z.arity < 2:
        raise ValueError("arity must be at least 2")
    G, classes = Z.group, Z.classes
    out = {}
    for tup in itertools.combinations_with_replacement(range(classes.r), Z.arity - 2):
        s = sum(Z(*tup, classes.class_of[x], classes.class_of[G.inv[x]])
                for x in range(G.n))
        out[tup] = s / G.n
    return SymmetricClassFunction(G, classes, Z.arity - 2, out)


def beta2(Z1: SymmetricClassFunction, Z2: SymmetricClassFunction) -> SymmetricClassFunction:
    """(1/n) sum_z Z1(..., class(z)) Z2(..., class(z^{-1}))."""
    if Z1.arity < 1 or Z2.arity < 1:
        raise ValueError("arities must be at least 1")
    G, classes = Z1.group, Z1.classes
    arity = Z1.arity + Z2.arity - 2
    out = {}
    for tup in itertools.combinations_with_replacement(range(classes.r), arity):
        part1, part2 = tup[: Z1.arity - 1], tup[Z1.arity - 1:]
        out[tup] = sum(
            Z1(*part1, classes.class_of[z])
            * Z2(*part2, classes.class_of[G.inv[z]])
            for z in range(G.n)
        ) / G.n
    return SymmetricClassFunction(G, classes, arity, out)


def marginal_generators(G: FiniteGroup, m: RibbonMap, C: GConstraints,
                        gens: list[EdgeWord], hk: HeatKernel | None = None,
                        classes: ConjugacyClassTable | None = None,
                        cap: int = DEFAULT_CAP,
                        normalize: bool = False):
    """Exact joint pmf of the holonomies of the given words under the
    constrained uniform measure, weighted by the field density when a heat
    kernel is supplied. Returns (pmf dict, total mass).

    The configuration sum runs over gauge-fixed representatives with the
    first word's base as the fixed vertex; a word starting or ending
    elsewhere also gets averaged over the gauge at those vertices, which
    costs a factor n per such vertex in the key computation only."""
    if classes is None:
        classes = conjugacy_classes(G)
    words = _face_words(m, hk) if hk is not None else None
    steps = [word_steps(m, g.darts) for g in gens]
    ends = [(g.base, word_end(m, g)) for g in gens]
    root = gens[0].base if gens else 0
    moving = sorted({v for pair in ends for v in pair} - {root})
    gauges = [{root: 0, **dict(zip(moving, js))}
              for js in itertools.product(range(G.n), repeat=len(moving))]
    share = 1.0 / len(gauges)
    pmf: dict[tuple[int, ...], float] = {}
    total = 0.0
    for config, w in constrained_configurations(G, m, C, classes, cap):
        if words is not None:
            w = w * _face_weight(G, words, config)
        hols = [holonomy_of_steps(G, s, config) for s in steps]
        for j in gauges:
            key = tuple(G.mul[G.mul[j[a]][h]][G.inv[j[b]]]
                        for h, (a, b) in zip(hols, ends))
            pmf[key] = pmf.get(key, 0.0) + w * share
        total += w
    if normalize:
        pmf = {k: v / total for k, v in pmf.items()}
    return pmf, total


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
              exact_limit: int = 10 ** 6, sweeps: int = 50):
    """Samples from the field measure: exact categorical sampling when the
    gauge-fixed configuration count is at most exact_limit, each draw moved
    by an independent uniform gauge so that it follows the full field law;
    otherwise seeded single-edge heat-bath sweeps (unconstrained maps
    only)."""
    if classes is None:
        classes = conjugacy_classes(G)
    rng = random.Random(seed)
    words = _face_words(m, hk)
    fixed = _gauge_fixed(G, m, C, classes)
    if fixed.count <= exact_limit:
        configs = []
        cumulative = []
        acc = 0.0
        for config, w in _representatives(G, m, fixed):
            acc += w * _face_weight(G, words, config)
            configs.append(config)
            cumulative.append(acc)
        out = []
        for _ in range(count):
            config = configs[bisect.bisect_left(cumulative, rng.random() * acc)]
            j = {v: rng.randrange(G.n) for v in range(m.n_vertices)}
            out.append(gauge_transform(G, m, config, j))
        return out if count > 1 else out[0]
    if C.boundary_classes or C.marks:
        raise CapExceeded(
            "heat-bath sampling supports unconstrained maps only")
    return _heat_bath(G, m, words, rng, count, sweeps)


def _heat_bath(G: FiniteGroup, m: RibbonMap, words, rng, count, sweeps):
    touching = {e: [(steps, q) for steps, q in words
                    if any(f == e for f, _ in steps)]
                for e in m.edges()}
    out = []
    config = {e: rng.randrange(G.n) for e in m.edges()}
    for _ in range(count):
        for _ in range(sweeps):
            for e in m.edges():
                weights = []
                for x in range(G.n):
                    config[e] = x
                    weights.append(_face_weight(G, touching[e], config))
                tot = sum(weights)
                u = rng.random() * tot
                acc = 0.0
                for x, w in enumerate(weights):
                    acc += w
                    if u <= acc:
                        config[e] = x
                        break
        out.append(dict(config))
    return out if count > 1 else out[0]
