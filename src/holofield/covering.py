"""Ramified principal bundles over a surface, encoded as monodromy tuples.

A bundle with k ramification points over a surface of reduced genus g with
p boundary components is described, once a base point and a tame system of
generators are fixed, by a tuple (a_1..a_g, c_1..c_p, d_1..d_k) satisfying
w(a) c_1..c_p d_1..d_k = 1, where w is the canonical surface word, each c_i
lies in the constrained boundary class and each d_i is a non-trivial local
monodromy. This module enumerates, weighs, counts and samples such tuples,
and recomputes the field's partition function and generator marginals from
them using only convolution powers of the jump measure, with no character
theory. Agreement with the heat-kernel route of the holonomy module is the
strongest cross-check in the package.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .groups import (
    ClassMeasure,
    ConjugacyClassTable,
    FiniteGroup,
    conjugacy_classes,
    convolve,
)
from .levy import (
    DEFAULT_TAIL_TOL,
    HeatKernel,
    JumpMeasure,
    heat_kernel_series,
    poisson_truncation_index,
)
from .surface import RibbonMap, SurfaceSpec, is_orientable
from .loops import TameGenerators
from .holonomy import (
    DEFAULT_CAP,
    CapExceeded,
    GConstraints,
    marginal_generators,
    measure_m,
)


def canonical_word(orientable: bool, genus: int) -> list[tuple[int, int]]:
    """Surface word in the free group on `genus` letters, as (index, sign)
    pairs: a product of commutators for orientable surfaces, a product of
    squares otherwise."""
    if orientable:
        if genus % 2:
            raise ValueError("orientable reduced genus must be even")
        out = []
        for h in range(genus // 2):
            i, j = 2 * h, 2 * h + 1
            out += [(i, 1), (j, 1), (i, -1), (j, -1)]
        return out
    return [(i, 1) for i in range(genus) for _ in range(2)]


def evaluate_word(G: FiniteGroup, word: list[tuple[int, int]],
                  values: tuple[int, ...]) -> int:
    """Multiplicative evaluation of a free-group word at group elements."""
    out = 0
    for i, s in word:
        x = values[i] if s == 1 else G.inv[values[i]]
        out = G.mul[out][x]
    return out


@dataclass(frozen=True)
class MonodromyTuple:
    """A based ramified bundle: generator monodromies plus local twists."""

    group: FiniteGroup
    orientable: bool
    genus: int
    boundary_classes: tuple[int, ...]
    a: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]

    def __post_init__(self):
        G = self.group
        if len(self.a) != self.genus:
            raise ValueError("wrong number of genus entries")
        if len(self.c) != len(self.boundary_classes):
            raise ValueError("wrong number of boundary entries")
        classes = conjugacy_classes(G)
        for ci, cls in zip(self.c, self.boundary_classes):
            if classes.class_of[ci] != cls:
                raise ValueError("boundary entry outside its class")
        if any(di == 0 for di in self.d):
            raise ValueError("ramification entries must be non-trivial")
        if self.relation_value() != 0:
            raise ValueError("tuple does not satisfy the surface relation")

    @property
    def k(self) -> int:
        return len(self.d)

    def entries(self) -> tuple[int, ...]:
        return self.a + self.c + self.d

    def relation_value(self) -> int:
        """w(a) c_1..c_p d_1..d_k, which must be the identity."""
        G = self.group
        out = evaluate_word(G, canonical_word(self.orientable, self.genus),
                            self.a)
        for x in self.c + self.d:
            out = G.mul[out][x]
        return out

    def conjugate(self, g: int) -> "MonodromyTuple":
        G = self.group
        gi = G.inv[g]
        cj = lambda x: G.mul[G.mul[g][x]][gi]
        return MonodromyTuple(G, self.orientable, self.genus,
                              self.boundary_classes,
                              tuple(cj(x) for x in self.a),
                              tuple(cj(x) for x in self.c),
                              tuple(cj(x) for x in self.d))


@dataclass(frozen=True)
class RamificationCounts:
    """Number of ramification points with the Poisson intensity that
    produced it; one entry per face for map-level sampling, a single entry
    for whole-surface computations."""

    counts: tuple[int, ...]
    intensities: tuple[float, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.intensities):
            raise ValueError("counts and intensities must align")
        if any(k < 0 for k in self.counts):
            raise ValueError("counts must be non-negative")
        if any(i <= 0 for i in self.intensities):
            raise ValueError("intensities must be positive")

    @property
    def total(self) -> int:
        return sum(self.counts)


def _spec_data(G: FiniteGroup, spec: SurfaceSpec,
               classes: ConjugacyClassTable):
    if len(spec.constraints) != spec.boundaries:
        raise ValueError("every boundary needs a constrained class")
    word = canonical_word(spec.orientable, spec.genus)
    orbits = [classes.elements_of(c) for c in spec.constraints]
    return word, orbits


def enumerate_H(G: FiniteGroup, spec: SurfaceSpec, k: int,
                classes: ConjugacyClassTable | None = None,
                cap: int = DEFAULT_CAP) -> list[MonodromyTuple]:
    """All monodromy tuples with exactly k ramification points. The last
    twist is forced by the surface relation and tuples where it degenerates
    to the identity are rejected."""
    if classes is None:
        classes = conjugacy_classes(G)
    word, orbits = _spec_data(G, spec, classes)
    g, p = spec.genus, spec.boundaries
    size = G.n ** (g + max(k - 1, 0)) * math.prod(len(o) for o in orbits)
    if size > cap:
        raise CapExceeded(f"enumeration size {size} exceeds cap {cap}")
    nontrivial = range(1, G.n)
    out = []
    for a in itertools.product(range(G.n), repeat=g):
        wa = evaluate_word(G, word, a)
        for c in itertools.product(*orbits):
            head = wa
            for ci in c:
                head = G.mul[head][ci]
            if k == 0:
                if head == 0:
                    out.append(MonodromyTuple(G, spec.orientable, g,
                                              spec.constraints, a, c, ()))
                continue
            for d_free in itertools.product(nontrivial, repeat=k - 1):
                acc = head
                for di in d_free:
                    acc = G.mul[acc][di]
                last = G.inv[acc]
                if last == 0:
                    continue
                out.append(MonodromyTuple(G, spec.orientable, g,
                                          spec.constraints, a, c,
                                          d_free + (last,)))
    return out


def aut_order(t: MonodromyTuple) -> int:
    """Order of the automorphism group of the bundle: the centralizer of
    the subgroup generated by all tuple entries."""
    G = t.group
    gens = t.entries()
    return sum(1 for g in range(G.n)
               if all(G.mul[g][x] == G.mul[x][g] for x in gens))


def conjugation_orbits(G: FiniteGroup,
                       tuples: list[MonodromyTuple]) -> list[list[MonodromyTuple]]:
    """Orbits of the simultaneous-conjugation action, each listed once."""
    index = {t.entries(): i for i, t in enumerate(tuples)}
    seen = [False] * len(tuples)
    orbits = []
    for i, t in enumerate(tuples):
        if seen[i]:
            continue
        orbit = []
        for g in range(G.n):
            j = index[t.conjugate(g).entries()]
            if not seen[j]:
                seen[j] = True
                orbit.append(tuples[j])
        if orbit:
            orbits.append(orbit)
    return orbits


def counting_check(G: FiniteGroup, spec: SurfaceSpec, k: int, f,
                   classes: ConjugacyClassTable | None = None,
                   cap: int = DEFAULT_CAP) -> tuple[Fraction, Fraction]:
    """Two exact evaluations of the same bundle count: sum of f over
    isomorphism classes weighted by 1/|Aut|, against the raw tuple sum
    divided by |G|. f must be constant on conjugation orbits."""
    tuples = enumerate_H(G, spec, k, classes, cap)
    lhs = Fraction(0)
    for orbit in conjugation_orbits(G, tuples):
        rep = orbit[0]
        val = Fraction(f(rep))
        if any(Fraction(f(t)) != val for t in orbit[1:]):
            raise ValueError("functional is not conjugation-invariant")
        lhs += val / aut_order(rep)
        if len(orbit) * aut_order(rep) != G.n:
            raise ValueError("orbit size inconsistent with automorphisms")
    rhs = sum((Fraction(f(t)) for t in tuples), Fraction(0)) / G.n
    return lhs, rhs


def _prefactor(G: FiniteGroup, spec: SurfaceSpec,
               classes: ConjugacyClassTable) -> Fraction:
    pre = Fraction(G.n) ** (1 - spec.genus)
    for c in spec.constraints:
        pre /= classes.sizes[c]
    return pre


def bb_mass_fixed_k(G: FiniteGroup, spec: SurfaceSpec, pi: JumpMeasure,
                    k: int, classes: ConjugacyClassTable | None = None,
                    cap: int = DEFAULT_CAP):
    """Mass contributed by bundles with exactly k ramification points:
    the prefactored sum over tuples of the product of normalized jump
    probabilities of the twists. Exact when the jump rates are rational."""
    if classes is None:
        classes = conjugacy_classes(G)
    pi1 = pi.normalized()
    total = Fraction(0) if all(isinstance(w, (int, Fraction))
                               for w in pi1.weights) else 0.0
    for t in enumerate_H(G, spec, k, classes, cap):
        w = total * 0 + 1
        for di in t.d:
            w = w * pi1.weights[di]
        total = total + w
    return _prefactor(G, spec, classes) * total


def twist_mass_contraction(G: FiniteGroup, spec: SurfaceSpec,
                           pi: JumpMeasure, k: int,
                           classes: ConjugacyClassTable | None = None):
    """Independent route to the k-twist tuple mass: the k-fold convolution
    power of the normalized jump measure, contracted against the law of
    (w(a) c_1..c_p)^{-1}. Exact when the jump rates are rational."""
    if classes is None:
        classes = conjugacy_classes(G)
    base = SurfaceSpec(spec.orientable, spec.genus, spec.boundaries, 1.0,
                       spec.constraints)
    mu = measure_m(G, base, classes)
    pow_k = ClassMeasure(G, tuple([Fraction(1)] + [Fraction(0)] * (G.n - 1)))
    pi1 = pi.normalized()
    for _ in range(k):
        pow_k = convolve(pow_k, pi1)
    scale = G.n ** spec.genus * math.prod(
        classes.sizes[c] for c in spec.constraints)
    total = sum(mu.weights[x] * pow_k.weights[G.inv[x]] * scale
                for x in range(G.n))
    return _prefactor(G, spec, classes) * total


def bb_mass(G: FiniteGroup, spec: SurfaceSpec, pi: JumpMeasure,
            t: float | None = None,
            classes: ConjugacyClassTable | None = None,
            tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Total mass of the Poisson-ramified bundle measure, computed from
    convolution powers of the jump measure only. Independently equal to
    the heat-kernel partition function."""
    if classes is None:
        classes = conjugacy_classes(G)
    if not spec.orientable and not pi.inversion_invariant:
        raise ValueError(
            "non-orientable surfaces need an inversion-invariant jump measure")
    if t is None:
        t = spec.area
    base = SurfaceSpec(spec.orientable, spec.genus, spec.boundaries, 1.0,
                       spec.constraints)
    mu = measure_m(G, base, classes)
    rate = float(pi.total_rate)
    if rate * t == 0:
        series = {0: 1.0}
    else:
        K = poisson_truncation_index(rate * t, tail_tol)
        series = {}
        coeff = math.exp(-rate * t)
        acc = coeff
        series[0] = coeff
        for k in range(1, K + 1):
            coeff *= rate * t / k
            series[k] = coeff
            acc += coeff
        for k in series:
            series[k] /= acc
    pi1 = pi.normalized()
    pow_k = [1.0] + [0.0] * (G.n - 1)
    pi1f = [float(w) for w in pi1.weights]
    mass = 0.0
    for k in sorted(series):
        mass += series[k] * sum(float(mu.weights[x]) * pow_k[G.inv[x]]
                            for x in range(G.n))
        nxt = [0.0] * G.n
        for y in range(G.n):
            wy = pow_k[y]
            if wy == 0.0:
                continue
            row = G.mul[y]
            for z in range(G.n):
                if pi1f[z]:
                    nxt[row[z]] += wy * pi1f[z]
        pow_k = nxt
    return float(_prefactor(G, spec, classes)) * G.n ** spec.genus * \
        math.prod(classes.sizes[c] for c in spec.constraints) * mass


def sample_poisson(rng: random.Random, intensity: float) -> int:
    """Poisson draw by inversion of the cumulative distribution."""
    u = rng.random()
    k = 0
    p = math.exp(-intensity)
    acc = p
    while u > acc:
        k += 1
        p *= intensity / k
        acc += p
        if k > 1000:
            raise ValueError("intensity too large for inversion sampling")
    return k


def sample_covering(G: FiniteGroup, spec: SurfaceSpec, pi: JumpMeasure,
                    seed: int,
                    classes: ConjugacyClassTable | None = None,
                    max_attempts: int = 2 * 10 ** 6
                    ) -> tuple[RamificationCounts, MonodromyTuple]:
    """One draw from the normalized bundle measure by rejection: sample the
    ramification count from a Poisson law, the generator entries uniformly,
    the twists from the normalized jump measure, and accept when the
    surface relation closes. Every attempt redraws the count, so the
    accepted pair carries the correct joint law."""
    if classes is None:
        classes = conjugacy_classes(G)
    word, orbits = _spec_data(G, spec, classes)
    if not spec.orientable and not pi.inversion_invariant:
        raise ValueError(
            "non-orientable surfaces need an inversion-invariant jump measure")
    intensity = float(pi.total_rate) * spec.area
    pi1 = [float(w) for w in pi.normalized().weights]
    cum = list(itertools.accumulate(pi1))
    rng = random.Random(seed)

    def draw_twist():
        u = rng.random() * cum[-1]
        lo, hi = 0, len(cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    for _ in range(max_attempts):
        k = sample_poisson(rng, intensity)
        a = tuple(rng.randrange(G.n) for _ in range(spec.genus))
        c = tuple(rng.choice(orbit) for orbit in orbits)
        d = tuple(draw_twist() for _ in range(k))
        acc = evaluate_word(G, word, a)
        for x in c + d:
            acc = G.mul[acc][x]
        if acc == 0:
            counts = RamificationCounts((k,), (intensity,))
            return counts, MonodromyTuple(G, spec.orientable, spec.genus,
                                          spec.constraints, a, c, d)
    raise RuntimeError(
        f"acceptance rate below {1.0 / max_attempts:g} after "
        f"{max_attempts} attempts; the relation admits too few tuples")


def _boundary_classes_for(tame: TameGenerators, C: GConstraints,
                          G: FiniteGroup,
                          classes: ConjugacyClassTable) -> list[int]:
    """Class of each boundary generator's holonomy, following the circuit
    orientation the generator actually uses."""
    out = []
    for circuit, exponent in tame.c_meta:
        cls = C.boundary_classes[circuit]
        if exponent == -1:
            cls = classes.class_of[G.inv[classes.reps[cls]]]
        out.append(cls)
    return out


def monodromy_marginal(G: FiniteGroup, m: RibbonMap, tame: TameGenerators,
                       pi: JumpMeasure, C: GConstraints | None = None,
                       classes: ConjugacyClassTable | None = None,
                       tail_tol: float = DEFAULT_TAIL_TOL,
                       normalize: bool = False):
    """Joint law of the tame-generator monodromies under the weighted
    bundle measure, built face by face from Poisson-averaged convolution
    powers of the jump measure. No heat kernel and no characters enter;
    agreement with the holonomy route is a theorem, not an input. Returns
    (pmf dict keyed like holonomy.marginal_generators, total mass)."""
    if classes is None:
        classes = conjugacy_classes(G)
    if C is None:
        C = GConstraints()
    if m.areas is None:
        raise ValueError("map must carry face areas")
    if not is_orientable(m) and not pi.inversion_invariant:
        raise ValueError(
            "non-orientable maps need an inversion-invariant jump measure")
    g = len(tame.a)
    f = len(tame.l)
    areas = [m.areas[i] for i in tame.face_of_l]
    face_pmf = []
    for t in areas:
        dens = heat_kernel_series(pi, t, tail_tol)
        face_pmf.append([v / G.n for v in dens.values])
    orbit_classes = _boundary_classes_for(tame, C, G, classes)
    orbits = [classes.elements_of(c) for c in orbit_classes]
    pre = G.n ** (1 - g) / math.prod(len(o) for o in orbits)
    pmf: dict[tuple[int, ...], float] = {}
    total = 0.0
    for a in itertools.product(range(G.n), repeat=g):
        wa = evaluate_word(G, tame.w, a)
        for c in itertools.product(*orbits):
            head = wa
            for y in c:
                head = G.mul[head][y]
            for z_free in itertools.product(range(G.n), repeat=f - 1):
                zprod = 0
                for z in z_free:
                    zprod = G.mul[zprod][z]
                # z_1 ... z_f = w(a) y_1 ... y_p forces the last face value
                z_last = G.mul[G.inv[zprod]][head]
                zs = z_free + (z_last,)
                val = pre
                for zi, fp in zip(zs, face_pmf):
                    val *= fp[zi]
                key = a + c + zs
                pmf[key] = pmf.get(key, 0.0) + val
                total += val
    if normalize:
        pmf = {k: v / total for k, v in pmf.items()}
    return pmf, total


@dataclass
class HoloMonoReport:
    """Comparison of the heat-kernel and bundle-measure generator laws."""

    max_abs_diff: float
    total_holonomy: float
    total_monodromy: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.max_abs_diff = float(self.max_abs_diff)
        self.passed = bool(self.max_abs_diff <= self.tol)


def verify_holo_mono(G: FiniteGroup, m: RibbonMap, pi: JumpMeasure,
                     C: GConstraints | None = None,
                     tame: TameGenerators | None = None,
                     tol: float = 1e-9,
                     classes: ConjugacyClassTable | None = None,
                     cap: int = DEFAULT_CAP,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> HoloMonoReport:
    """Check that the generator law of the holonomy field (characters
    allowed) matches the monodromy law of the weighted random covering
    (series only) on the same map."""
    from .groups import character_table
    from .loops import tame_generators

    if classes is None:
        classes = conjugacy_classes(G)
    if C is None:
        C = GConstraints()
    if tame is None:
        tame = tame_generators(m)
    hk = HeatKernel(pi, character_table(G))
    gens = list(tame.a) + list(tame.c) + list(tame.l)
    hf_pmf, hf_total = marginal_generators(G, m, C, gens, hk, classes, cap)
    mf_pmf, mf_total = monodromy_marginal(G, m, tame, pi, C, classes,
                                          tail_tol)
    diff = 0.0
    for key in set(hf_pmf) | set(mf_pmf):
        diff = max(diff, abs(hf_pmf.get(key, 0.0) - mf_pmf.get(key, 0.0)))
    return HoloMonoReport(diff, hf_total, mf_total, tol)
