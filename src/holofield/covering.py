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

import bisect
import functools
import itertools
import math
import random
from dataclasses import FrozenInstanceError, dataclass, replace
from fractions import Fraction

import numpy as np

from .groups import (
    ConjugacyClassTable,
    FiniteGroup,
    _conj,
    conjugacy_classes,
)
from .levy import (
    DEFAULT_TAIL_TOL,
    HeatKernel,
    JumpMeasure,
    SeriesKernel,
    poisson_weights,
)
from .surface import RibbonMap, SurfaceSpec
from .loops import (
    TameGenerators,
    _product_blocks,
    holonomy_of_steps,
    tame_generators,
)
from .holonomy import (
    DEFAULT_CAP,
    CapExceeded,
    GConstraints,
    _face_words,
    _require_inversion_invariant,
    marginal_generators,
    partition_formula,
)

# attempts sample_covering makes before it gives up
_MAX_ATTEMPTS = 2 * 10 ** 6
# entries of counting_check's conjugate-key gather, per chunk of rows
_GATHER = 1 << 16


def canonical_word(orientable: bool, genus: int) -> list[tuple[int, bool]]:
    """Surface word in the free group on `genus` letters, compiled as
    (letter, inverted) steps for holonomy_of_steps: a product of
    commutators for orientable surfaces, a product of squares otherwise."""
    if orientable:
        if genus % 2:
            raise ValueError("orientable reduced genus must be even")
        out = []
        for h in range(genus // 2):
            i, j = 2 * h, 2 * h + 1
            out += [(i, False), (j, False), (i, True), (j, True)]
        return out
    return [(i, False) for i in range(genus) for _ in range(2)]


@functools.lru_cache(maxsize=256)
def _relation_steps(orientable: bool, genus: int, extra: int):
    """w(a) c_1..c_p d_1..d_k read on the entries a + c + d, with `extra`
    = p + k letters after the genus ones."""
    return tuple(canonical_word(orientable, genus)
                 + [(i, False) for i in range(genus, genus + extra)])


def _check_tuples(G: FiniteGroup, orientable: bool, genus: int,
                  boundary_classes, entries) -> None:
    """Raise ValueError unless the entries are monodromy tuples: each
    boundary entry lies in its class, each twist is non-trivial and the
    surface relation closes. entries is one tuple of ints, or an integer
    array whose row i holds entry i over a block of tuples, checked whole."""
    class_of = conjugacy_classes(G)._class_array
    p = len(boundary_classes)
    # count_nonzero reduces a bool and a bool array alike
    for x, cls in zip(entries[genus:genus + p], boundary_classes):
        if np.count_nonzero(class_of[x] != cls):
            raise ValueError("boundary entry outside its class")
    for x in entries[genus + p:]:
        if np.count_nonzero(x == 0):
            raise ValueError("ramification entries must be non-trivial")
    steps = _relation_steps(orientable, genus, len(entries) - genus)
    if np.count_nonzero(holonomy_of_steps(G, steps, entries) != 0):
        raise ValueError("tuple does not satisfy the surface relation")


@dataclass(frozen=True)
class _Shape:
    """What every tuple of one enumeration shares: the group and the
    surface type its entries are read against."""

    group: FiniteGroup
    orientable: bool
    genus: int
    boundary_classes: tuple[int, ...]


class MonodromyTuple:
    """A based ramified bundle: generator monodromies plus local twists.
    It holds its shape, shared with every tuple of its enumeration, and
    its entries a + c + d as one tuple."""

    __slots__ = ("_shape", "_entries")

    def __init__(self, group: FiniteGroup, orientable: bool, genus: int,
                 boundary_classes: tuple[int, ...], a: tuple[int, ...],
                 c: tuple[int, ...], d: tuple[int, ...]):
        if len(a) != genus:
            raise ValueError("wrong number of genus entries")
        if len(c) != len(boundary_classes):
            raise ValueError("wrong number of boundary entries")
        entries = a + c + d
        _check_tuples(group, orientable, genus, boundary_classes, entries)
        _set_shape(self, _Shape(group, orientable, genus, boundary_classes))
        _set_entries(self, entries)

    @property
    def group(self) -> FiniteGroup:
        return self._shape.group

    @property
    def orientable(self) -> bool:
        return self._shape.orientable

    @property
    def genus(self) -> int:
        return self._shape.genus

    @property
    def boundary_classes(self) -> tuple[int, ...]:
        return self._shape.boundary_classes

    @property
    def a(self) -> tuple[int, ...]:
        return self._entries[:self._shape.genus]

    @property
    def c(self) -> tuple[int, ...]:
        g = self._shape.genus
        return self._entries[g:g + len(self._shape.boundary_classes)]

    @property
    def d(self) -> tuple[int, ...]:
        return self._entries[self._shape.genus
                             + len(self._shape.boundary_classes):]

    @property
    def k(self) -> int:
        return len(self.d)

    def entries(self) -> tuple[int, ...]:
        return self._entries

    def __eq__(self, other):
        if other.__class__ is not MonodromyTuple:
            return NotImplemented
        return (self._shape, self._entries) == (other._shape, other._entries)

    def __hash__(self):
        return hash((self._shape, self._entries))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        s = self._shape
        return MonodromyTuple, (s.group, s.orientable, s.genus,
                                s.boundary_classes, self.a, self.c, self.d)

    def __repr__(self):
        s = self._shape
        return (f"MonodromyTuple(group={s.group!r}, "
                f"orientable={s.orientable!r}, genus={s.genus!r}, "
                f"boundary_classes={s.boundary_classes!r}, a={self.a!r}, "
                f"c={self.c!r}, d={self.d!r})")


# the slots are written through their descriptors, past __setattr__
_set_shape = MonodromyTuple._shape.__set__
_set_entries = MonodromyTuple._entries.__set__


@dataclass(frozen=True)
class RamificationCounts:
    """Numbers of ramification points of a drawn bundle."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(k < 0 for k in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)


def _orbits(spec: SurfaceSpec, classes: ConjugacyClassTable):
    return [classes.elements_of(c) for c in spec.constraints]


def _tuple_rows(G: FiniteGroup, spec: SurfaceSpec, k: int,
                classes: ConjugacyClassTable, cap: int):
    """The tuples with exactly k ramification points as (entries, rows)
    integer blocks, each block checked whole. The
    last twist is forced by the surface relation and rows where it
    degenerates to the identity are dropped. The cap is checked here,
    before the first block."""
    if k < 0:
        raise ValueError("the number of twists must be non-negative")
    orbits = _orbits(spec, classes)
    g, p, free = spec.genus, spec.boundaries, max(k - 1, 0)
    size = G.n ** (g + free) * math.prod(len(o) for o in orbits)
    if size > cap:
        raise CapExceeded(f"enumeration size {size} exceeds cap {cap}")
    # the last twist closes the relation: (w(a) c d_1..d_{k-1})^-1
    closing = [(i, not rev) for i, rev in
               reversed(_relation_steps(spec.orientable, g, p + free))]

    def close(block):
        # it must not be the identity, and with no twists the relation must
        # close by itself
        last = holonomy_of_steps(G, closing, block)
        keep = (last == 0) == (k == 0)
        rows = (np.vstack([block, last[None]]) if k else block)[:, keep]
        _check_tuples(G, spec.orientable, g, spec.constraints, rows)
        return rows

    return map(close, _product_blocks([range(G.n)] * g + orbits
                                      + [range(1, G.n)] * free))


def _tuples_of(shape: _Shape, rows: np.ndarray):
    """MonodromyTuple objects for the rows of a block _check_tuples has
    passed, built without checking each one again."""
    # with no letters (the sphere with k = 0) zip(*rows) would yield nothing
    columns = zip(*rows.tolist()) if len(rows) else \
        itertools.repeat((), rows.shape[1])
    for entries in columns:
        t = object.__new__(MonodromyTuple)
        _set_shape(t, shape)
        _set_entries(t, entries)
        yield t


def _keyed_rows(G: FiniteGroup, spec: SurfaceSpec, k: int,
                classes: ConjugacyClassTable, cap: int):
    """The rows of _tuple_rows in chunks, each with every row's canonical
    key, the least key among its conjugates, and its |Aut|, the number of
    conjugations that fix it: (rows, canon, aut) with one gather per
    chunk."""
    blocks = _tuple_rows(G, spec, k, classes, cap)
    n = G.n
    # each entry is keyed by its index in its own alphabet, which
    # conjugation preserves: G for genus entries, the constrained class for
    # boundary entries, G minus the identity for twists
    alphabets = [range(n)] * spec.genus + _orbits(spec, classes) \
        + [range(1, n)] * k
    L = len(alphabets)
    code = np.zeros((L, n), dtype=np.int64)
    for j, alphabet in enumerate(alphabets):
        code[j, alphabet] = np.arange(len(alphabet))
    radices = [len(a) for a in alphabets]
    # only the closing twist lies outside the capped enumeration
    span = math.prod(radices)
    assert span <= n * cap
    if span >= 2 ** 63:
        raise CapExceeded(f"tuple key range {span} does not fit an int64")
    place = np.array([math.prod(radices[j + 1:]) for j in range(L)],
                     dtype=np.int64)
    # part[h, j * n + x]: the key part of entry j holding x, conjugated by h
    part = (code[:, _conj(G)] * place[:, None, None]).transpose(1, 0, 2)
    part = part.reshape(n, L * n)
    offsets = (np.arange(L) * n)[:, None]
    # keys[h, r], the key of row r conjugated by h, comes from one gather
    # over `step` rows at a time, whose (n, L, step) intermediate holds at
    # most _GATHER entries
    step = max(1, _GATHER // (n * max(L, 1)))
    for rows in blocks:
        at = rows + offsets
        for lo in range(0, at.shape[1], step):
            keys = part[:, at[:, lo:lo + step]].sum(axis=1)
            # row 0 is h = 1
            yield rows[:, lo:lo + step], keys.min(axis=0), \
                (keys == keys[0]).sum(axis=0)


def _enumerate_aut(G: FiniteGroup, spec: SurfaceSpec, k: int,
                   cap: int = DEFAULT_CAP) -> list[tuple[MonodromyTuple, int]]:
    """_tuple_rows's tuples in its order, each with its |Aut|, read from
    the conjugate keys counting_check gathers."""
    shape = _Shape(G, spec.orientable, spec.genus, spec.constraints)
    return [pair for rows, _, aut in
            _keyed_rows(G, spec, k, conjugacy_classes(G), cap)
            for pair in zip(_tuples_of(shape, rows), aut.tolist())]


def counting_check(G: FiniteGroup, spec: SurfaceSpec, k: int, f,
                   classes: ConjugacyClassTable | None = None,
                   cap: int = DEFAULT_CAP) -> tuple[Fraction, Fraction]:
    """Two exact evaluations of the same bundle count: sum of f over
    isomorphism classes weighted by 1/|Aut|, against the raw tuple sum
    divided by |G|. f must be constant on conjugation orbits."""
    if classes is None:
        classes = conjugacy_classes(G)
    n = G.n
    shape = _Shape(G, spec.orientable, spec.genus, spec.constraints)
    canon, aut = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = []
    for rows, key, fixed in _keyed_rows(G, spec, k, classes, cap):
        canon.append(key)
        aut.append(fixed)
        vals += map(f, _tuples_of(shape, rows))
    # ints and Fractions are summed as they are, anything else exactly
    if not set(map(type, vals)) <= {int, Fraction}:
        vals = [v if isinstance(v, (int, Fraction)) else Fraction(v)
                for v in vals]
    canon, aut = np.concatenate(canon), np.concatenate(aut)
    _, first, orbit, size = np.unique(canon, return_index=True,
                                      return_inverse=True, return_counts=True)
    # a conjugate missing from the enumeration shrinks its orbit
    if np.any(size[orbit] * aut != n):
        raise ValueError("orbit size inconsistent with automorphisms")
    if any(v != vals[r] for v, r in zip(vals, first[orbit].tolist())):
        raise ValueError("functional is not conjugation-invariant")
    # one Fraction division per automorphism order, not per orbit
    by_aut = {}
    for r, a in zip(first.tolist(), aut[first].tolist()):
        by_aut[a] = by_aut.get(a, 0) + vals[r]
    lhs = sum((Fraction(s) / a for a, s in by_aut.items()), Fraction(0))
    return lhs, Fraction(sum(vals)) / n


def bb_mass(G: FiniteGroup, spec: SurfaceSpec, pi: JumpMeasure,
            t: float | None = None,
            classes: ConjugacyClassTable | None = None,
            tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Total mass of the Poisson-ramified bundle measure at area t
    (default spec.area): partition_formula on the series kernel, which
    reads convolution powers of the jump measure only."""
    # Term by term this is sum_k P(N = k) times the k-twist tuple mass by
    # contraction on the surface with every boundary class inverted, since
    # the twists close (w(a) c_1..c_p)^-1 (as _boundary_classes_for inverts
    # classes on maps); the prefactor times the contraction's scale is n
    spec = spec if t is None else replace(spec, area=t)
    return partition_formula(G, spec, SeriesKernel(pi, tail_tol), classes)


@functools.lru_cache(maxsize=64)
def _poisson_cdf(intensity: float, tail_tol: float) -> tuple[float, ...]:
    """P(N <= k) for k = 0..K of the truncated Poisson law."""
    return tuple(itertools.accumulate(
        poisson_weights(intensity, tail_tol).tolist()))


def sample_covering(G: FiniteGroup, spec: SurfaceSpec, pi: JumpMeasure,
                    seed: int,
                    classes: ConjugacyClassTable | None = None,
                    tail_tol: float = DEFAULT_TAIL_TOL
                    ) -> tuple[RamificationCounts, MonodromyTuple]:
    """One draw from the normalized bundle measure by rejection: sample the
    ramification count from a Poisson law truncated at tail_tol, the
    generator entries uniformly, the twists from the normalized jump
    measure, and accept when the surface relation closes. Every attempt
    redraws the count, so the accepted pair carries the correct joint
    law. CapExceeded after _MAX_ATTEMPTS rejections."""
    if classes is None:
        classes = conjugacy_classes(G)
    orbits = _orbits(spec, classes)
    _require_inversion_invariant(spec.orientable, pi)
    cum_k = _poisson_cdf(float(pi.total_rate) * spec.area, tail_tol)
    cum = list(itertools.accumulate(float(w)
                                    for w in pi.normalized().weights))
    n, g, p = G.n, spec.genus, spec.boundaries
    mul, inv = G.mul, G.inv
    steps = {}  # the relation with k twists, by k
    rng = random.Random(seed)
    rand, randrange, choice = rng.random, rng.randrange, rng.choice

    for _ in range(_MAX_ATTEMPTS):
        # both draws invert a cumulative distribution by bisection; the
        # clamp covers a normalized sum that rounds below u
        k = min(bisect.bisect_left(cum_k, rand()), len(cum_k) - 1)
        x = [randrange(n) for _ in range(g)]
        x += [choice(orbit) for orbit in orbits]
        x += [bisect.bisect_left(cum, rand() * cum[-1]) for _ in range(k)]
        if k not in steps:
            steps[k] = _relation_steps(spec.orientable, g, p + k)
        h = 0
        for e, rev in steps[k]:
            h = mul[h][inv[x[e]] if rev else x[e]]
        if h == 0:
            return RamificationCounts((k,)), MonodromyTuple(
                G, spec.orientable, g, spec.constraints, tuple(x[:g]),
                tuple(x[g:g + p]), tuple(x[g + p:]))
    raise CapExceeded(
        f"acceptance rate below {1.0 / _MAX_ATTEMPTS:g} after "
        f"{_MAX_ATTEMPTS} attempts; the relation admits too few tuples")


def _boundary_classes_for(tame: TameGenerators, C: GConstraints,
                          classes: ConjugacyClassTable) -> list[int]:
    """Class of each boundary generator's holonomy, following the circuit
    orientation the generator actually uses."""
    out = []
    for circuit, exponent in tame.c_meta:
        cls = classes.checked(C.boundary_classes[circuit])
        out.append(classes.inverse_class[cls] if exponent == -1 else cls)
    return out


def tame_law(G: FiniteGroup, m: RibbonMap, tame: TameGenerators, kernel,
             C: GConstraints | None = None,
             classes: ConjugacyClassTable | None = None):
    """Joint law of the tame generators, each face weighted by the kernel
    (HeatKernel or SeriesKernel) at its area and the last one forced by the
    relation: (pmf keyed like holonomy.marginal_generators, total mass)."""
    if classes is None:
        classes = conjugacy_classes(G)
    if C is None:
        C = GConstraints()
    words = _face_words(m, kernel)
    g, f = len(tame.a), len(tame.l)
    face_pmf = [words[i][1] / G.n for i in tame.face_of_l]
    orbit_classes = _boundary_classes_for(tame, C, classes)
    orbits = [classes.elements_of(c) for c in orbit_classes]
    p = len(orbits)
    pre = G.n ** (1 - g) / math.prod(len(o) for o in orbits)
    # z_1 ... z_f = w(a) y_1 ... y_p forces the last face value
    # z_f = z_{f-1}^-1 ... z_1^-1 w(a) y_1 ... y_p
    last = [(i, True) for i in range(g + p + f - 2, g + p - 1, -1)]
    last += [(i, s == -1) for i, s in tame.w]
    last += [(g + i, False) for i in range(p)]
    pmf: dict[tuple[int, ...], float] = {}
    for block in _product_blocks([range(G.n)] * g + orbits
                                 + [range(G.n)] * (f - 1)):
        z_last = holonomy_of_steps(G, last, block)
        rows = np.vstack([block, z_last])
        val = np.full(rows.shape[1], pre)
        for z, fp in zip(rows[g + p:], face_pmf):
            val = val * fp[z]
        # (a, c, z_1 .. z_{f-1}) fixes the row, so every key is new
        pmf.update(zip(map(tuple, rows.T.tolist()), val.tolist()))
    return pmf, math.fsum(pmf.values())


def monodromy_marginal(G: FiniteGroup, m: RibbonMap, tame: TameGenerators,
                       pi: JumpMeasure, C: GConstraints | None = None,
                       classes: ConjugacyClassTable | None = None):
    """Law of the tame-generator monodromies under the weighted bundle
    measure: tame_law on the series kernel at DEFAULT_TAIL_TOL, so no
    characters enter and agreement with the holonomy route is a theorem,
    not an input."""
    return tame_law(G, m, tame, SeriesKernel(pi), C, classes)


@dataclass(frozen=True)
class HoloMonoReport:
    """Comparison of the heat-kernel and bundle-measure generator laws."""

    max_abs_diff: float
    total_holonomy: float
    total_monodromy: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_diff <= self.tol


def verify_holo_mono(G: FiniteGroup, m: RibbonMap, hk: HeatKernel,
                     C: GConstraints | None = None,
                     tame: TameGenerators | None = None,
                     tol: float = 1e-9,
                     cap: int = DEFAULT_CAP,
                     kernel=None) -> HoloMonoReport:
    """Check that the generator law of the holonomy field on hk matches
    tame_law on kernel (default the series, so that the law is the
    monodromy law of the weighted random covering) on the same map."""
    if C is None:
        C = GConstraints()
    if tame is None:
        tame = tame_generators(m)
    if kernel is None:
        kernel = SeriesKernel(hk.pi)
    gens = list(tame.a) + list(tame.c) + list(tame.l)
    hf_pmf, hf_total = marginal_generators(G, m, C, gens, hk, cap=cap)
    mf_pmf, mf_total = tame_law(G, m, tame, kernel, C)
    diff = max(abs(hf_pmf.get(key, 0.0) - mf_pmf.get(key, 0.0))
               for key in hf_pmf.keys() | mf_pmf.keys())
    return HoloMonoReport(diff, hf_total, mf_total, tol)
