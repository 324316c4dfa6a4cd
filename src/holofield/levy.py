"""Conjugation-invariant jump processes on a finite group: jump measures,
admissibility, and the heat kernel Q_t computed by two independent routes
(truncated Poisson series of convolution powers, and a character sum).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from .groups import (
    CharacterTable,
    ClassDensity,
    ClassMeasure,
    ConjugacyClassTable,
    FiniteGroup,
    _convolve,
    _ldiv,
    conjugacy_classes,
    fourier_coefficient,
)

__all__ = [
    "JumpMeasure",
    "HeatKernel",
    "SeriesKernel",
    "jump_measure_from_class_rates",
    "uniform_jump_measure",
    "check_admissible",
    "heat_kernel_series",
    "poisson_truncation_index",
    "poisson_weights",
]

DEFAULT_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class JumpMeasure:
    """A finite conjugation-invariant measure on G with no mass at 1."""

    measure: ClassMeasure

    def __post_init__(self):
        if self.measure.weights[0] != 0:
            raise ValueError("jump measure must vanish at the identity")
        if any(w < 0 for w in self.measure.weights):
            raise ValueError("jump measure must be non-negative")
        if any(isinstance(w, float) and not math.isfinite(w)
               for w in self.measure.weights):
            raise ValueError("jump measure must be finite")

    @property
    def group(self) -> FiniteGroup:
        return self.measure.group

    # total_rate, inversion_invariant and normalized() are computed once
    # per instance; a cache keyed by the measure would hand a measure with
    # float weights the result of an equal one with int weights
    @functools.cached_property
    def total_rate(self):
        return self.measure.mass

    @functools.cached_property
    def inversion_invariant(self) -> bool:
        inv = self.group.inv
        w = self.measure.weights
        return all(w[x] == w[inv[x]] for x in range(self.group.n))

    def support(self) -> list[int]:
        return [x for x, w in enumerate(self.measure.weights) if w != 0]

    def normalized(self) -> ClassMeasure:
        """Pi_1 = Pi / Pi(G), the jump-target probability measure."""
        return self._normalized

    @functools.cached_property
    def _normalized(self) -> ClassMeasure:
        m = self.total_rate
        if m == 0:
            raise ValueError("zero jump measure cannot be normalized")
        if self.measure._exact is not None:
            return ClassMeasure(
                self.group, tuple(Fraction(w) / m for w in self.measure.weights)
            )
        return self.measure.scaled(1.0 / float(m))


def jump_measure_from_class_rates(
    G: FiniteGroup, rates: dict, classes: ConjugacyClassTable | None = None
) -> JumpMeasure:
    """Expand per-class rates (keyed by class index or representative label)
    into singleton weights: a class with rate w gets w/|C| per element.
    A rate is a number as it is (an int, a float or a Fraction), never a
    bool or a string.
    A string key is a label first and otherwise a class index exactly as
    str(c) writes it, as JSON object keys are always strings."""
    if classes is None:
        classes = conjugacy_classes(G)
    per_class = [Fraction(0)] * classes.r
    given = set()
    for key, rate in rates.items():
        c = key if isinstance(key, int) else next(
            (c for c in range(classes.r) if classes.rep_label(c) == str(key)),
            None)
        if c is None:
            # an index exactly as str(c) writes it: int() alone would also
            # read "01", " 1", "+1" and "1_0"
            s = str(key)
            if not s.removeprefix("-").isdecimal() or str(int(s)) != s:
                raise ValueError(
                    f"no conjugacy class with representative {key!r}")
            c = int(s)
        if classes.checked(c) in given:
            raise ValueError(f"class {c} is given twice")
        given.add(c)
        if isinstance(rate, bool) or not isinstance(rate, (Rational, float)):
            raise ValueError(f"rate {rate!r} of class {c} is not a number")
        per_class[c] = Fraction(rate) if not isinstance(rate, float) else rate
    weights = [
        per_class[classes.class_of[x]] / classes.sizes[classes.class_of[x]]
        if per_class[classes.class_of[x]] != 0
        else Fraction(0)
        for x in range(G.n)
    ]
    return JumpMeasure(ClassMeasure(G, tuple(weights)))


def uniform_jump_measure(G: FiniteGroup, total_rate=1) -> JumpMeasure:
    """Rate spread uniformly over the non-identity elements, Pi(G) = total."""
    if G.n < 2:
        raise ValueError("group must have a non-identity element")
    w = Fraction(total_rate, G.n - 1) if not isinstance(total_rate, float) \
        else total_rate / (G.n - 1)
    weights = tuple([Fraction(0)] + [w] * (G.n - 1))
    return JumpMeasure(ClassMeasure(G, weights))


@dataclass
class AdmissibilityReport:
    conjugation_invariant: bool
    generated_subgroup: frozenset[int]
    generates_group: bool
    inversion_invariant: bool

    @property
    def admissible(self) -> bool:
        return self.conjugation_invariant and self.generates_group


def check_admissible(pi: JumpMeasure) -> AdmissibilityReport:
    """Admissibility in the finite-group sense: the support of the jump
    measure must generate the whole group (then Q_t > 0 everywhere)."""
    G = pi.group
    H = G.subgroup_generated(pi.support())
    return AdmissibilityReport(
        conjugation_invariant=pi.measure.is_class_constant(),
        generated_subgroup=H,
        generates_group=len(H) == G.n,
        inversion_invariant=pi.inversion_invariant,
    )


def poisson_weights(m: float, tail_tol: float) -> np.ndarray:
    """P(Poisson(m) = k) for k = 0..K, K the smallest index with
    P(Poisson(m) > K) <= tail_tol, renormalized to sum to one.

    The terms are built outward from the mode, whose log-probability is
    exact, so nothing under- or overflows at large m, and the tail is
    summed from its small end instead of taken as 1 minus a sum."""
    m = float(m)
    if m < 0 or not tail_tol > 0:
        raise ValueError("need a non-negative mean and a positive tail_tol")
    if m == 0:
        return np.ones(1)
    mode = int(m)
    terms = [math.exp(mode * math.log(m) - m - math.lgamma(mode + 1))]
    for k in range(mode, 0, -1):
        terms.append(terms[-1] * k / m)
    terms.reverse()
    # past k > m the terms fall faster than a geometric series of ratio
    # m/(k+1), which bounds the rest; stop once that bound is negligible
    k, rest = mode, math.inf
    while rest > 1e-9 * tail_tol:
        k += 1
        terms.append(terms[-1] * m / k)
        ratio = m / (k + 1)
        rest = terms[-1] * ratio / (1 - ratio) if ratio < 1 else math.inf
    # beyond[k] bounds P(N > k)
    beyond = np.append(np.cumsum(terms[:0:-1])[::-1], 0.0) + rest
    K = int(np.argmax(beyond <= tail_tol))
    w = np.array(terms[:K + 1])
    return w / w.sum()


def poisson_truncation_index(rate_times_t: float, tail_tol: float) -> int:
    """Smallest K with P(Poisson(m) > K) <= tail_tol, m = rate*t."""
    return len(poisson_weights(rate_times_t, tail_tol)) - 1


def _exponents(pi: JumpMeasure, table: CharacterTable) -> tuple[complex, ...]:
    """lambda_alpha = Pi(G) - Pi^(alpha)/d_alpha, one per irrep."""
    rate = complex(float(pi.total_rate))
    return tuple(rate - fourier_coefficient(pi.measure, a, table) / table.dims[a]
                 for a in range(table.r))


@dataclass
class HeatKernel:
    """Heat kernel of the jump process with Lévy measure Pi.

    Per-irrep exponents lambda_alpha = Pi(G) - Pi^(alpha)/d_alpha drive the
    character route; evaluations are cached per t.
    """

    pi: JumpMeasure
    table: CharacterTable
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.exponents = _exponents(self.pi, self.table)

    @property
    def group(self) -> FiniteGroup:
        return self.pi.group

    def density(self, t: float) -> ClassDensity:
        """Q_t by the character route (cached)."""
        key = float(t)
        if key not in self._cache:
            self._cache[key] = _character_sum(self.table, self.exponents, t)
        return self._cache[key]


def heat_kernel_series(
    pi: JumpMeasure, t: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> ClassDensity:
    """Q_t = n sum_k P(N_{Pi(G) t} = k) Pi_1^{*k}, Pi_1 = Pi/Pi(G), by
    convolution powers only.  For Pi(G) t > 1 the series runs at
    s = t/2^h with Pi(G) s <= 1 and is squared h times (Q_2s = Q_s * Q_s).
    The series at s drops Poisson mass at most tail_tol/2^h and each
    squaring at most doubles an error, so Q_t stays within about
    2 tail_tol of the exact kernel in total variation."""
    if t < 0:
        raise ValueError("time must be non-negative")
    G = pi.group
    m = float(pi.total_rate) * t
    if m == 0:
        return ClassDensity(G, tuple([float(G.n)] + [0.0] * (G.n - 1)))
    h = max(0, math.ceil(math.log2(m)))
    step = pi.normalized()._floats[_ldiv(G)]  # (mu @ step)[x] = (mu * Pi_1)(x)
    w = poisson_weights(m / 2 ** h, tail_tol / 2 ** h)
    powers = np.zeros((len(w), G.n))
    powers[0, 0] = 1.0
    for k in range(1, len(w)):
        powers[k] = powers[k - 1] @ step
    # sum_k w_k Pi_1^{*k}, added in k order
    q = np.add.accumulate(w[:, None] * powers)[-1]
    for _ in range(h):
        q = _convolve(G, q, q)
    return ClassDensity(G, tuple((G.n * q).tolist()))


@dataclass(frozen=True)
class SeriesKernel:
    """Q_t by heat_kernel_series (not cached), behind HeatKernel's
    pi/density surface: the field routes read it with no characters."""

    pi: JumpMeasure
    tail_tol: float = DEFAULT_TAIL_TOL

    def density(self, t: float) -> ClassDensity:
        return heat_kernel_series(self.pi, t, self.tail_tol)


def _character_sum(table: CharacterTable, exponents, t: float) -> ClassDensity:
    """Q_t(x) = sum_alpha e^{-t lambda_alpha} d_alpha chi_alpha(x)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    coeffs = [cmath.exp(-t * lam) * d for lam, d in zip(exponents, table.dims)]
    per_class = []
    for column in table.table.T:
        z = sum(k * chi for k, chi in zip(coeffs, column))
        if abs(z.imag) > 1e-9:
            raise ArithmeticError(
                f"residual imaginary part {z.imag:.3e} in character sum"
            )
        per_class.append(float(z.real))
    return ClassDensity(table.group,
                        tuple(per_class[c] for c in table.classes.class_of))
