"""Finite groups from multiplication tables, conjugacy classes, characters,
and the convolution algebra of conjugation-invariant measures.

Everything here is exact where it can be: class measures built by counting
(eta, kappa, delta on a class) carry Fraction weights, and convolution of
Fraction-valued measures stays in Fraction arithmetic.  Character tables are
floating point (complex), obtained by simultaneous diagonalization of the
class-multiplication matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

__all__ = [
    "FiniteGroup",
    "ConjugacyClassTable",
    "ClassMeasure",
    "ClassDensity",
    "CharacterTable",
    "build_group",
    "builtin_names",
    "conjugacy_classes",
    "character_table",
    "convolve",
    "density_convolve",
    "delta_class",
    "eta_measure",
    "kappa_measure",
    "fourier_coefficient",
]

_CHAR_MAX_RETRIES = 32


class GroupError(ValueError):
    """Raised for malformed multiplication tables or invalid group data."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group of order n given by its multiplication table.

    Element 0 is the identity.  ``mul[x][y]`` is the index of x*y and
    ``inv[x]`` the index of the inverse of x.
    """

    n: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    name: str = "group"
    # data derived from the table, built on first use and kept
    _derived: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def _cached(self, key: str, build):
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def word(self, elements) -> int:
        """Product of a sequence of element indices, left to right."""
        acc = 0
        for x in elements:
            acc = self.mul[acc][x]
        return acc

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.word([a, b, self.inv[a], self.inv[b]])

    def subgroup_generated(self, gens) -> frozenset[int]:
        """Closure of a set of elements under multiplication."""
        seen = {0}
        frontier = [0]
        gens = [g for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul[x][g], self.mul[x][self.inv[g]]):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return frozenset(seen)

    def __repr__(self):
        return f"FiniteGroup({self.name}, n={self.n})"


@dataclass(frozen=True)
class ConjugacyClassTable:
    """Conjugacy classes of a group, identity class first."""

    group: FiniteGroup
    r: int
    class_of: tuple[int, ...]          # element index -> class index
    sizes: tuple[int, ...]
    reps: tuple[int, ...]              # one representative per class
    inverse_class: tuple[int, ...]     # class of x -> class of x^-1

    def elements_of(self, c: int) -> list[int]:
        return [x for x in range(self.group.n) if self.class_of[x] == c]

    def rep_label(self, c: int) -> str:
        return self.group.labels[self.reps[c]]


@dataclass(frozen=True)
class ClassMeasure:
    """A conjugation-invariant measure on G, stored as singleton weights.

    Weights may be Fractions (exact) or floats; operations preserve
    exactness when both operands are exact.
    """

    group: FiniteGroup
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.group.n:
            raise ValueError("weight vector length must equal group order")

    @property
    def mass(self):
        return sum(self.weights)

    def is_probability(self, tol=1e-12) -> bool:
        m = self.mass
        if isinstance(m, Fraction):
            return m == 1
        return abs(m - 1) <= tol

    def is_class_constant(self, classes: ConjugacyClassTable, tol=1e-12) -> bool:
        for c in range(classes.r):
            vals = [self.weights[x] for x in classes.elements_of(c)]
            if any(abs(v - vals[0]) > tol for v in vals):
                return False
        return True

    def scaled(self, factor) -> "ClassMeasure":
        return ClassMeasure(self.group, tuple(w * factor for w in self.weights))


@dataclass(frozen=True)
class ClassDensity:
    """A class function interpreted as a density w.r.t. the uniform
    probability measure on G: the measure of {x} is f(x)/n."""

    group: FiniteGroup
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.group.n:
            raise ValueError("value vector length must equal group order")


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible complex characters, rows sorted by dimension then value."""

    group: FiniteGroup
    classes: ConjugacyClassTable
    table: np.ndarray          # (r, r) complex, table[alpha, c] = chi_alpha(C_c)
    dims: tuple[int, ...]      # chi_alpha(1)
    fs_indicator: tuple[int, ...]   # Frobenius-Schur indicator per row

    @property
    def r(self) -> int:
        return self.classes.r


# ---------------------------------------------------------------------------
# group construction


def _validate_table(n: int, mul) -> None:
    if n <= 0:
        raise GroupError("group order must be positive")
    if len(mul) != n or any(len(row) != n for row in mul):
        raise GroupError("multiplication table must be n x n")
    for row in mul:
        for v in row:
            if not (0 <= v < n):
                raise GroupError(f"table entry {v} out of range")
    for x in range(n):
        if mul[0][x] != x or mul[x][0] != x:
            raise GroupError("element 0 is not an identity")
    # Light's test: the s with (x s) y = x (s y) for all x, y are closed
    # under products, so checking a generating set is exact.  Generators
    # are picked greedily: the first element not yet reached as a product.
    gens: list[int] = []
    reached = {0}
    for x in range(n):
        if x in reached:
            continue
        gens.append(x)
        frontier = list(reached)
        while frontier:
            y = frontier.pop()
            for s in gens:
                z = mul[y][s]
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
    table = np.array(mul)
    for s in gens:
        if not np.array_equal(table[table[:, s]], table[:, table[s]]):
            raise GroupError("multiplication table is not associative")


def _invert(n: int, mul) -> tuple[int, ...]:
    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == 0:
                inv[x] = y
                break
        if inv[x] < 0:
            raise GroupError(f"element {x} has no inverse")
    return tuple(inv)


def _from_table(mul, labels=None, name="group") -> FiniteGroup:
    n = len(mul)
    mul = tuple(tuple(int(v) for v in row) for row in mul)
    _validate_table(n, mul)
    inv = _invert(n, mul)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise GroupError("labels length must equal group order")
    return FiniteGroup(n=n, mul=mul, inv=inv, labels=labels, name=name)


def _cyclic(n: int) -> FiniteGroup:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _from_table(mul, [str(i) for i in range(n)], name=f"Z{n}")


def _from_permutations(perms: list[tuple[int, ...]], labels, name) -> FiniteGroup:
    """Group of permutations (tuples acting on points); element 0 must be id."""
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = [[0] * n for _ in range(n)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(len(p)))  # (p o q)
            mul[i][j] = index[comp]
    return _from_table(mul, labels, name=name)


def _symmetric(k: int, name: str) -> FiniteGroup:
    from itertools import permutations

    pts = tuple(range(k))
    perms = sorted(permutations(pts))
    perms.remove(pts)
    perms.insert(0, pts)
    labels = ["".join(str(x) for x in p) for p in perms]
    return _from_permutations(perms, labels, name)


def _alternating(k: int, name: str) -> FiniteGroup:
    from itertools import permutations

    def parity(p):
        seen = [False] * len(p)
        sign = 1
        for i in range(len(p)):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        return sign

    pts = tuple(range(k))
    perms = sorted(p for p in permutations(pts) if parity(p) == 1)
    perms.remove(pts)
    perms.insert(0, pts)
    labels = ["".join(str(x) for x in p) for p in perms]
    return _from_permutations(perms, labels, name)


def _dihedral4() -> FiniteGroup:
    # symmetries of the square: r = rotation by 90deg, s = reflection
    # elements: e, r, r2, r3, s, rs, r2s, r3s
    labels = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]

    def mul(a, b):
        ia, sa = a % 4, a // 4
        ib, sb = b % 4, b // 4
        if sa == 0:
            return ((ia + ib) % 4) + 4 * sb
        return ((ia - ib) % 4) + 4 * (1 - sb)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return _from_table(table, labels, name="D4")


def _quaternion8() -> FiniteGroup:
    # 1, -1, i, -i, j, -j, k, -k
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    one, mone, i, mi, j, mj, k, mk = range(8)
    neg = {one: mone, mone: one, i: mi, mi: i, j: mj, mj: j, k: mk, mk: k}
    base = {
        (i, i): mone, (j, j): mone, (k, k): mone,
        (i, j): k, (j, k): i, (k, i): j,
        (j, i): mk, (k, j): mi, (i, k): mj,
    }

    def mul(a, b):
        sign = 1
        if a in (mone, mi, mj, mk):
            a, sign = neg[a], -sign
        if b in (mone, mi, mj, mk):
            b, sign = neg[b], -sign
        if a == one:
            out = b
        elif b == one:
            out = a
        else:
            out = base[(a, b)]
        return neg[out] if sign < 0 else out

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return _from_table(table, labels, name="Q8")


_BUILTINS = {
    "Z2": lambda: _cyclic(2),
    "Z3": lambda: _cyclic(3),
    "Z4": lambda: _cyclic(4),
    "Z6": lambda: _cyclic(6),
    "S3": lambda: _symmetric(3, "S3"),
    "S4": lambda: _symmetric(4, "S4"),
    "A4": lambda: _alternating(4, "A4"),
    "D4": _dihedral4,
    "Q8": _quaternion8,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def build_group(spec) -> FiniteGroup:
    """Build a group from a builtin name or an explicit table description.

    Accepts a builtin name (str), an n x n table (list of lists), or a dict
    {"kind": "builtin"|"table", ...} mirroring the group file format.
    """
    if isinstance(spec, str):
        try:
            return _BUILTINS[spec]()
        except KeyError:
            raise GroupError(f"unknown builtin group {spec!r}") from None
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "builtin":
            return build_group(spec["name"])
        if kind == "table":
            return _from_table(
                spec["table"], spec.get("labels"), name=spec.get("name", "group")
            )
        raise GroupError(f"unknown group spec kind {kind!r}")
    return _from_table(spec)


# ---------------------------------------------------------------------------
# conjugacy classes


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClassTable:
    """The class table of G, built once per group."""
    return G._cached("classes", _conjugacy_classes)


def _conjugacy_classes(G: FiniteGroup) -> ConjugacyClassTable:
    n = G.n
    class_of = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        c = len(reps)
        orbit = sorted({G.conj(g, x) for g in range(n)})
        for y in orbit:
            class_of[y] = c
        reps.append(orbit[0])
        sizes.append(len(orbit))
    inverse_class = tuple(class_of[G.inv[reps[c]]] for c in range(len(reps)))
    return ConjugacyClassTable(
        group=G,
        r=len(reps),
        class_of=tuple(class_of),
        sizes=tuple(sizes),
        reps=tuple(reps),
        inverse_class=inverse_class,
    )


# ---------------------------------------------------------------------------
# character table


class CharacterTableError(RuntimeError):
    """Eigen-separation kept failing; the random combination was degenerate."""


def character_table(
    G: FiniteGroup, classes: ConjugacyClassTable | None = None
) -> CharacterTable:
    """Characters via a random combination of class-multiplication matrices.

    The matrices N_c, `(N_c)[d, e]` = number of pairs (x in C_c, y in C_d)
    with x y = rep(C_e), commute and share the eigenvectors
    omega(c) = |C_c| chi(c) / chi(1).  A random real combination separates
    them generically; the retry schedule is seeded and deterministic.
    """
    if classes is None:
        classes = conjugacy_classes(G)
    r = classes.r
    if r > 64:
        raise CharacterTableError("class count above supported bound (64)")
    n = G.n
    by_class = [classes.elements_of(c) for c in range(r)]
    # structure matrices
    N = np.zeros((r, r, r))
    for c in range(r):
        for d in range(r):
            for x in by_class[c]:
                for y in by_class[d]:
                    e = classes.class_of[G.mul[x][y]]
                    N[c, d, e] += 1
    # N_c acting by right multiplication on class-sum coordinates:
    # (N_c)[d, e] counts products landing in class e
    for attempt in range(_CHAR_MAX_RETRIES):
        rng = np.random.default_rng(1234 + attempt)
        coeff = rng.standard_normal(r)
        # structure constants a_{cde} = N[c,d,e] / |C_e|; the right
        # eigenvectors of sum_c coeff_c (a_{cde})_{d,e} are omega_alpha
        M = np.tensordot(coeff, N, axes=(0, 0)) / np.array(classes.sizes)[None, :]
        eigvals, eigvecs = np.linalg.eig(M)
        if r > 1 and np.min(
            np.abs(np.subtract.outer(eigvals, eigvals) + np.eye(r) * 1e9)
        ) < 1e-7:
            continue  # eigenvalue collision: redraw the combination
        vecs = eigvecs
        table = np.zeros((r, r), dtype=complex)
        dims = []
        ok = True
        for a in range(r):
            v = vecs[:, a]
            if abs(v[0]) < 1e-12:
                ok = False
                break
            omega = v / v[0]
            s = sum(abs(omega[c]) ** 2 / classes.sizes[c] for c in range(r))
            d = np.sqrt(n / s.real)
            if abs(d - round(d)) > 1e-6:
                ok = False
                break
            d = round(d)
            dims.append(d)
            for c in range(r):
                table[a, c] = d * omega[c] / classes.sizes[c]
        if not ok:
            continue
        # deterministic row order: dimension, then class values lexicographically
        def sort_key(a):
            vals = []
            for c in range(r):
                z = table[a, c]
                vals.append((round(z.real, 8), round(z.imag, 8)))
            return (dims[a], vals)

        perm = sorted(range(r), key=sort_key)
        table = table[perm]
        dims = [dims[a] for a in perm]
        # Frobenius-Schur indicator: (1/n) sum_x chi(x^2)
        fs = []
        sq_class_count = [0] * r
        for x in range(n):
            sq_class_count[classes.class_of[G.mul[x][x]]] += 1
        for a in range(r):
            val = sum(sq_class_count[c] * table[a, c] for c in range(r)) / n
            if abs(val.imag) > 1e-8 or abs(val.real - round(val.real)) > 1e-8:
                ok = False
                break
            fs.append(round(val.real))
        if not ok:
            continue
        ct = CharacterTable(
            group=G, classes=classes, table=table,
            dims=tuple(dims), fs_indicator=tuple(fs),
        )
        _check_orthogonality(ct)
        return ct
    raise CharacterTableError(
        f"eigen-separation failed after {_CHAR_MAX_RETRIES} seeded retries"
    )


def _check_orthogonality(ct: CharacterTable, tol=1e-9) -> None:
    r = ct.r
    n = ct.group.n
    sizes = np.array(ct.classes.sizes)
    gram = (ct.table * sizes) @ ct.table.conj().T
    if not np.allclose(gram, n * np.eye(r), atol=tol * n):
        raise CharacterTableError("row orthogonality check failed")
    if abs(sum(d * d for d in ct.dims) - n) > tol * n:
        raise CharacterTableError("sum of squared dimensions != |G|")


# ---------------------------------------------------------------------------
# measures and convolution


def _require_same_group(a, b):
    if a.group is not b.group and a.group != b.group:
        raise ValueError("operands live on different groups")


def _ldiv(G: FiniteGroup) -> np.ndarray:
    """ldiv[y, x] = y^-1 x, as an index table built once per group."""
    return G._cached("ldiv", lambda G: np.array(G.mul)[list(G.inv)])


def _convolve(G: FiniteGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)[x] = sum_y a[y] b[y^-1 x] for weight vectors indexed by
    element.  Only the rows where a is non-zero are multiplied, so sparse
    left operands stay cheap and object arrays of Fractions stay exact."""
    nz = np.flatnonzero(a)
    return a[nz] @ b[_ldiv(G)[nz]]


def _weights(*seqs) -> list[np.ndarray]:
    """Weight sequences as arrays: objects when every entry is an int or a
    Fraction, so that arithmetic stays exact, floats otherwise."""
    exact = all(isinstance(w, (int, Fraction)) for s in seqs for w in s)
    return [np.array(s, dtype=object if exact else float) for s in seqs]


def convolve(mu: ClassMeasure, nu: ClassMeasure) -> ClassMeasure:
    """(mu * nu)({x}) = sum_y mu({y}) nu({y^-1 x})."""
    _require_same_group(mu, nu)
    a, b = _weights(mu.weights, nu.weights)
    return ClassMeasure(mu.group, tuple(_convolve(mu.group, a, b).tolist()))


def convolution_power(mu: ClassMeasure, k: int) -> ClassMeasure:
    """mu^{*k}; k = 0 gives the point mass at the identity."""
    G = mu.group
    (w,) = _weights(mu.weights)
    one = Fraction(1) if w.dtype == object else 1.0
    acc = np.array([one] + [one * 0] * (G.n - 1), dtype=w.dtype)
    for _ in range(k):
        acc = _convolve(G, acc, w)
    return ClassMeasure(G, tuple(acc.tolist()))


def density_convolve(f: ClassDensity, g: ClassDensity) -> ClassDensity:
    """(f * g)(x) = (1/n) sum_y f(y) g(y^-1 x)."""
    _require_same_group(f, g)
    G = f.group
    out = _convolve(G, np.array(f.values, dtype=float),
                    np.array(g.values, dtype=float)) / G.n
    return ClassDensity(G, tuple(out.tolist()))


def delta_class(
    G: FiniteGroup, c: int, classes: ConjugacyClassTable | None = None
) -> ClassMeasure:
    """Uniform probability measure on the conjugacy class with index c."""
    if classes is None:
        classes = conjugacy_classes(G)
    if not (0 <= c < classes.r):
        raise ValueError(f"class index {c} out of range")
    size = classes.sizes[c]
    w = [
        Fraction(1, size) if classes.class_of[x] == c else Fraction(0)
        for x in range(G.n)
    ]
    return ClassMeasure(G, tuple(w))


def eta_measure(G: FiniteGroup) -> ClassMeasure:
    """Law of the commutator a b a^-1 b^-1 of two uniform elements; exact,
    built once per group."""
    return G._cached("eta", _eta_measure)


def _eta_measure(G: FiniteGroup) -> ClassMeasure:
    n = G.n
    counts = [0] * n
    for a, b in product(range(n), repeat=2):
        counts[G.commutator(a, b)] += 1
    return ClassMeasure(G, tuple(Fraction(c, n * n) for c in counts))


def kappa_measure(G: FiniteGroup) -> ClassMeasure:
    """Law of the square of a uniform element; exact, built once per
    group."""
    return G._cached("kappa", _kappa_measure)


def _kappa_measure(G: FiniteGroup) -> ClassMeasure:
    n = G.n
    counts = [0] * n
    for a in range(n):
        counts[G.mul[a][a]] += 1
    return ClassMeasure(G, tuple(Fraction(c, n) for c in counts))


def fourier_coefficient(mu: ClassMeasure, alpha: int, ct: CharacterTable) -> complex:
    """mu^(alpha) = sum_x conj(chi_alpha(x)) mu({x})."""
    if not (0 <= alpha < ct.r):
        raise ValueError(f"irrep index {alpha} out of range")
    classes = ct.classes
    total = 0j
    for x in range(mu.group.n):
        w = mu.weights[x]
        if w == 0:
            continue
        total += complex(ct.table[alpha, classes.class_of[x]]).conjugate() * float(w)
    return total
