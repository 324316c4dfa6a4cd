"""Finite groups from multiplication tables, conjugacy classes, characters,
and the convolution algebra of conjugation-invariant measures.

Everything here is exact where it can be: class measures built by counting
(eta, kappa, delta on a class) carry Fraction weights.  Exact weights
convolve as integer numerators over one common denominator, in int64 while
no sum can overflow it and in Python ints beyond, each product reduced by
the gcd; Fractions appear only where a ClassMeasure is returned.  Character
tables are floating point (complex), obtained by simultaneous
diagonalization of the class-multiplication matrices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "FiniteGroup",
    "ConjugacyClassTable",
    "ClassMeasure",
    "ClassDensity",
    "CharacterTable",
    "build_group",
    "conjugacy_classes",
    "character_table",
    "convolve",
    "density_convolve",
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

    def _cached(self, key, build):
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

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

    def checked(self, c: int) -> int:
        """c, when it indexes a class; ValueError otherwise."""
        if not (0 <= c < self.r):
            raise ValueError(f"class index {c} out of range")
        return c

    def elements_of(self, c: int) -> list[int]:
        c = self.checked(c)
        return [x for x in range(self.group.n) if self.class_of[x] == c]

    def rep_label(self, c: int) -> str:
        return self.group.labels[self.reps[c]]

    @functools.cached_property
    def _class_array(self) -> np.ndarray:
        """class_of as an index array, built once."""
        out = np.array(self.class_of)
        out.flags.writeable = False
        return out


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

    def is_class_constant(self) -> bool:
        """Whether the weights agree, to 1e-12, on each conjugacy class."""
        classes = conjugacy_classes(self.group)
        for c in range(classes.r):
            vals = [self.weights[x] for x in classes.elements_of(c)]
            if any(abs(v - vals[0]) > 1e-12 for v in vals):
                return False
        return True

    def scaled(self, factor) -> "ClassMeasure":
        return ClassMeasure(self.group, tuple(w * factor for w in self.weights))

    @functools.cached_property
    def _floats(self) -> np.ndarray:
        """float(w) for every weight, converted once."""
        return np.array(self.weights, dtype=float)

    @functools.cached_property
    def _exact(self):
        """The weights as a (numerators, denominator) pair, converted once:
        integer numerators over the lcm of the denominators, or None when
        some weight is neither an int nor a Fraction."""
        if not all(isinstance(w, (int, Fraction)) for w in self.weights):
            return None
        den = math.lcm(*(w.denominator for w in self.weights))
        return _ints([w.numerator * (den // w.denominator)
                      for w in self.weights]), den


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


def _table_array(mul) -> np.ndarray:
    """The table as an array: as it is when it is an integer array, else
    from rows whose entries are all ints, no bool, float or string read as
    one. Ragged rows and other entries are a GroupError."""
    if isinstance(mul, np.ndarray) and mul.dtype.kind in "iu":
        return mul
    rows = [list(row) for row in mul]
    for v in itertools.chain(*rows):
        if type(v) is not int:
            raise GroupError(f"table entry {v!r} is not an integer")
    if any(len(row) != len(rows) for row in rows):
        raise GroupError("multiplication table must be n x n")
    return np.array(rows)


def _validate_table(n: int, table: np.ndarray) -> None:
    if n <= 0:
        raise GroupError("group order must be positive")
    if table.shape != (n, n):
        raise GroupError("multiplication table must be n x n")
    bad = (table < 0) | (table >= n)
    if bad.any():
        # the first bad entry in row order
        raise GroupError(f"table entry {table.flat[bad.argmax()]} out of range")
    x = np.arange(n)
    if (table[0] != x).any() or (table[:, 0] != x).any():
        raise GroupError("element 0 is not an identity")
    # Light's test: the s with (x s) y = x (s y) for all x, y are closed
    # under products, so checking a generating set is exact.  Generators
    # are picked greedily: the first element not yet reached as a product.
    mul = table.tolist()
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
    for s in gens:
        if not np.array_equal(table[table[:, s]], table[:, table[s]]):
            raise GroupError("multiplication table is not associative")


def _invert(n: int, table: np.ndarray) -> np.ndarray:
    # the first y with x y = 1, which is y = 0 when there is none
    inv = (table == 0).argmax(axis=1)
    missing = table[np.arange(n), inv] != 0
    if missing.any():
        raise GroupError(f"element {missing.argmax()} has no inverse")
    return inv


def _from_table(mul, labels=None, name="group") -> FiniteGroup:
    table = _table_array(mul)
    n = len(table)
    _validate_table(n, table)
    inv = _invert(n, table)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise GroupError("labels length must equal group order")
        if any(type(x) is not str for x in labels) or len(set(labels)) < n:
            raise GroupError("labels must be distinct strings")
    G = FiniteGroup(n=n, mul=tuple(map(tuple, table.tolist())),
                    inv=tuple(inv.tolist()), labels=labels, name=name)
    G._derived["arrays"] = table.astype(np.intp).ravel(), inv.astype(np.intp)
    return G


def _cyclic(n: int) -> FiniteGroup:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _from_table(mul, [str(i) for i in range(n)], name=f"Z{n}")


def _from_permutations(perms: list[tuple[int, ...]], labels, name) -> FiniteGroup:
    """Group of permutations (tuples acting on points); element 0 must be id."""
    p = np.array(perms)
    # each permutation by its digits in base k, and p o q for every pair
    digits = p.shape[1] ** np.arange(p.shape[1])
    code, comp = p @ digits, p[:, p] @ digits
    order = np.argsort(code)
    mul = order[np.searchsorted(code, comp, sorter=order)]
    return _from_table(mul, labels, name=name)


def _permutations(k: int, name: str, even: bool = False) -> FiniteGroup:
    """The permutations of k points in lexicographic order (the identity
    first), or only the even ones: those with an even number of
    inversions."""
    from itertools import combinations, permutations

    perms = [p for p in permutations(range(k))
             if not even or sum(a > b for a, b in combinations(p, 2)) % 2 == 0]
    labels = ["".join(map(str, p)) for p in perms]
    return _from_permutations(perms, labels, name)


def _dihedral4() -> FiniteGroup:
    # symmetries of the square: r^i s^j acts on the corners as
    # x -> (-1)^j x + i (mod 4); elements e, r, r2, r3, s, rs, r2s, r3s
    perms = [tuple(((-1) ** j * x + i) % 4 for x in range(4))
             for j in range(2) for i in range(4)]
    labels = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    return _from_permutations(perms, labels, "D4")


def _quaternion8() -> FiniteGroup:
    # left multiplication on the basis 1, i, j, k as signed permutations of
    # 8 points, point a + 4 being -e_a: the images of the basis under 1, i,
    # j and k, and negation adds 4 (mod 8); elements 1, -1, i, -i, ...
    units = [(0, 1, 2, 3), (1, 4, 3, 6), (2, 7, 4, 1), (3, 2, 5, 4)]
    perms = []
    for u in units:
        minus = tuple((x + 4) % 8 for x in u)
        perms += [u + minus, minus + u]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return _from_permutations(perms, labels, "Q8")


_BUILTINS = {
    "Z2": lambda: _cyclic(2),
    "Z3": lambda: _cyclic(3),
    "Z4": lambda: _cyclic(4),
    "Z6": lambda: _cyclic(6),
    "S3": lambda: _permutations(3, "S3"),
    "S4": lambda: _permutations(4, "S4"),
    "A4": lambda: _permutations(4, "A4", even=True),
    "D4": _dihedral4,
    "Q8": _quaternion8,
}


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
    conj = _conj(G)
    class_of = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        c = len(reps)
        orbit = sorted(set(conj[:, x].tolist()))
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
    mul = _tables(G)[0]
    cls = classes._class_array
    sizes = np.array(classes.sizes)
    # structure matrices: N[c, d, e] counts the pairs (x in C_c, y in C_d)
    # with x y in C_e
    x, y = np.divmod(np.arange(n * n), n)
    N = np.bincount((cls[x] * r + cls[y]) * r + cls[mul], minlength=r ** 3)
    N = N.reshape(r, r, r).astype(float)
    # squares[c] counts the x with x^2 in C_c
    squares = np.bincount(cls[mul[np.arange(n) * (n + 1)]], minlength=r)
    for attempt in range(_CHAR_MAX_RETRIES):
        coeff = _combination(attempt, r)
        # structure constants a_{cde} = N[c,d,e] / |C_e|; the right
        # eigenvectors of sum_c coeff_c (a_{cde})_{d,e} are omega_alpha
        # (the product np.tensordot(coeff, N, axes=(0, 0)) takes)
        M = np.dot(coeff[None], N.reshape(r, r * r)).reshape(r, r) \
            / sizes[None, :]
        eigvals, eigvecs = np.linalg.eig(M)
        if r > 1 and np.min(
            np.abs(np.subtract.outer(eigvals, eigvals) + np.eye(r) * 1e9)
        ) < 1e-7:
            continue  # eigenvalue collision: redraw the combination
        if np.min(np.abs(eigvecs[0])) < 1e-12:
            continue
        # column a normalized to omega_a(identity class) = 1, then
        # chi_a = d_a omega_a / |C| with d_a^2 = n / sum_c |omega_a(c)|^2/|C_c|
        omega = eigvecs / eigvecs[0]
        d = np.sqrt(n / (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0))
        if np.max(np.abs(d - np.round(d))) > 1e-6:
            continue
        d = np.round(d)
        table = (d * omega / sizes[:, None]).T.astype(complex)
        # deterministic row order: dimension, then class values
        # lexicographically (last key first for lexsort)
        values = np.round(np.stack([table.real, table.imag], axis=2), 8)
        perm = np.lexsort([*values.reshape(r, 2 * r).T[::-1], d])
        table, d = table[perm], d[perm]
        # Frobenius-Schur indicator: (1/n) sum_x chi(x^2)
        fs = table @ squares / n
        if np.max(np.abs([fs.imag, fs.real - np.round(fs.real)])) > 1e-8:
            continue
        ct = CharacterTable(
            group=G, classes=classes, table=table,
            dims=tuple(d.astype(int).tolist()),
            fs_indicator=tuple(np.round(fs.real).astype(int).tolist()),
        )
        _check_orthogonality(ct)
        return ct
    raise CharacterTableError(
        f"eigen-separation failed after {_CHAR_MAX_RETRIES} seeded retries"
    )


# np.random.default_rng(1234).standard_normal(64) written out: attempt
# 0's coefficients for up to 64 classes (standard_normal(r) is its first r
# values).  Attempt 0, which every group built so far takes, reads them
# without loading numpy.random, and they stay put if numpy's stream moves.
_FIRST_DRAW = (
    -1.6038368053963015, 0.06409991400376411, 0.7408912958767259,
    0.15261919356565307, 0.8637438913233318, 2.913099222503971,
    -1.4788233606644015, 0.9454729746458599, -1.6661354573179643,
    0.34374458145267967, -0.5124437092848577, 1.3237589566885721,
    -0.8602801935850233, 0.5194931990183601, -1.265143717549522,
    -2.1591390112963427, 0.434733949991724, 1.7332893199459019,
    0.5201341562355202, -1.0021657937544401, 0.26834554039213576,
    0.7671747004800961, 1.1912720267866572, -1.1574108072969482,
    0.6962793952555424, 0.3513836857921296, -0.03241508301125762,
    0.013181579118739723, -0.6792499696951128, -0.6205320275267293,
    1.33121421656793, 0.25883851276767456, -0.4814839171196073,
    -2.491789618298251, -0.8765637740699862, -0.5055091274868608,
    -1.28312916995062, -1.3303284249793816, 0.8259925843791154,
    -0.2472150147600114, -1.6997061161296745, -1.3351528661046907,
    -0.2996388895736321, 1.114806898511729, -1.5064088465741625,
    1.5901120754816345, -0.4873251766889029, -1.7111021870893204,
    0.5130902145495575, 1.4370919181887032, -0.22180410920646204,
    0.6488165016242814, -0.3178911946054081, -0.010978255182129314,
    1.6654165038518933, 0.8957864342574032, -1.2026011883336214,
    2.7996271147006393, -1.0211962469348412, 0.8481069967984006,
    0.4980826050683653, -0.0844416387593181, 0.20249332585816304,
    -0.16380577789126796,
)


@functools.cache
def _combination(attempt: int, r: int) -> np.ndarray:
    """The seeded coefficients of character_table's attempt on r classes:
    attempt 0's from _FIRST_DRAW, a retry's drawn from numpy.random, once."""
    if attempt == 0:
        coeff = np.array(_FIRST_DRAW[:r])
    else:
        coeff = np.random.default_rng(1234 + attempt).standard_normal(r)
    coeff.flags.writeable = False
    return coeff


def _check_orthogonality(ct: CharacterTable) -> None:
    n = ct.group.n
    sizes = np.array(ct.classes.sizes)
    gram = (ct.table * sizes) @ ct.table.conj().T
    # np.allclose(gram, n I, atol=1e-9 n): |gram - n I| <= 1e-9 n + 1e-5 n I
    nI = n * np.eye(ct.r)
    if not (np.abs(gram - nI) <= 1e-9 * n + 1e-5 * nI).all():
        raise CharacterTableError("row orthogonality check failed")
    if abs(sum(d * d for d in ct.dims) - n) > 1e-9 * n:
        raise CharacterTableError("sum of squared dimensions != |G|")


# ---------------------------------------------------------------------------
# measures and convolution


def _require_same_group(a, b):
    if a.group is not b.group and a.group != b.group:
        raise ValueError("operands live on different groups")


def _tables(G: FiniteGroup):
    """The multiplication table flattened (x*y at x*n + y) and the inverse
    table as integer arrays, built once per group; _from_table sets them
    from the array it validated."""
    return G._cached("arrays", lambda G: (
        np.array(G.mul, dtype=np.intp).ravel(),
        np.array(G.inv, dtype=np.intp)))


def _conj(G: FiniteGroup) -> np.ndarray:
    """conj[h, x] = h x h^-1, as an index table built once per group."""
    def build(G):
        n = G.n
        mul, inv = _tables(G)
        h = np.arange(n)[:, None]
        return mul[mul[h * n + np.arange(n)] * n + inv[h]]
    return G._cached("conj", build)


def _ldiv(G: FiniteGroup) -> np.ndarray:
    """ldiv[y, x] = y^-1 x, as an index table built once per group."""
    def build(G):
        mul, inv = _tables(G)
        return mul.reshape(G.n, G.n)[inv]
    return G._cached("ldiv", build)


def _columns(v: np.ndarray, index: np.ndarray) -> np.ndarray:
    """v[..., index] for a vector or a batch of them, without the cost of
    an Ellipsis index on a vector."""
    return v[index] if v.ndim == 1 else v[:, index]


def _convolve(G: FiniteGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)[x] = sum_y a[y] b[y^-1 x] for weight vectors indexed by
    element.  Only the rows where a is non-zero are multiplied, so sparse
    left operands stay cheap.  Float vectors multiply as they are; integer
    vectors exactly, in int64 while no sum can reach 2^63 (max|a| max|b|
    times the rows multiplied) and in Python ints beyond.

    Either operand may be a batch, one vector per row: an (r, n) left and
    an (m, n) right operand give out[j, c] = a[c] * b[j], shape (m, r, n);
    a batch on one side only gives one row per vector of that batch."""
    nz = (a.any(axis=0) if a.ndim > 1 else a).nonzero()[0]
    a, b = _columns(a, nz), _columns(b, _ldiv(G)[nz])
    if a.dtype.kind != "f" and len(nz):
        # a zero b still needs a's own entries to fit
        bound = int(np.abs(a).max()) * max(int(np.abs(b).max()), 1)
        fits = bound * len(nz) < 2 ** 63
        a = a.astype(np.int64 if fits else object, copy=False)
        b = b.astype(a.dtype, copy=False)
    return a @ b


def _ints(values: list[int]) -> np.ndarray:
    """Integers as an int64 array when they all fit one, else as an array
    of Python ints."""
    fits = max(map(abs, values)) < 2 ** 63
    return np.array(values, dtype=np.int64 if fits else object)


# An exact weight vector is a (numerators, denominator) pair: an integer
# array over one positive int.


def _times(G: FiniteGroup, a, b):
    """The exact convolution a * b of two (numerators, denominator) pairs,
    reduced by the gcd of its numerators and denominator."""
    num = _convolve(G, a[0], b[0])
    den = a[1] * b[1]
    values = num.tolist()
    g = math.gcd(den, *values)
    # a zero vector takes g = den, which an int64 array may not hold
    return (num // g if any(values) else num), den // g


def _power(G: FiniteGroup, a, k: int):
    """The exact convolution power a^{*k} of a (numerators, denominator)
    pair; k = 0 gives the point mass at the identity."""
    acc = _ints([1] + [0] * (G.n - 1)), 1
    for _ in range(k):
        acc = _times(G, acc, a)
    return acc


def _class_law(classes: ConjugacyClassTable, c: int):
    """The uniform probability measure on class c as a (numerators,
    denominator) pair: the class indicator over |C|."""
    indicator = classes._class_array == classes.checked(c)
    return indicator.astype(np.int64), classes.sizes[c]


def _measure(G: FiniteGroup, a) -> ClassMeasure:
    """The ClassMeasure of a (numerators, denominator) pair, with one
    Fraction built per distinct value; it keeps the pair as its exact
    form."""
    num, den = a
    values = num.tolist()
    frac = {v: Fraction(v, den) for v in set(values)}
    mu = ClassMeasure(G, tuple(map(frac.__getitem__, values)))
    mu.__dict__["_exact"] = a
    return mu


def convolve(mu: ClassMeasure, nu: ClassMeasure) -> ClassMeasure:
    """(mu * nu)({x}) = sum_y mu({y}) nu({y^-1 x}); exact when both
    measures are."""
    _require_same_group(mu, nu)
    G = mu.group
    a, b = mu._exact, nu._exact
    if a is not None and b is not None:
        return _measure(G, _times(G, a, b))
    out = _convolve(G, np.array(mu.weights, dtype=float),
                    np.array(nu.weights, dtype=float))
    return ClassMeasure(G, tuple(out.tolist()))


def convolution_power(mu: ClassMeasure, k: int) -> ClassMeasure:
    """mu^{*k}; k = 0 gives the point mass at the identity."""
    if k < 0:
        raise ValueError("convolution power must be non-negative")
    G = mu.group
    a = mu._exact
    if a is not None:
        return _measure(G, _power(G, a, k))
    w = np.array(mu.weights, dtype=float)
    acc = np.zeros(G.n)
    acc[0] = 1.0
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


def eta_measure(G: FiniteGroup) -> ClassMeasure:
    """Law of the commutator a b a^-1 b^-1 of two uniform elements; exact,
    built once per group."""
    return G._cached("eta", lambda G: _measure(G, _letter_law(G, True)))


def kappa_measure(G: FiniteGroup) -> ClassMeasure:
    """Law of the square of a uniform element; exact, built once per
    group."""
    return G._cached("kappa", lambda G: _measure(G, _letter_law(G, False)))


def _letter_law(G: FiniteGroup, orientable: bool):
    """The law of a commutator of two uniform elements (eta) when
    orientable, of the square of one (kappa) otherwise, as a (numerators,
    denominator) pair built once per group: counts over pairs or
    elements."""
    def build(G):
        n = G.n
        mul, inv = _tables(G)
        if orientable:
            a, b = np.divmod(np.arange(n * n), n)
            # a b a^-1 b^-1 for every pair, multiplied left to right
            values = mul[mul[mul[a * n + b] * n + inv[a]] * n + inv[b]]
        else:
            values = mul[np.arange(n) * (n + 1)]
        return np.bincount(values, minlength=n), len(values)
    return G._cached("commutators" if orientable else "squares", build)


def fourier_coefficient(mu: ClassMeasure, alpha: int, ct: CharacterTable) -> complex:
    """mu^(alpha) = sum_x conj(chi_alpha(x)) mu({x})."""
    if not (0 <= alpha < ct.r):
        raise ValueError(f"irrep index {alpha} out of range")
    # conj(chi(x)) float(w_x) for every x, added left to right: the sum
    # from 0j over the non-zero weights, as a running sum from 0j is never
    # -0.0, so a zero term leaves it as it is; the + 0j turns a -0.0 that
    # accumulate keeps from its first term into that sum's 0.0
    terms = ct.table[alpha].conj()[ct.classes._class_array] * mu._floats
    return complex(np.add.accumulate(terms)[-1]) + 0j
