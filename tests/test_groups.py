import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from holofield.covering import bb_mass
import holofield.groups as groups
import holofield.holonomy as holonomy
from holofield.groups import (
    CharacterTableError,
    ClassDensity,
    ClassMeasure,
    GroupError,
    _check_orthogonality,
    _combination,
    _convolve,
    _permutations,
    build_group,
    character_table,
    conjugacy_classes,
    convolve,
    convolution_power,
    density_convolve,
    eta_measure,
    fourier_coefficient,
    kappa_measure,
)
from holofield.holonomy import measure_m, partition_formula, z_function
from holofield.levy import (
    HeatKernel,
    heat_kernel_series,
    jump_measure_from_class_rates,
)
from holofield.surface import SurfaceSpec
from oracles import builtin_names, delta_class


def test_builtin_orders():
    expected = {"Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6, "S3": 6, "S4": 24,
                "A4": 12, "D4": 8, "Q8": 8}
    for name, n in expected.items():
        assert build_group(name).n == n


# sha256 of repr((mul, inv, labels)) per builtin: element order is part of
# every output that lists elements, so any reordering must show
BUILTIN_DIGESTS = {
    "A4": "e1c8a191e4d2eaeabcb09085cdaff098ef44f3a10ac3b4069329bb680b193a99",
    "D4": "262cc9abb14103572fbbc93a14538b417b26b214643ee488b582b3904b991f65",
    "Q8": "3317e0aae76c8aa573debaf12598ef85b31f2c99740d32beae793a11f74fd998",
    "S3": "070846b2f2458aa11342b0acfb470d6ceb3d29641c4c4ef0b80d65f4cb93ba3e",
    "S4": "6f4b480e17cfdde090129ee99890d6db874f1bacb0f7d552abeb65e82505486d",
    "Z2": "cf39e3e78d6745081f6c74fa88bedb664dec13a2651255868e43b78a635e82af",
    "Z3": "66753f20564065a1887a7d0eafd4aa97c7f337d5ad08b14f257b8559ad0b13f9",
    "Z4": "6c04b1e08ebffa8c8b3a236048bc573ff8408a7a91b9f02457d72ef2e1784e95",
    "Z6": "da0df6dbc6e3eace5204b95ffd144bb4739d9c1a491e64ab496a040575b8d49c",
}


def test_builtin_tables_are_pinned():
    digests = {}
    for name in builtin_names():
        G = build_group(name)
        table = repr((G.mul, G.inv, G.labels)).encode()
        digests[name] = hashlib.sha256(table).hexdigest()
    assert digests == BUILTIN_DIGESTS


def test_identity_is_zero():
    for name in builtin_names():
        G = build_group(name)
        assert all(G.mul[0][x] == x for x in range(G.n))
        assert all(G.mul[x][0] == x for x in range(G.n))


def test_inverse_table():
    for name in builtin_names():
        G = build_group(name)
        assert all(G.mul[x][G.inv[x]] == 0 for x in range(G.n))


def test_group_from_table_roundtrip():
    G = build_group({"kind": "builtin", "name": "S3"})
    H = build_group({"kind": "table", "order": 6,
                     "table": [list(row) for row in G.mul],
                     "labels": list(G.labels)})
    assert H.mul == G.mul


def test_bad_table_rejected():
    with pytest.raises(GroupError):
        build_group([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(GroupError):
        build_group([[1, 0], [0, 1]])  # identity not at index 0


@pytest.mark.parametrize("labels", [[1, 2, 3], ["e", "x", "x"]], ids=repr)
def test_table_labels_are_distinct_strings(labels):
    """Labels name elements in reports and Levy keys, so each is a string
    of its own."""
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(GroupError, match="distinct strings"):
        build_group({"kind": "table", "table": table, "labels": labels})


def _swapped_z6():
    # an intercalate of Z6 swapped: a Latin square with identity 0 that is
    # not associative
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    table[1][2], table[1][5] = table[1][5], table[1][2]
    table[4][2], table[4][5] = table[4][5], table[4][2]
    return table


@pytest.mark.parametrize("table, message", [
    ([[0, 1, 2], [1, 2], [2, 0, 1]], "multiplication table must be n x n"),
    # the first bad entry in row order is named
    ([[0, 1, 2], [1, 7, -1], [2, 0, 5]], "table entry 7 out of range"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "element 0 is not an identity"),
    (_swapped_z6(), "multiplication table is not associative"),
    # associative with an identity, but 1 x = 1 for every x
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], "element 1 has no inverse"),
    # rows of ints only: no float, string or bool is read as an element
    ([[0, 1.9], [1, 0]], "table entry 1.9 is not an integer"),
    ([[0, 1.0], [1, 0]], "table entry 1.0 is not an integer"),
    ([[0, "1"], ["1", 0]], "table entry '1' is not an integer"),
    ([[0, True], [True, 0]], "table entry True is not an integer"),
])
def test_table_errors_are_pinned(table, message):
    with pytest.raises(GroupError) as err:
        build_group(table)
    assert str(err.value) == message


# sha256 of each character table's bytes, dims and Frobenius-Schur
# indicators: the table is floating point, and its values, row order and
# signs must not move with the code that builds it
CHARACTER_TABLE_DIGESTS = {
    "A4": "5cd5c3bd900c2f9777b0122cf3720f1091609cbd98ba8a7e4a7d9b8e31ad4b7d",
    "D4": "efe0c68b57e1128c3ced534cb5b7683186bbb66338eaf15d9967a9ee06cd7e0e",
    "Q8": "0f487e497be7bbc7ee4135340c60009e3f37c4949e044e227b7d702e1da28272",
    "S3": "9b170a61840d786c610ec3e1cfe158cefe6059a749286ba77b272b18ef0453e9",
    "S4": "6f7d253292349096c7a94c6ae266b2c7eb7db2a7ce54c55c826533d046086360",
    "Z2": "08c528bf38280fdd8b715c5f2fce3494ed1ebfefc1cade95354fe1bdda074a05",
    "Z3": "000e33dee1b1754ec5a8b445d286fe8d39abd07f33beb2e411919e37dd10cfea",
    "Z4": "a614cbe2435b5374c2b242ac9c7a206f2d6c97dfbe43358c8fa86c6b7a1362af",
    "Z6": "7dd8cc3c59a7ce2ac6f044861f7f1e31d838f63379fefda6f7ab78b0aaa86b2b",
    "A5": "274dfd279b37f238daed52e0badc728ccab09678bc8c2150456d2d207da53acd",
    "S5": "0e8943c7a3f42c12862f6ae48ffc1cdec2688eb071386b3637d5b3e3f6c9f1ea",
    "S6": "0c7049cb86dab6ab168e04337272c55bb7b4dd66331f6fc3b91ab8b1c169f108",
}


def test_character_tables_are_pinned():
    groups = {name: build_group(name) for name in builtin_names()}
    groups.update(A5=_permutations(5, "A5", even=True),
                  S5=_permutations(5, "S5"), S6=_permutations(6, "S6"))
    digests = {}
    for name, G in groups.items():
        ct = character_table(G)
        data = ct.table.tobytes() + repr((ct.dims, ct.fs_indicator)).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == CHARACTER_TABLE_DIGESTS


def test_first_draw_is_the_seeded_stream():
    """Attempt 0 reads its coefficients from a constant: they are
    default_rng(1234).standard_normal(r) bit for bit, read-only."""
    for r in range(1, 65):
        coeff = _combination(0, r)
        drawn = np.random.default_rng(1234).standard_normal(r)
        assert coeff.dtype == drawn.dtype
        assert coeff.tobytes() == drawn.tobytes()
        assert not coeff.flags.writeable


@pytest.mark.parametrize("name", [
    *(name for name in builtin_names() if name != "Z2"), "A5", "S5"])
def test_retry_draw_keeps_the_table(monkeypatch, name):
    """An all-ones attempt 0 sums every class matrix: that sum is n on the
    trivial character and 0 on every other, so with three or more classes
    the eigenvalues collide.  Attempt 1, drawn from default_rng(1235),
    gives the pinned dims and Frobenius-Schur indicators and the same
    values to 1e-12."""
    G = (_permutations(5, name, even=name == "A5") if name in ("A5", "S5")
         else build_group(name))
    pinned = character_table(G)
    attempts = []

    def combination(attempt, r):
        attempts.append(attempt)
        return np.ones(r) if attempt == 0 else _combination(attempt, r)

    monkeypatch.setattr(groups, "_combination", combination)
    retried = character_table(G)
    assert attempts == [0, 1]
    assert retried.dims == pinned.dims
    assert retried.fs_indicator == pinned.fs_indicator
    assert np.max(np.abs(retried.table - pinned.table)) < 1e-12


def test_only_a_retry_loads_numpy_random():
    """In a fresh process a character table built on attempt 0 leaves
    numpy.random unloaded (numpy 1.x loads it with numpy itself); a retry
    loads it.  A subprocess, as the test run's own imports may load it."""
    import os
    import subprocess
    import sys

    script = """
import json
import sys

import numpy as np

import holofield.groups as groups

loaded = ["numpy.random" in sys.modules]
groups.character_table(groups.build_group("S3"))
loaded.append("numpy.random" in sys.modules)
drawn = groups._combination
groups._combination = lambda attempt, r: (
    np.ones(r) if attempt == 0 else drawn(attempt, r))
groups.character_table(groups.build_group("S3"))
loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(groups.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    with_numpy, after_first, after_retry = json.loads(proc.stdout)
    assert after_first == with_numpy
    assert after_retry


@pytest.mark.parametrize("name", ["S3", "Q8", "S4"])
def test_orthogonality_check_rejects_a_moved_entry(name):
    """Moving one entry by 1e-6 n moves the off-diagonal Gram entries
    against every other row by at least that much, far past 1e-9 n. The
    entries moved lie on the identity class, where no character is 0."""
    G = build_group(name)
    ct = character_table(G)
    _check_orthogonality(ct)
    for a in range(ct.r):
        table = ct.table.copy()
        table[a, 0] += 1e-6 * G.n
        with pytest.raises(CharacterTableError, match="orthogonality"):
            _check_orthogonality(replace(ct, table=table))


def test_class_counts():
    expected = {"Z2": 2, "Z4": 4, "S3": 3, "S4": 5, "A4": 4, "D4": 5,
                "Q8": 5}
    for name, r in expected.items():
        assert conjugacy_classes(build_group(name)).r == r


def test_class_sizes_divide_order():
    for name in builtin_names():
        G = build_group(name)
        classes = conjugacy_classes(G)
        assert sum(classes.sizes) == G.n
        assert all(G.n % s == 0 for s in classes.sizes)
        assert classes.sizes[0] == 1 and classes.class_of[0] == 0


def test_s3_character_dims():
    ct = character_table(build_group("S3"))
    assert sorted(ct.dims) == [1, 1, 2]


def test_q8_character_dims_and_fs():
    ct = character_table(build_group("Q8"))
    assert sorted(ct.dims) == [1, 1, 1, 1, 2]
    # the 2-dimensional representation of Q8 is quaternionic
    two = ct.dims.index(2)
    assert ct.fs_indicator[two] == -1


def test_character_orthogonality():
    for name in builtin_names():
        G = build_group(name)
        ct = character_table(G)
        classes = ct.classes
        for a in range(ct.r):
            for b in range(ct.r):
                s = sum(classes.sizes[c] * ct.table[a, c]
                        * np.conj(ct.table[b, c]) for c in range(ct.r))
                assert abs(s / G.n - (a == b)) < 1e-9


def test_sum_of_squared_dims():
    for name in builtin_names():
        G = build_group(name)
        ct = character_table(G)
        assert sum(d * d for d in ct.dims) == G.n


def test_convolution_is_exact_and_associative():
    G = build_group("S3")
    eta = eta_measure(G)
    kappa = kappa_measure(G)
    lhs = convolve(convolve(eta, kappa), eta)
    rhs = convolve(eta, convolve(kappa, eta))
    assert lhs.weights == rhs.weights
    assert all(isinstance(w, Fraction) for w in lhs.weights)


def test_convolution_power_zero_is_point_mass():
    G = build_group("Z4")
    mu = convolution_power(eta_measure(G), 0)
    assert mu.weights[0] == 1
    assert all(w == 0 for w in mu.weights[1:])


def test_negative_convolution_power_is_rejected():
    """Both the exact and the float branch refuse k < 0."""
    G = build_group("S3")
    for mu in (eta_measure(G), ClassMeasure(G, (0.5, 0.5, 0, 0, 0, 0))):
        with pytest.raises(ValueError, match="non-negative"):
            convolution_power(mu, -1)


def test_delta_class_masses():
    G = build_group("S3")
    classes = conjugacy_classes(G)
    for c in range(classes.r):
        mu = delta_class(G, c)
        assert mu.mass == 1
        assert sum(1 for w in mu.weights if w != 0) == classes.sizes[c]


def test_eta_kappa_probability():
    for name in builtin_names():
        G = build_group(name)
        assert eta_measure(G).mass == 1
        assert kappa_measure(G).mass == 1


def test_kappa_eta_convolution_identity():
    for name in builtin_names():
        G = build_group(name)
        lhs = convolve(kappa_measure(G), eta_measure(G))
        rhs = convolution_power(kappa_measure(G), 3)
        assert lhs.weights == rhs.weights


def test_eta_hat_is_inverse_dimension():
    for name in builtin_names():
        G = build_group(name)
        ct = character_table(G)
        eta = eta_measure(G)
        for a in range(ct.r):
            val = fourier_coefficient(eta, a, ct)
            assert abs(val - 1.0 / ct.dims[a]) < 1e-9


def _fourier_loop(mu, alpha, ct):
    """fourier_coefficient as a loop over the elements."""
    classes = ct.classes
    total = 0j
    for x in range(mu.group.n):
        w = mu.weights[x]
        if w == 0:
            continue
        total += complex(ct.table[alpha, classes.class_of[x]]).conjugate() \
            * float(w)
    return total


def test_fourier_coefficient_is_the_loop():
    """One array expression over the weights gives the loop's value, to the
    bit, for eta, kappa and jump measures with Fraction and float rates,
    on every builtin and every irrep; so the heat-kernel exponents are the
    loop's too."""
    for name in builtin_names():
        G = build_group(name)
        classes = conjugacy_classes(G)
        ct = character_table(G)
        for rates in ({c: Fraction(c, 3) for c in range(1, classes.r)},
                      {c: 0.25 + c / 7 for c in range(1, classes.r)}):
            pi = jump_measure_from_class_rates(G, rates, classes)
            for mu in (eta_measure(G), kappa_measure(G), pi.measure):
                for a in range(ct.r):
                    got, want = fourier_coefficient(mu, a, ct), \
                        _fourier_loop(mu, a, ct)
                    assert got == want and repr(got) == repr(want)
            rate = complex(float(pi.total_rate))
            assert HeatKernel(pi, ct).exponents == tuple(
                rate - _fourier_loop(pi.measure, a, ct) / ct.dims[a]
                for a in range(ct.r))


def test_kappa_hat_is_fs_indicator():
    for name in builtin_names():
        G = build_group(name)
        ct = character_table(G)
        kappa = kappa_measure(G)
        for a in range(ct.r):
            val = fourier_coefficient(kappa, a, ct)
            assert abs(val - ct.fs_indicator[a]) < 1e-9


def test_density_convolve_uniform_fixed_point():
    G = build_group("S4")
    unif = ClassDensity(G, tuple(1.0 for _ in range(G.n)))
    out = density_convolve(unif, unif)
    assert max(abs(v - 1.0) for v in out.values) < 1e-12


def test_derived_data_is_built_once():
    G = build_group("S4")
    assert conjugacy_classes(G) is conjugacy_classes(G)
    assert eta_measure(G) is eta_measure(G)
    assert kappa_measure(G) is kappa_measure(G)
    # the cache takes no part in equality or hashing
    H = build_group("S4")
    assert G == H and hash(G) == hash(H)


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_large_tables_are_checked_exactly():
    assert build_group(_cyclic_table(70)).n == 70
    # swap an intercalate of Z66: still a Latin square with identity 0,
    # but no longer associative
    table = _cyclic_table(66)
    a, b, c, d = 1, 34, 2, 35
    table[a][c], table[a][d] = table[a][d], table[a][c]
    table[b][c], table[b][d] = table[b][d], table[b][c]
    assert sorted(table[a]) == list(range(66))
    with pytest.raises(GroupError, match="associative"):
        build_group(table)


def _reference_convolution(G, a, b):
    return [sum(a[y] * b[G.mul[G.inv[y]][x]] for y in range(G.n))
            for x in range(G.n)]


def test_convolution_matches_the_definition():
    """Against the defining loop: equal in exact arithmetic, and within
    rounding in floats (numpy sums in another order)."""
    G = build_group("A4")
    rng = random.Random(5)
    a = [Fraction(rng.randrange(4), 7) for _ in range(G.n)]
    b = [Fraction(rng.randrange(9), 11) for _ in range(G.n)]
    out = convolve(ClassMeasure(G, tuple(a)), ClassMeasure(G, tuple(b)))
    assert list(out.weights) == _reference_convolution(G, a, b)
    assert all(isinstance(w, Fraction) for w in out.weights)
    f = [rng.random() for _ in range(G.n)]
    g = [rng.random() for _ in range(G.n)]
    dens = density_convolve(ClassDensity(G, tuple(f)), ClassDensity(G, tuple(g)))
    ref = _reference_convolution(G, f, g)
    assert max(abs(x - y / G.n) for x, y in zip(dens.values, ref)) <= 1e-15


# Exact convolution runs on integer numerators over one denominator; these
# check it against the defining loop in plain Fractions.


def _fraction_chain(G, first, *rest):
    """first * rest[0] * rest[1] * ... by the defining loop, in Fractions."""
    out = [Fraction(w) for w in first]
    for b in rest:
        out = _reference_convolution(G, out, [Fraction(w) for w in b])
    return out


def _reference_m(G, spec):
    """measure_m by the definition: the law of the commutator (or square)
    counted from G.mul, genus/2 (or genus) times, then the uniform law on
    each boundary class."""
    classes = conjugacy_classes(G)
    n = G.n
    if spec.orientable:
        values = [G.mul[G.mul[a][b]][G.mul[G.inv[a]][G.inv[b]]]
                  for a in range(n) for b in range(n)]
        k = spec.genus // 2
    else:
        values = [G.mul[a][a] for a in range(n)]
        k = spec.genus
    letter = [Fraction(values.count(x), len(values)) for x in range(n)]
    laws = [letter] * k + [
        [Fraction(classes.class_of[x] == c, classes.sizes[c])
         for x in range(n)] for c in spec.constraints]
    return _fraction_chain(G, [1] + [0] * (n - 1), *laws)


def _reference_pair(weights, q):
    """sum_x q[x] float(w_x), added in element order."""
    return float(sum(float(w) * q[x] for x, w in enumerate(weights)))


def test_batched_convolve_equals_rows():
    """A batch on either side, or on both, gives the row-by-row products:
    int64 numerators, Python ints past 2^63, and floats that are multiples
    of 1/8, whose sums are exact in any order."""
    G = build_group("A4")
    classes = conjugacy_classes(G)
    indicators = (np.arange(classes.r)[:, None]
                  == np.array(classes.class_of)).astype(np.int64)
    rng = random.Random(7)
    small = np.array([[rng.randrange(50) for _ in range(G.n)]
                      for _ in range(3)])
    big = np.array([[rng.randrange(2 ** 62, 2 ** 64) for _ in range(G.n)]
                    for _ in range(3)], dtype=object)
    for a, b, dtype in ((indicators, small, np.int64),
                        (indicators, big, object),
                        (indicators * 2 ** 40, small * 2 ** 22, object),
                        (indicators / 8, small / 8, float)):
        out = _convolve(G, a, b)
        assert out.shape == (len(b), len(a), G.n) and out.dtype == dtype
        for j, c in itertools.product(range(len(b)), range(len(a))):
            assert out[j, c].tolist() == _convolve(G, a[c], b[j]).tolist()
            assert _convolve(G, a[c], b)[j].tolist() == out[j, c].tolist()
            assert _convolve(G, a, b[j])[c].tolist() == out[j, c].tolist()


def test_exact_convolution_of_signed_and_zero_vectors():
    """Signed Fraction and int vectors that are not class functions, and
    the zero vector, also beside a denominator past 2^63."""
    G = build_group("S4")
    rng = random.Random(11)
    frac = [Fraction(rng.randrange(-40, 40), rng.randrange(1, 90))
            for _ in range(G.n)]
    ints = [rng.randrange(-7, 8) for _ in range(G.n)]
    huge = [Fraction(rng.randrange(-9, 10), 3 ** 41 + x) for x in range(G.n)]
    # small numerators over a denominator past 2^63
    tiny = [Fraction(1, 2 ** 70)] + [0] * (G.n - 1)
    zero = [0] * G.n
    assert not ClassMeasure(G, tuple(frac)).is_class_constant()
    for a, b in [(frac, ints), (ints, frac), (ints, ints), (frac, frac),
                 (zero, frac), (frac, zero), (zero, huge), (huge, zero),
                 (huge, frac), (zero, tiny), (tiny, zero), (zero, zero)]:
        out = convolve(ClassMeasure(G, tuple(a)), ClassMeasure(G, tuple(b)))
        assert list(out.weights) == _fraction_chain(G, a, b)
        assert all(isinstance(w, Fraction) for w in out.weights)
    for a in (frac, ints, huge, zero):
        for k in (0, 1, 4):
            out = convolution_power(ClassMeasure(G, tuple(a)), k)
            assert list(out.weights) == _fraction_chain(
                G, [1] + [0] * (G.n - 1), *[a] * k)


def test_exact_convolution_across_the_int64_bound():
    """Numerators whose bound max|a| max|b| nnz sits just below 2^63 stay
    in int64; just above it they move to Python ints, where the sums
    exceed what int64 holds."""
    G = build_group("S3")
    cut = (2 ** 63 - 1) // G.n
    for m, dtype in ((math.isqrt(cut), np.int64),
                     (math.isqrt(cut) + 1, object)):
        assert (m * m * G.n < 2 ** 63) == (dtype is np.int64)
        a = [m, -m, m, m - 1, -m, m]
        b = [-m, m, m, -m, m - 2, m]
        assert _convolve(G, np.array(a), np.array(b)).dtype == dtype
        out = convolve(ClassMeasure(G, tuple(a)), ClassMeasure(G, tuple(b)))
        assert list(out.weights) == _reference_convolution(G, a, b)
        same = [m] * G.n
        out = convolve(ClassMeasure(G, tuple(same)),
                       ClassMeasure(G, tuple(same)))
        assert out.weights == (G.n * m * m,) * G.n
    assert G.n * m * m >= 2 ** 63


@pytest.mark.parametrize("spec", [SurfaceSpec(True, 32, 0, 1.0),
                                  SurfaceSpec(True, 34, 2, 1.0, (3, 4)),
                                  SurfaceSpec(False, 40, 0, 1.0),
                                  SurfaceSpec(False, 41, 1, 1.0, (2,))])
def test_measure_m_at_large_genus(spec):
    """S4 at genus 32 and above: denominators past 2^63, so the chain runs
    on Python ints, and the result is the definition's, Fraction for
    Fraction."""
    G = build_group("S4")
    mu = measure_m(G, spec)
    assert list(mu.weights) == _reference_m(G, spec)
    assert all(isinstance(w, Fraction) for w in mu.weights)
    assert mu.mass == 1
    word = measure_m(G, SurfaceSpec(spec.orientable, spec.genus, 0, 1.0))
    assert max(w.denominator for w in word.weights) >= 2 ** 63


@pytest.mark.parametrize("gname,specs", [
    ("A4", [SurfaceSpec(True, 0, 1, 0.8, (1,)),
            SurfaceSpec(True, 2, 2, 0.8, (2, 3)),
            SurfaceSpec(False, 3, 1, 1.3, (3,)),
            SurfaceSpec(True, 10, 0, 0.4)]),
    # numerators and denominators past 2^53, where float(v) / float(den)
    # would round twice and miss float(Fraction) on some weights
    ("S4", [SurfaceSpec(True, 32, 0, 0.4), SurfaceSpec(False, 41, 0, 0.4)]),
])
def test_pairings_equal_the_fraction_pairing(gname, specs):
    """partition_formula, bb_mass and z_function read each v / den, which
    rounds as float(Fraction) does: every value is == to the pairing of the
    reference measure, not merely close."""
    G = build_group(gname)
    classes = conjugacy_classes(G)
    rates = [Fraction(3, 7), Fraction(3, 7), Fraction(5, 3), Fraction(2, 9)]
    pi = jump_measure_from_class_rates(
        G, dict(zip(range(1, classes.r), rates)), classes)
    hk = HeatKernel(pi, character_table(G))
    for spec in specs:
        ref = _reference_m(G, spec)
        assert partition_formula(G, spec, hk, classes) == _reference_pair(
            ref, hk.density(spec.area).values)
        assert bb_mass(G, spec, pi, classes=classes) == _reference_pair(
            ref, heat_kernel_series(pi, spec.area).values)
    for orientable, g in ((True, 2), (False, 1)):
        z = z_function(G, orientable, 2, g, 0.6, hk, classes)
        q = hk.density(0.6).values
        for tup, value in z.values.items():
            spec = SurfaceSpec(orientable, g, 2, 0.6, tup)
            assert value == _reference_pair(_reference_m(G, spec), q)


def _inversion_invariant_pi(G, classes):
    """Fraction rates equal on each class and its inverse class."""
    rates = {c: Fraction(3 * min(c, classes.inverse_class[c]) + 1, 7)
             for c in range(1, classes.r)}
    return jump_measure_from_class_rates(G, rates, classes)


@pytest.mark.parametrize("gname", ["S3", "A4", "Q8", "S4"])
def test_z_function_levels_equal_the_fraction_pairing(gname):
    """z_function builds each arity level from the one before in one
    batched convolution and pairs it in floats: every value, arity 0 to 3,
    orientable and not, is == to the pairing of the reference measure.
    A4's classes are not all self-inverse."""
    G = build_group(gname)
    classes = conjugacy_classes(G)
    hk = HeatKernel(_inversion_invariant_pi(G, classes), character_table(G))
    q = hk.density(0.6).values
    for orientable, g in ((True, 2), (False, 1), (False, 3)):
        for p in range(4):
            z = z_function(G, orientable, p, g, 0.6, hk, classes)
            assert list(z.values) == list(
                itertools.combinations_with_replacement(range(classes.r), p))
            for tup, value in z.values.items():
                spec = SurfaceSpec(orientable, g, p, 0.6, tup)
                assert value == _reference_pair(_reference_m(G, spec), q)


def test_z_function_past_the_float_bound(monkeypatch):
    """Numerators past 2^53 are paired in Python ints, and so are all of
    them when the bound is lowered: the same table either way, == to the
    reference. The kernel's values are Python floats, so the builtin sum
    adds a batched row as it adds a single pairing (from Python 3.12 it
    compensates floats, not numpy scalars)."""
    G = build_group("S3")
    classes = conjugacy_classes(G)
    hk = HeatKernel(_inversion_invariant_pi(G, classes), character_table(G))
    q = hk.density(0.4).values
    assert all(type(v) is float for v in q)
    assert holonomy._word_law(G, False, 53)[1] >= 2 ** 53
    tables = [z_function(G, False, p, 53, 0.4, hk, classes).values
              for p in range(3)]
    for p, values in enumerate(tables):
        for tup, value in values.items():
            spec = SurfaceSpec(False, 53, p, 0.4, tup)
            assert value == _reference_pair(_reference_m(G, spec), q)
    A4 = build_group("A4")
    hk4 = HeatKernel(_inversion_invariant_pi(A4, conjugacy_classes(A4)),
                     character_table(A4))
    small = [z_function(A4, o, 3, g, 0.7, hk4).values
             for o, g in ((True, 2), (False, 3))]
    monkeypatch.setattr(holonomy, "_FLOAT_EXACT", 1)
    assert [z_function(G, False, p, 53, 0.4, hk, classes).values
            for p in range(3)] == tables
    assert [z_function(A4, o, 3, g, 0.7, hk4).values
            for o, g in ((True, 2), (False, 3))] == small
