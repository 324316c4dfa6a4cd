import random
from fractions import Fraction

import numpy as np
import pytest

from holofield.groups import (
    ClassDensity,
    ClassMeasure,
    GroupError,
    build_group,
    builtin_names,
    character_table,
    conjugacy_classes,
    convolve,
    convolution_power,
    delta_class,
    density_convolve,
    eta_measure,
    fourier_coefficient,
    kappa_measure,
)


def test_builtin_orders():
    expected = {"Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6, "S3": 6, "S4": 24,
                "A4": 12, "D4": 8, "Q8": 8}
    for name, n in expected.items():
        assert build_group(name).n == n


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


def test_delta_class_masses():
    G = build_group("S3")
    classes = conjugacy_classes(G)
    for c in range(classes.r):
        mu = delta_class(G, c, classes)
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
