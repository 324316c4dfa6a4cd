import math

import pytest

from holofield.groups import (
    build_group,
    builtin_names,
    character_table,
    conjugacy_classes,
    density_convolve,
)
from holofield.levy import (
    HeatKernel,
    check_admissible,
    heat_kernel_characters,
    heat_kernel_series,
    jump_measure_from_class_rates,
    poisson_truncation_index,
    poisson_weights,
    positivity_support_check,
    uniform_jump_measure,
)


def test_jump_measure_rejects_identity_mass():
    G = build_group("Z2")
    with pytest.raises(ValueError):
        jump_measure_from_class_rates(G, {0: 1.0})


def test_class_rate_expansion():
    G = build_group("S3")
    classes = conjugacy_classes(G)
    pi = jump_measure_from_class_rates(G, {1: 1})
    per_element = pi.measure.weights
    for x in range(G.n):
        if classes.class_of[x] == 1:
            assert per_element[x] == pi.total_rate / classes.sizes[1]
        else:
            assert per_element[x] == 0


def test_rates_by_label():
    G = build_group("Z2")
    a = jump_measure_from_class_rates(G, {"1": 2})
    b = jump_measure_from_class_rates(G, {1: 2})
    assert a.measure.weights == b.measure.weights
    with pytest.raises(ValueError):
        jump_measure_from_class_rates(G, {"no-such-label": 1})


def test_uniform_jump_measure_total_rate():
    for name in builtin_names():
        pi = uniform_jump_measure(build_group(name))
        assert float(pi.total_rate) == pytest.approx(1.0)


def test_admissibility():
    G = build_group("S3")
    classes = conjugacy_classes(G)
    three_cycles = next(c for c in range(classes.r) if classes.sizes[c] == 2)
    assert check_admissible(uniform_jump_measure(G)).admissible
    assert not check_admissible(
        jump_measure_from_class_rates(G, {three_cycles: 1})).admissible


def test_poisson_truncation_bounds_tail():
    for lam in (0.1, 1.0, 7.5):
        K = poisson_truncation_index(lam, 1e-12)
        cum = sum(math.exp(-lam) * lam ** k / math.factorial(k)
                  for k in range(K + 1))
        assert 1.0 - cum <= 1e-12


def _poisson_tail(m, K):
    """P(Poisson(m) > K), summed in log space from the far end."""
    top = int(m + 40 * math.sqrt(m) + 50)
    return sum(math.exp(k * math.log(m) - m - math.lgamma(k + 1))
               for k in range(top, K, -1))


def test_poisson_truncation_at_large_mean():
    K = poisson_truncation_index(1000, 1e-12)
    assert _poisson_tail(1000, K) <= 1e-12 < _poisson_tail(1000, K - 1)


def test_poisson_weights_are_the_normalized_law():
    for m in (1e-3, 0.5, 3.7, 60.0, 1500.0):
        w = poisson_weights(m, 1e-12)
        assert len(w) == poisson_truncation_index(m, 1e-12) + 1
        assert sum(w) == pytest.approx(1.0, abs=1e-14)
        for k in range(0, len(w), max(1, len(w) // 7)):
            pmf = math.exp(k * math.log(m) - m - math.lgamma(k + 1))
            assert w[k] == pytest.approx(pmf, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("rate,t", [(1.0, 800.0), (16.0, 25.0)])
def test_series_at_large_rate_times_t(rate, t):
    """Past Pi(G) t of about 745 exp(-Pi(G) t) underflows, and at
    Pi(G) = 16 the powers of Pi overflow well before that."""
    G = build_group("S3")
    pi = uniform_jump_measure(G, rate)
    ser = heat_kernel_series(pi, t)
    cha = heat_kernel_characters(pi, t, character_table(G))
    assert all(math.isfinite(v) for v in ser.values)
    assert max(abs(a - b) for a, b in zip(ser.values, cha.values)) <= 1e-9


def test_series_matches_characters():
    for name in ("Z2", "Z4", "S3", "Q8"):
        G = build_group(name)
        pi = uniform_jump_measure(G)
        ct = character_table(G)
        for t in (0.1, 1.0, 5.0):
            ser = heat_kernel_series(pi, t)
            cha = heat_kernel_characters(pi, t, ct)
            diff = max(abs(a - b) for a, b in zip(ser.values, cha.values))
            assert diff <= 1e-9


def test_z2_closed_form():
    G = build_group("Z2")
    pi = jump_measure_from_class_rates(G, {1: 1})
    for t in (0.2, 1.0, 3.0):
        q = heat_kernel_series(pi, t)
        assert q.values[0] == pytest.approx(1 + math.exp(-2 * t), abs=1e-11)
        assert q.values[1] == pytest.approx(1 - math.exp(-2 * t), abs=1e-11)


def test_density_normalization():
    G = build_group("S4")
    pi = uniform_jump_measure(G)
    q = heat_kernel_series(pi, 0.7)
    assert sum(q.values) / G.n == pytest.approx(1.0, abs=1e-12)


def test_semigroup_property():
    G = build_group("S3")
    hk = HeatKernel(uniform_jump_measure(G), character_table(G))
    for s, t in ((0.3, 0.7), (1.0, 2.0)):
        conv = density_convolve(hk.density(s), hk.density(t))
        direct = hk.density(s + t)
        diff = max(abs(a - b) for a, b in zip(conv.values, direct.values))
        assert diff <= 1e-10


def test_inversion_symmetry_when_invariant():
    G = build_group("S3")
    pi = uniform_jump_measure(G)
    assert pi.inversion_invariant
    q = heat_kernel_series(pi, 0.9)
    for x in range(G.n):
        assert q.values[x] == pytest.approx(q.values[G.inv[x]], abs=1e-10)


def test_q8_non_uniform_rates():
    # distinct rates per class still give a valid semigroup
    G = build_group("Q8")
    classes = conjugacy_classes(G)
    rates = {c: 0.1 * (c + 1) for c in range(1, classes.r)}
    pi = jump_measure_from_class_rates(G, rates)
    ct = character_table(G)
    hk = HeatKernel(pi, ct)
    conv = density_convolve(hk.density(0.4), hk.density(0.6))
    direct = hk.density(1.0)
    assert max(abs(a - b)
               for a, b in zip(conv.values, direct.values)) <= 1e-10
    ser = heat_kernel_series(pi, 1.0)
    assert max(abs(a - b)
               for a, b in zip(ser.values, direct.values)) <= 1e-9


def test_support_is_generated_subgroup():
    G = build_group("S3")
    classes = conjugacy_classes(G)
    three_cycles = next(c for c in range(classes.r) if classes.sizes[c] == 2)
    pi = jump_measure_from_class_rates(G, {three_cycles: 1})
    report = positivity_support_check(pi, 1.0)
    assert report.ok
    assert len(report.subgroup) == 3


def test_positive_everywhere_when_admissible():
    for name in ("Z4", "S3", "Q8"):
        G = build_group(name)
        report = positivity_support_check(uniform_jump_measure(G), 0.5)
        assert report.ok
        assert len(report.subgroup) == G.n


def test_small_time_concentration():
    for name in ("Z2", "S3", "Q8"):
        G = build_group(name)
        pi = uniform_jump_measure(G)
        t = 1e-3
        q = heat_kernel_series(pi, t)
        off_identity = sum(q.values[x] for x in range(1, G.n)) / G.n
        assert off_identity <= t * float(pi.total_rate)
