"""The field, bundle and kernel workloads: job lists drawn from a seed, and
the jobs themselves.  Every job is an identity the package promises, so
every job is also a correctness check.

Job lists are pure functions of the workload seed.  A run executes a
fixed-length list, and the seed must not move what it costs or which of
its jobs hit a known defect, or two sets of runs on different seeds would
not do the same work:

* the discrete shape of a job (group, surface, refinement chain, twist
  count) comes from a fixed rotation whose entries all lie in the
  workload's size band;
* the draws that change cost or failure (Pi(G)*t, Pi(G), the second
  kernel time, refinement positions and split fractions) follow
  additive-recurrence sequences from fixed offsets, which cover their
  range evenly;
* the seed draws everything else: class rates (their direction; the
  total is drawn only where cost does not follow it), which class of the
  given size constrains each boundary, areas, sampler seeds.
"""

from __future__ import annotations

import math
import random

from holofield.covering import (
    bb_mass,
    counting_check,
    monodromy_marginal,
    sample_covering,
)
from holofield.groups import (
    build_group,
    character_table,
    conjugacy_classes,
    convolution_power,
    convolve,
    density_convolve,
    eta_measure,
    fourier_coefficient,
    kappa_measure,
)
from holofield.holonomy import (
    GConstraints,
    beta1,
    beta2,
    df_weight,
    marginal_generators,
    partition_formula,
    partition_graph,
    sample_df,
    upsilon,
    z_function,
)
from holofield.levy import (
    DEFAULT_TAIL_TOL,
    HeatKernel,
    heat_kernel_series,
    jump_measure_from_class_rates,
    poisson_truncation_index,
)
from holofield.loops import tame_generators
from holofield.surface import (
    SurfaceSpec,
    faces,
    split_face,
    standard_map,
    subdivide_edge,
)

GROUPS = ("S3", "D4", "Q8", "A4", "S4")

# Additive-recurrence steps for one and two dimensions (golden ratio and
# plastic number): every prefix of the sequence is spread evenly.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PLASTIC = 1.324717957244746
_R2 = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)
# Weyl steps sqrt(p) mod 1 for the refinement chain, one per coordinate.
_WEYL = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19))


def job_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class GroupData:
    """Class structure of the builtin groups, for drawing inputs only."""

    def __init__(self):
        self.groups = {name: build_group(name) for name in GROUPS}
        self.classes = {name: conjugacy_classes(G)
                        for name, G in self.groups.items()}

    def order(self, name: str) -> int:
        return self.groups[name].n

    def sizes(self, name: str) -> tuple[int, ...]:
        return self.classes[name].sizes

    def class_of_size(self, rng, name: str, size: int) -> int:
        return rng.choice([c for c, s in enumerate(self.sizes(name))
                           if s == size])

    def rates(self, rng, name: str, total: float,
              inversion_invariant: bool) -> list[float]:
        """Admissible class rates (their support generates G) summing to
        total; equal on mutually inverse classes when asked."""
        G, cl = self.groups[name], self.classes[name]
        while True:
            w = [0.0] + [rng.uniform(0.2, 1.0) if rng.random() < 0.75
                         else 0.0 for _ in range(1, cl.r)]
            if inversion_invariant:
                for c in range(1, cl.r):
                    w[cl.inverse_class[c]] = w[c] = max(
                        w[c], w[cl.inverse_class[c]])
            support = [x for x in range(G.n) if w[cl.class_of[x]] > 0]
            if support and len(G.subgroup_generated(support)) == G.n:
                s = sum(w)
                return [x * total / s for x in w]


def _rates_dict(rates: list[float]) -> dict[int, float]:
    return {c: r for c, r in enumerate(rates) if r > 0}


def _kernel_objects(rec, job):
    """Group, classes, jump measure and heat kernel, built fresh."""
    G = rec.call(build_group, job["group"])
    classes = rec.call(conjugacy_classes, G)
    ct = rec.call(character_table, G, classes)
    pi = rec.call(jump_measure_from_class_rates, G,
                  _rates_dict(job["rates"]), classes)
    hk = rec.call(HeatKernel, pi, ct)
    return G, classes, ct, pi, hk


# ---------------------------------------------------------------------------
# field: the holonomy configuration sum on refined maps

# (group, orientable, reduced genus, boundary class sizes, refinement chain)
# with s = split_face, d = subdivide_edge.  All configuration counts
# n^(free edges) * prod |C_i| lie in [1e3, 2e4]; unconstrained shapes are
# kept near the low end because they enumerate three times (graph sum,
# generator law, sampler).  One-vertex and multi-vertex maps alternate.
# The three non-orientable shapes with a face split hit known defects,
# depending on the split's corners: tame_generators raises KeyError or
# MapError or returns generators whose holonomy law differs from the
# monodromy law; subdivide_edge after the split raises MapError; and the
# split may give both halves one area, so that the graph sum silently
# differs from the formula.
FIELD_SHAPES = (
    ("S3", True, 4, (), ""),           # one vertex, double torus
    ("S4", True, 0, (6,), "d"),        # disk
    ("S3", False, 3, (), "s"),         # defect: KeyError, maybe areas
    ("D4", True, 0, (2, 2), "d"),      # annulus
    ("S3", True, 2, (), "sd"),         # torus, two faces, two vertices
    ("A4", True, 0, (4,), "dd"),       # disk
    ("S3", False, 2, (), "sd"),        # defect: MapError
    ("A4", False, 3, (), ""),          # one vertex, three cross-caps
    ("S3", True, 0, (3, 3, 2), ""),    # pair of pants
    ("Q8", True, 2, (2,), "d"),        # one-holed torus
    ("S3", False, 2, (), "dd"),        # Klein bottle, three vertices
    ("S4", True, 0, (3, 6), ""),       # annulus
    ("D4", False, 3, (), "s"),         # defect: KeyError, maybe areas
    ("S3", False, 1, (3,), "dd"),      # Moebius band
)
FIELD_BAND = (1_000, 20_000)
SAMPLE_DRAWS = 3


def field_configs(n: int, genus: int, sizes, steps: str) -> int:
    p = len(sizes)
    edges = (1 if genus == 0 and p == 0 else genus + 2 * p) + len(steps)
    return n ** (edges - p) * math.prod(sizes)


def make_field(seed: int, count: int, data: GroupData) -> list[dict]:
    jobs = []
    offsets = [[random.Random(f"field-positions:{k}").random()
                for _ in _WEYL] for k in range(len(FIELD_SHAPES))]
    for i in range(count):
        k, q = i % len(FIELD_SHAPES), i // len(FIELD_SHAPES)
        name, ori, genus, sizes, steps = FIELD_SHAPES[k]
        configs = field_configs(data.order(name), genus, sizes, steps)
        if not FIELD_BAND[0] <= configs <= FIELD_BAND[1]:
            raise ValueError(f"field shape {name} {genus} {steps} has "
                             f"{configs} configurations, outside the band")
        # the q-th job of shape k takes the q-th point of its sequence
        u = [(o + q * a) % 1.0 for o, a in zip(offsets[k], _WEYL)]
        chain = []
        for s in steps:
            if s == "s":
                chain.append(["split", u.pop(), u.pop(), u.pop(),
                              0.2 + 0.6 * u.pop()])
            else:
                chain.append(["subdivide", u.pop()])
        rng = job_rng("field", seed, i)
        jobs.append({
            "group": name, "orientable": ori, "genus": genus,
            "constraints": [data.class_of_size(rng, name, z) for z in sizes],
            "area": rng.uniform(0.5, 1.5),
            "rates": data.rates(rng, name, rng.uniform(0.5, 3.0), not ori),
            "chain": chain, "configs": configs,
            "sample_seed": rng.randrange(2 ** 32),
        })
    return jobs


def _refine(rec, m, step):
    if step[0] == "split":
        fs = rec.call(faces, m)
        face = int(step[1] * len(fs.cycles))
        r = len(fs.cycles[face])
        ci = int(step[2] * r)
        cj = (ci + 1 + int(step[3] * (r - 1))) % r
        a = m.areas[face]
        return rec.call(split_face, m, face, ci, cj,
                        (step[4] * a, (1.0 - step[4]) * a))[0]
    return rec.call(subdivide_edge, m, int(step[1] * m.n_darts))[0]


def run_field(job: dict, rec) -> None:
    with rec.step():
        G, classes, ct, pi, hk = _kernel_objects(rec, job)
        cons = tuple(job["constraints"])
        spec = rec.call(SurfaceSpec, job["orientable"], job["genus"],
                        len(cons), job["area"], cons)
        m = rec.call(standard_map, spec)
        for step in job["chain"]:
            m = _refine(rec, m, step)
        C = rec.call(GConstraints, cons)
    if rec.failures:
        return
    with rec.step():
        zg = rec.call(partition_graph, G, m, C, hk, classes)
        zf = rec.call(partition_formula, G, spec, hk, classes)
        rec.check_close("holonomy", "partition_graph=partition_formula",
                        zg, zf)
    tame = None
    with rec.step():
        tame = rec.call(tame_generators, m)
    if cons:
        return
    if tame is not None:
        with rec.step():
            gens = list(tame.a) + list(tame.c) + list(tame.l)
            hf, _ = rec.call(marginal_generators, G, m, C, gens, hk, classes)
            mf, _ = rec.call(monodromy_marginal, G, m, tame, pi, C, classes)
            keys = sorted(set(hf) | set(mf))
            rec.check_close("covering", "holonomy_law=monodromy_law",
                            [hf.get(k, 0.0) for k in keys],
                            [mf.get(k, 0.0) for k in keys])
    with rec.step():
        draws = rec.call(sample_df, G, m, C, hk, job["sample_seed"],
                         SAMPLE_DRAWS, classes)
        edges = sorted(m.edges())
        for config in draws:
            rec.check("holonomy", "sample_df_support",
                      sorted(config) == edges
                      and all(0 <= x < G.n for x in config.values()))
            w = rec.call(df_weight, G, m, hk, config)
            rec.check("holonomy", "sample_df_weight",
                      math.isfinite(w) and w > 0)


def field_known_defect(job: dict, failure) -> bool:
    layer, what, kind = failure
    split_nonorientable = not job["orientable"] and any(
        s[0] == "split" for s in job["chain"])
    return split_nonorientable and (
        (layer, what, kind) in {
            ("surface", "subdivide_edge", "MapError"),
            ("loops", "tame_generators", "KeyError"),
            ("loops", "tame_generators", "MapError"),
            ("holonomy", "partition_graph=partition_formula", "mismatch"),
            ("covering", "holonomy_law=monodromy_law", "mismatch"),
        })


# ---------------------------------------------------------------------------
# bundle: covering enumeration, exact counting and rejection sampling

# (group, orientable, reduced genus, boundary class sizes, twists k) with
# n^(g+k-1) * prod |C_i| tuples in [1e3, 1e4]; larger groups sit at the
# low end of the band because each tuple costs O(n^2) to validate.
BUNDLE_SHAPES = (
    ("S3", True, 0, (), 5),            # sphere
    ("S4", True, 0, (6, 8), 2),        # annulus
    ("D4", True, 2, (2,), 2),          # one-holed torus
    ("S3", False, 2, (3,), 3),         # one-holed Klein bottle
    ("A4", True, 0, (), 4),            # sphere
    ("Q8", False, 1, (2,), 3),         # Moebius band
    ("S3", False, 1, (2,), 4),         # Moebius band
    ("S4", False, 1, (3,), 2),         # Moebius band
    ("D4", True, 0, (2,), 4),          # disk
    ("S3", True, 2, (), 3),            # torus
    ("A4", False, 2, (), 2),           # Klein bottle
    ("Q8", True, 2, (2,), 2),          # one-holed torus
)
BUNDLE_BAND = (1_000, 10_000)
COVER_DRAWS = 8


def bundle_tuples(n: int, genus: int, sizes, k: int) -> int:
    return n ** (genus + max(k - 1, 0)) * math.prod(sizes)


def make_bundle(seed: int, count: int, data: GroupData) -> list[dict]:
    jobs = []
    for i in range(count):
        name, ori, genus, sizes, k = BUNDLE_SHAPES[i % len(BUNDLE_SHAPES)]
        size = bundle_tuples(data.order(name), genus, sizes, k)
        if not BUNDLE_BAND[0] <= size <= BUNDLE_BAND[1]:
            raise ValueError(f"bundle shape {name} {genus} k={k} has "
                             f"{size} tuples, outside the band")
        rng = job_rng("bundle", seed, i)
        total = rng.uniform(0.5, 3.0)
        pit = log_uniform((0.5 + i * _PHI) % 1.0, 0.1, 10.0)
        jobs.append({
            "group": name, "orientable": ori, "genus": genus, "k": k,
            "constraints": [data.class_of_size(rng, name, z) for z in sizes],
            "rates": data.rates(rng, name, total, not ori),
            "t": pit / total, "sample_seed": rng.randrange(2 ** 32),
        })
    return jobs


def run_bundle(job: dict, rec) -> None:
    with rec.step():
        G, classes, ct, pi, hk = _kernel_objects(rec, job)
        cons = tuple(job["constraints"])
        spec = rec.call(SurfaceSpec, job["orientable"], job["genus"],
                        len(cons), job["t"], cons)
    if rec.failures:
        return
    with rec.step():
        lhs, rhs = rec.call(counting_check, G, spec, job["k"],
                            lambda _: 1, classes)
        rec.check("covering", "counting_orbits=raw_sum", lhs == rhs)
        rec.counts["tuples"] = int(rhs * G.n)
    with rec.step():
        mass = rec.call(bb_mass, G, spec, pi, job["t"], classes)
        z = rec.call(partition_formula, G, spec, hk, classes)
        rec.check_close("covering", "bb_mass=partition_formula", mass, z)
    with rec.step():
        for j in range(COVER_DRAWS):
            counts, tup = rec.call(sample_covering, G, spec, pi,
                                   job["sample_seed"] + j, classes)
            rec.check("covering", "sample_covering_twists",
                      counts.total == len(tup.d))


def bundle_known_defect(job: dict, failure) -> bool:
    return False


# ---------------------------------------------------------------------------
# kernel: the levy and groups algebra, one fresh kernel per job

KERNEL_PIT = (0.1, 1e3)     # Pi(G)*t, log-uniform
KERNEL_RATE = (0.5, 16.0)   # Pi(G), log-uniform


def make_kernel(seed: int, count: int, data: GroupData) -> list[dict]:
    jobs = []
    for i in range(count):
        name = GROUPS[i % len(GROUPS)]
        rng = job_rng("kernel", seed, i)
        total = log_uniform((0.5 + i * _R2[1]) % 1.0, *KERNEL_RATE)
        pit = log_uniform((0.5 + i * _R2[0]) % 1.0, *KERNEL_PIT)
        jobs.append({
            "group": name,
            # inversion-invariant: the cross-cap surgery needs it
            "rates": data.rates(rng, name, total, True),
            "t": pit / total,
            "s_frac": 0.2 + 0.6 * ((0.5 + i * _WEYL[0]) % 1.0),
        })
    return jobs


def kernel_times(job: dict) -> tuple[float, float, float]:
    t = job["t"]
    return job["s_frac"] * t, t, (1.0 + job["s_frac"]) * t


def kernel_poisson_terms(job: dict) -> int:
    """Poisson truncation indices of the job's three series calls (0 where
    the truncation itself raises)."""
    total = 0
    for t in kernel_times(job):
        try:
            total += poisson_truncation_index(sum(job["rates"]) * t,
                                              DEFAULT_TAIL_TOL)
        except RuntimeError:
            pass
    return total


def run_kernel(job: dict, rec) -> None:
    """Both heat-kernel routes at s, t and s+t: each agrees with the other
    and each satisfies the semigroup law Q_s*Q_t = Q_{s+t}."""
    times = kernel_times(job)
    t = times[1]
    with rec.step():
        G, classes, ct, pi, hk = _kernel_objects(rec, job)
    if rec.failures:
        return
    chars = []
    with rec.step():
        chars = [rec.call(hk.density, t) for t in times]
        rec.check_close("levy", "characters:Q_s*Q_t=Q_s+t",
                        rec.call(density_convolve, chars[0], chars[1]).values,
                        chars[2].values)
    with rec.step():
        series = [rec.call(heat_kernel_series, pi, t) for t in times]
        for q, c in zip(series, chars):
            rec.check_close("levy", "series=characters", q.values, c.values)
        rec.check_close("levy", "series:Q_s*Q_t=Q_s+t",
                        rec.call(density_convolve, series[0],
                                 series[1]).values, series[2].values)
    with rec.step():
        eta = rec.call(eta_measure, G)
        kappa = rec.call(kappa_measure, G)
        rec.check("groups", "kappa*eta=kappa^3",
                  rec.call(convolve, kappa, eta).weights
                  == rec.call(convolution_power, kappa, 3).weights)
        rec.check_close(
            "groups", "fourier_identities",
            [rec.call(fourier_coefficient, mu, a, ct).real
             for mu in (eta, kappa) for a in range(ct.r)],
            [1.0 / d for d in ct.dims] + list(ct.fs_indicator))
    with rec.step():
        z1 = rec.call(z_function, G, True, 1, 0, t, hk, classes)
        rec.check_close("holonomy", "upsilon(Z+1,0)=Z-0,1",
                        rec.call(upsilon, z1)(),
                        rec.call(z_function, G, False, 0, 1, t, hk,
                                 classes)())
        z2 = rec.call(z_function, G, True, 2, 0, t, hk, classes)
        rec.check_close("holonomy", "beta1(Z+2,0)=Z+0,2",
                        rec.call(beta1, z2)(),
                        rec.call(z_function, G, True, 0, 2, t, hk,
                                 classes)())
        half = rec.call(z_function, G, True, 1, 0, 0.5 * t, hk, classes)
        rec.check_close("holonomy", "beta2(Z+1,0,Z+1,0)=Z+0,0",
                        rec.call(beta2, half, half)(),
                        rec.call(z_function, G, True, 0, 0, t, hk,
                                 classes)())


def kernel_known_defect(job: dict, failure) -> bool:
    # heat_kernel_series overflows Pi(G)^K into NaN, and its truncation
    # raises once exp(-Pi(G)*t) underflows (Pi(G)*t above about 745).
    layer, what, kind = failure
    return (layer, what, kind) in {
        ("levy", "series=characters", "nonfinite"),
        ("levy", "series:Q_s*Q_t=Q_s+t", "nonfinite"),
        ("levy", "heat_kernel_series", "RuntimeError"),
    }
