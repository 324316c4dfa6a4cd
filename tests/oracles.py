"""Reference routes that only the tests call.

Each is an independent, brute-force way to a value the package computes
by its one route, or a check the package itself never needs: the
positivity support of the series heat kernel, the gauge flip of a map,
free bases and abelianized words of map loops, word holonomies read
from an edge dict, and the automorphism order of a single monodromy
tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from holofield.covering import MonodromyTuple
from holofield.groups import FiniteGroup, _conj
from holofield.levy import JumpMeasure, heat_kernel_series
from holofield.loops import (
    EdgeWord,
    _lassos,
    _tree_paths,
    holonomy_of_steps,
    spanning_tree,
    word_steps,
)
from holofield.surface import MapError, RibbonMap


# ---------------------------------------------------------------------------
# levy


@dataclass
class SupportReport:
    subgroup: frozenset[int]
    min_on_subgroup: float
    max_off_subgroup: float
    positive_on_subgroup: bool
    vanishes_off_subgroup: bool

    @property
    def ok(self) -> bool:
        return self.positive_on_subgroup and self.vanishes_off_subgroup


def positivity_support_check(pi: JumpMeasure, t: float) -> SupportReport:
    """Q_t, by the series, is positive exactly on the subgroup generated by
    supp(Pi) and within 1e-10 of zero off it."""
    if t <= 0:
        raise ValueError("time must be positive")
    H = pi.group.subgroup_generated(pi.support())
    q = heat_kernel_series(pi, t)
    on = [q.values[x] for x in sorted(H)]
    off = [q.values[x] for x in range(pi.group.n) if x not in H]
    return SupportReport(
        subgroup=H,
        min_on_subgroup=min(on),
        max_off_subgroup=max(map(abs, off)) if off else 0.0,
        positive_on_subgroup=min(on) > 0,
        vanishes_off_subgroup=(not off) or max(map(abs, off)) <= 1e-10,
    )


# ---------------------------------------------------------------------------
# surface


def gauge_flip(m: RibbonMap, vertex: int) -> RibbonMap:
    """Reverse the local orientation at one vertex: the rotation there is
    inverted and every non-loop edge at the vertex flips its signature."""
    cyc = m.vertex_cycles()[vertex]
    sigma = list(m.sigma)
    inv = {m.sigma[d]: d for d in cyc}
    for d in cyc:
        sigma[d] = inv[d]
    lam = list(m.lam)
    for d in cyc:
        if m.vertex_of(m.alpha[d]) != vertex:
            lam[d] = -lam[d]
            lam[m.alpha[d]] = -lam[m.alpha[d]]
    return RibbonMap(m.alpha, tuple(sigma), tuple(lam), m.boundary)


# ---------------------------------------------------------------------------
# loops


def validate_word(m: RibbonMap, w: EdgeWord) -> None:
    at = w.base
    for d in w.darts:
        if not (0 <= d < m.n_darts):
            raise MapError(f"dart {d} outside the map")
        if m.vertex_of(d) != at:
            raise MapError("word does not chain head-to-tail")
        at = m.vertex_of(m.alpha[d])


def holonomy_of_word(G: FiniteGroup, m: RibbonMap, config: dict[int, int],
                     w: EdgeWord) -> int:
    """Holonomy of a word: edge elements multiplied in traversal order,
    inverted on reversed darts. config maps each edge id (its smaller dart)
    to a group element."""
    return holonomy_of_steps(G, word_steps(m, w.darts), config)


def free_basis(m: RibbonMap, base: int) -> list[EdgeWord]:
    """The lassos at base of the edges off the spanning tree."""
    tree = spanning_tree(m)
    to_base = _tree_paths(m, tree, base)
    return [_lassos(m, base, to_base, [e]) for e in m.edges() if e not in tree]


def abelianization(m: RibbonMap, w: EdgeWord) -> tuple[int, ...]:
    """Signed edge-crossing counts of a word, indexed by positive edges."""
    idx = {e: i for i, e in enumerate(m.edges())}
    v = [0] * len(idx)
    for d in w.darts:
        e = m.edge_of(d)
        v[idx[e]] += 1 if d == e else -1
    return tuple(v)


def abelian_rank(m: RibbonMap, words: list[EdgeWord]) -> int:
    """Integer rank of the abelianized words over the edge lattice."""
    rows = [[Fraction(x) for x in abelianization(m, w)] for w in words]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        piv = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        pr = rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                fac = rows[r][col] / pr[col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], pr)]
        pivot_row += 1
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# covering


def aut_order(t: MonodromyTuple) -> int:
    """Order of the automorphism group of the bundle: the centralizer of
    the subgroup generated by all tuple entries."""
    entries = list(t.entries())
    return int(np.sum(np.all(_conj(t.group)[:, entries] == entries, axis=1)))
