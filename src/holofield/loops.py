"""Words of darts, free reduction, spanning trees (primal and dual), lassos,
and the tame generating systems of the group of reduced loops of a map: g
genus lassos, one bounding lasso per boundary circuit and one facial lasso
per face, tied by a single relation w(a) c_1..c_p = l_1..l_f.

The tame system comes from one contour walk of the polygon that the faces
form when glued along a dual spanning tree: face 0's cycle is walked, the
walk goes down into the face across each dual-tree dart and comes back
when that face's cycle closes. The non-tree letters met on the way spell
the polygon's word, which splits into w(a) and the bounding letters; the
facial lassos come in the reverse of the order their cycles close, each
conjugated by the inverse of the letters walked before its cycle closed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, _tables
from .surface import MapError, RibbonMap, faces

__all__ = [
    "EdgeWord",
    "TameGenerators",
    "spanning_tree",
    "dual_spanning_tree",
    "tame_generators",
    "holonomy_of_steps",
    "word_steps",
    "word_end",
]


@dataclass(frozen=True)
class EdgeWord:
    """A path written as a sequence of darts, each traversed away from its
    base vertex; base is the starting vertex (needed for the empty word)."""

    base: int
    darts: tuple[int, ...] = ()

    def __len__(self):
        return len(self.darts)


def word_end(m: RibbonMap, w: EdgeWord) -> int:
    """The vertex the path ends at; ValueError unless its first dart
    leaves its base and each next dart leaves where the last one ends."""
    v = w.base
    for d in w.darts:
        if m.vertex_of(d) != v:
            raise ValueError(f"{w} is not a path of darts from its base")
        v = m.vertex_of(m.alpha[d])
    return v


def _reduced(m: RibbonMap, darts) -> tuple[int, ...]:
    """Erase adjacent dart/reverse-dart pairs until none remain, in one pass
    over a stack; free reduction is confluent, so the result is unique."""
    stack: list[int] = []
    for d in darts:
        if stack and stack[-1] == m.alpha[d]:
            stack.pop()
        else:
            stack.append(d)
    return tuple(stack)


def word_steps(m: RibbonMap, darts) -> tuple[tuple[int, bool], ...]:
    """A dart sequence as (edge id, reversed) pairs, compiled once for
    repeated holonomy evaluation."""
    return tuple((m.edge_of(d), d != m.edge_of(d)) for d in darts)


def holonomy_of_steps(G: FiniteGroup, steps, config) -> int | np.ndarray:
    """Holonomy of a compiled word: the edge elements multiplied in
    traversal order, inverted on reversed darts. config maps each edge id
    (or letter index) to a group element; or it is an integer array whose
    row e holds edge e's values over a block of configurations, and the
    block's holonomies come back as one array, one per column, and a
    single configuration's as an int (the identity for the empty word)."""
    n = G.n
    mul, inv = _tables(G)
    block = isinstance(config, np.ndarray)
    h = np.zeros(config.shape[1:], dtype=np.intp) if block else 0
    for e, rev in steps:
        x = config[e]
        h = mul[h * n + (inv[x] if rev else x)]
    return h if block else int(h)


# Rows per block of an enumerated product: every configuration or tuple sum
# runs in blocks of this many rows, so its memory is bounded at any size.
_BLOCK = 1 << 16


def _product_blocks(alphabets, rows=None):
    """The product of the alphabets in itertools.product order, or the rows
    of it with the given indices, as integer arrays of shape
    (letters, rows) with at most _BLOCK rows each."""
    sizes = [len(a) for a in alphabets]
    letters = [np.asarray(a, dtype=np.intp) for a in alphabets]
    total = math.prod(sizes) if rows is None else len(rows)
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        index = np.arange(lo, hi) if rows is None else rows[lo:hi]
        digits = np.unravel_index(index, sizes) if sizes else ()
        yield np.array([a[i] for a, i in zip(letters, digits)],
                       dtype=np.intp).reshape(len(sizes), hi - lo)


def _find(comp: list[int], x: int) -> int:
    """Root of x in the union-find forest comp, halving the path."""
    while comp[x] != x:
        comp[x] = comp[comp[x]]
        x = comp[x]
    return x


def _grow_tree(m: RibbonMap, seeds: list[int], allowed: list[int]) -> set[int]:
    """Extend the seed forest to a spanning tree using allowed edges in
    ascending order; edge ids, not darts."""
    comp = list(range(m.n_vertices))
    tree = set()
    for e in list(seeds) + sorted(allowed):
        a = _find(comp, m.vertex_of(e))
        b = _find(comp, m.vertex_of(m.alpha[e]))
        if a != b:
            comp[a] = b
            tree.add(e)
        elif e in seeds:
            raise MapError("seed edges contain a cycle")
    if len(tree) != m.n_vertices - 1:
        raise MapError("graph is disconnected by the forbidden edges")
    return tree


def spanning_tree(m: RibbonMap, forbidden: set[int] = frozenset()) -> frozenset[int]:
    allowed = [e for e in m.edges() if e not in forbidden]
    return frozenset(_grow_tree(m, [], allowed))


def dual_spanning_tree(m: RibbonMap) -> frozenset[int]:
    """Spanning tree of the dual graph (faces joined across interior edges),
    grown from the face containing the lowest dart, in ascending edge order."""
    fs = faces(m)
    bdarts = m.boundary_darts()
    comp = list(range(len(fs.cycles)))
    tree = set()
    for e in m.edges():
        if e in bdarts:
            continue
        a, b = _find(comp, fs.home[e, 1]), _find(comp, fs.home[e, -1])
        if a != b:
            comp[a] = b
            tree.add(e)
    if len(tree) != len(fs.cycles) - 1:
        raise MapError("dual graph is disconnected")
    return frozenset(tree)


def _tree_paths(m: RibbonMap, tree: set[int], base: int) -> list[tuple[int, ...]]:
    """For each vertex, the darts of its tree path to base; BFS over tree
    edges in ascending dart order."""
    to_base: list[tuple[int, ...] | None] = [None] * m.n_vertices
    to_base[base] = ()
    queue = [base]
    for u in queue:
        for d in sorted(m.vertex_cycles()[u]):
            w = m.vertex_of(m.alpha[d])
            if m.edge_of(d) in tree and to_base[w] is None:
                to_base[w] = (m.alpha[d],) + to_base[u]
                queue.append(w)
    if None in to_base:
        raise MapError("tree does not span the map")
    return to_base


def _inv(m: RibbonMap, darts) -> tuple[int, ...]:
    """The darts of the reversed path."""
    return tuple(m.alpha[d] for d in reversed(darts))


def _lassos(m: RibbonMap, base: int, to_base, darts) -> EdgeWord:
    """The reduced product of the darts' lassos (the tree from base to the
    dart's tail, the dart, the tree back), read as one stream of tree paths
    and darts and reduced once: free reduction is confluent."""
    return EdgeWord(base, _reduced(m, (
        x for d in darts for x in (*_inv(m, to_base[m.vertex_of(d)]), d,
                                   *to_base[m.vertex_of(m.alpha[d])]))))


# ---------------------------------------------------------------------------
# tame generating systems


@dataclass
class TameGenerators:
    """g lassos a, p bounding lassos c, f facial lassos l, all based at the
    same vertex, presenting the loop group with the single relation
    w(a) c_1..c_p = l_1..l_f. Bookkeeping fields record which boundary
    circuit and face each generator belongs to, plus the data needed to
    refine facial lassos when a face is split."""

    base: int
    a: list[EdgeWord]
    c: list[EdgeWord]
    c_meta: list[tuple[int, int]]  # (boundary circuit index, exponent)
    l: list[EdgeWord]
    face_of_l: list[int]
    w: list[tuple[int, int]]  # word in a-letters as (index, sign)
    cycles: list[tuple[tuple[int, int], ...]]  # oriented facial cycle per l
    conj: list[EdgeWord]  # l_i = conj_i^{-1} . cycle product . conj_i
    tree: frozenset[int]  # spanning tree (edge ids) the lassos follow

    def relation_word(self, m: RibbonMap) -> EdgeWord:
        darts = [d for i, s in self.w for d in
                 (self.a[i].darts if s == 1 else _inv(m, self.a[i].darts))]
        darts += [d for c in self.c for d in c.darts]
        darts += _inv(m, [d for l in self.l for d in l.darts])
        return EdgeWord(self.base, _reduced(m, darts))


def tame_generators(m: RibbonMap) -> TameGenerators:
    """The tame system of m, its lassos based at vertex 0."""
    base = 0
    fs = faces(m)
    dual = dual_spanning_tree(m)
    bdarts = m.boundary_darts()

    # one boundary edge per circuit, the one with the lowest dart; its
    # positive representative is the circuit (positively bounding) dart
    b_rep: dict[int, int] = {}
    circuit_of_b: dict[int, int] = {}
    for i, circ in enumerate(m.boundary):
        d = min(circ, key=lambda x: m.edge_of(x))
        b_rep[m.edge_of(d)] = d
        circuit_of_b[m.edge_of(d)] = i
    b_edges = set(b_rep)

    # T: boundary edges outside B, extended in ascending order avoiding the
    # dual tree image and B
    seeds = sorted(
        m.edge_of(d) for circ in m.boundary for d in circ
        if m.edge_of(d) not in b_edges
    )
    allowed = [e for e in m.edges()
               if e not in dual and e not in b_edges and e not in seeds
               and e not in bdarts]
    tree = _grow_tree(m, seeds, allowed)

    r_edges = sorted(e for e in m.edges()
                     if e not in tree and e not in b_edges and e not in dual)
    letter_rep = {e: e for e in r_edges}
    letter_rep.update(b_rep)
    to_base = _tree_paths(m, tree, base)

    def sign(d):
        return 1 if d == letter_rep[m.edge_of(d)] else -1

    # contour walk of the polygon the faces form when glued along the dual
    # tree: walk each face's cycle from the dart it was entered by, go down
    # into the face across every other dual-tree dart and resume when that
    # face's cycle closes. The letter darts crossed spell the polygon's word
    # V, and a face closing after the first k of them has the conjugator
    # V[:k]^-1
    V: list[int] = []
    closed = []  # (face, cycle, len(V)) in the order the cycles close
    walk = [(0, fs.cycles[0], iter(fs.cycles[0]))]
    while walk:
        u, cyc, rest = walk[-1]
        item = next(rest, None)
        if item is None:
            walk.pop()
            closed.append((u, cyc, len(V)))
            continue
        d, eps = item
        e = m.edge_of(d)
        if e in dual:
            # the face across runs through the opposite dart: follow the
            # facial permutation starting from it
            across = m.twin(d, -eps)
            child = [across]
            while m.phi(*child[-1]) != across:
                child.append(m.phi(*child[-1]))
            walk.append((fs.home[across], tuple(child), iter(child[1:])))
        elif e not in tree:
            V.append(d)
    if len(closed) != len(fs.cycles):
        raise MapError("dual tree traversal missed a face")

    # sanity on letter multiplicities
    counts = Counter(m.edge_of(d) for d in V)
    if any(counts[e] != 2 for e in r_edges):
        raise MapError("genus letter does not appear exactly twice")
    if any(counts[e] != 1 for e in b_edges):
        raise MapError("boundary letter does not appear exactly once")

    # split V at boundary letters: V = t_0 beta_1 t_1 ... beta_p t_p
    t_chunks = [[]]
    betas = []
    for d in V:
        if m.edge_of(d) in b_edges:
            betas.append(d)
            t_chunks.append([])
        else:
            t_chunks[-1].append(d)

    a_idx = {e: i for i, e in enumerate(r_edges)}
    a_words = [_lassos(m, base, to_base, [e]) for e in r_edges]
    w_letters = [(a_idx[m.edge_of(d)], sign(d))
                 for chunk in t_chunks for d in chunk]

    c_words, c_meta = [], []
    for i, beta in enumerate(betas):
        tail = [d for chunk in t_chunks[i + 1:] for d in chunk]
        c_words.append(_lassos(m, base, to_base,
                               [*_inv(m, tail), beta, *tail]))
        c_meta.append((circuit_of_b[m.edge_of(beta)], sign(beta)))

    # the facial lassos in the reverse of the order their cycles closed
    order = closed[::-1]
    conjs = [_lassos(m, base, to_base, _inv(m, V[:k])) for _, _, k in order]
    l_words = [_lassos(m, base, to_base,
                       [*V[:k], *(d for d, _ in cyc), *_inv(m, V[:k])])
               for _, cyc, k in order]
    out = TameGenerators(
        base=base, a=a_words, c=c_words, c_meta=c_meta,
        l=l_words, face_of_l=[u for u, _, _ in order], w=w_letters,
        cycles=[cyc for _, cyc, _ in order], conj=conjs,
        tree=frozenset(tree),
    )
    if out.relation_word(m).darts:
        raise MapError("tame relation did not reduce to the empty word")
    return out
