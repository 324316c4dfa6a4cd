"""Words of darts, free reduction, spanning trees (primal and dual), lassos,
and the tame generating systems of the group of reduced loops of a map: g
genus lassos, one bounding lasso per boundary circuit and one facial lasso
per face, tied by a single relation w(a) c_1..c_p = l_1..l_f.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .groups import FiniteGroup
from .surface import MapError, RibbonMap, faces

__all__ = [
    "EdgeWord",
    "TameGenerators",
    "concat",
    "inverse",
    "reduce_word",
    "spanning_tree",
    "dual_spanning_tree",
    "lasso",
    "free_basis",
    "tame_generators",
    "refine_generators",
    "holonomy_of_word",
    "holonomy_of_steps",
    "word_steps",
    "word_end",
    "abelianization",
    "abelian_rank",
]


@dataclass(frozen=True)
class EdgeWord:
    """A path written as a sequence of darts, each traversed away from its
    base vertex; base is the starting vertex (needed for the empty word)."""

    base: int
    darts: tuple[int, ...] = ()

    def __len__(self):
        return len(self.darts)


def validate_word(m: RibbonMap, w: EdgeWord) -> None:
    at = w.base
    for d in w.darts:
        if not (0 <= d < m.n_darts):
            raise MapError(f"dart {d} outside the map")
        if m.vertex_of(d) != at:
            raise MapError("word does not chain head-to-tail")
        at = m.vertex_of(m.alpha[d])


def word_end(m: RibbonMap, w: EdgeWord) -> int:
    return m.vertex_of(m.alpha[w.darts[-1]]) if w.darts else w.base


def concat(m: RibbonMap, *words: EdgeWord) -> EdgeWord:
    words = list(words)
    if not words:
        raise MapError("nothing to concatenate")
    out = list(words[0].darts)
    at = word_end(m, words[0])
    for w in words[1:]:
        if w.base != at:
            raise MapError("concatenation endpoints do not match")
        out.extend(w.darts)
        at = word_end(m, w)
    return EdgeWord(words[0].base, tuple(out))


def inverse(m: RibbonMap, w: EdgeWord) -> EdgeWord:
    return EdgeWord(word_end(m, w), tuple(m.alpha[d] for d in reversed(w.darts)))


def reduce_word(m: RibbonMap, w: EdgeWord) -> EdgeWord:
    """Erase adjacent dart/reverse-dart pairs until none remain; the result
    is the unique shortest representative with the same endpoints."""
    stack: list[int] = []
    for d in w.darts:
        if stack and stack[-1] == m.alpha[d]:
            stack.pop()
        else:
            stack.append(d)
    return EdgeWord(w.base, tuple(stack))


def word_steps(m: RibbonMap, darts) -> tuple[tuple[int, bool], ...]:
    """A dart sequence as (edge id, reversed) pairs, compiled once for
    repeated holonomy evaluation."""
    return tuple((m.edge_of(d), d != m.edge_of(d)) for d in darts)


def holonomy_of_steps(G: FiniteGroup, steps, config: dict[int, int]) -> int:
    """Holonomy of a compiled word: the edge elements multiplied in
    traversal order, inverted on reversed darts."""
    h = 0
    for e, rev in steps:
        x = config[e]
        h = G.mul[h][G.inv[x] if rev else x]
    return h


def holonomy_of_word(G: FiniteGroup, m: RibbonMap, config: dict[int, int],
                     w: EdgeWord) -> int:
    """Holonomy of a word: edge elements multiplied in traversal order,
    inverted on reversed darts. config maps each edge id (its smaller dart)
    to a group element."""
    return holonomy_of_steps(G, word_steps(m, w.darts), config)


def _grow_tree(m: RibbonMap, seeds: list[int], allowed: list[int]) -> set[int]:
    """Extend the seed forest to a spanning tree using allowed edges in
    ascending order; edge ids, not darts."""
    comp = list(range(m.n_vertices))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    tree = set()
    for e in list(seeds) + sorted(allowed):
        a, b = find(m.vertex_of(e)), find(m.vertex_of(m.alpha[e]))
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


def _face_of_framed(m: RibbonMap) -> dict[tuple[int, int], int]:
    """Unoriented face index of every framed dart (both cycles of a pair)."""
    fs = faces(m)
    out = {}
    for i, cyc in enumerate(fs.cycles):
        for d, eps in cyc:
            out[d, eps] = i
            out[m.alpha[d], -eps] = i
    return out


def dual_spanning_tree(m: RibbonMap) -> frozenset[int]:
    """Spanning tree of the dual graph (faces joined across interior edges),
    grown from the face containing the lowest dart, in ascending edge order."""
    fs = faces(m)
    home = _face_of_framed(m)
    bdarts = m.boundary_darts()
    comp = list(range(len(fs.cycles)))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    tree = set()
    for e in m.edges():
        if e in bdarts or m.alpha[e] in bdarts:
            continue
        a = find(home[e, 1])
        b = find(home[e, -1])
        if a != b:
            comp[a] = b
            tree.add(e)
    if len(tree) != len(fs.cycles) - 1:
        raise MapError("dual graph is disconnected")
    return frozenset(tree)


def _tree_climb(m: RibbonMap, tree: set[int], base: int) -> list[int | None]:
    """For each vertex, the dart of the tree edge pointing toward base (None
    at base); BFS over tree edges in ascending dart order."""
    up: list[int | None] = [None] * m.n_vertices
    seen = [False] * m.n_vertices
    seen[base] = True
    queue = [base]
    while queue:
        u = queue.pop(0)
        for d in sorted(m.vertex_cycles()[u]):
            if m.edge_of(d) not in tree:
                continue
            w = m.vertex_of(m.alpha[d])
            if not seen[w]:
                seen[w] = True
                up[w] = m.alpha[d]
                queue.append(w)
    if not all(seen):
        raise MapError("tree does not span the map")
    return up


def _path_to_base(m: RibbonMap, up: list[int | None], x: int) -> list[int]:
    out = []
    while up[x] is not None:
        out.append(up[x])
        x = m.vertex_of(m.alpha[up[x]])
    return out


def lasso(m: RibbonMap, tree: set[int], e: int, base: int,
          up: list[int | None] | None = None) -> EdgeWord:
    """The loop (base -> tail of e along the tree) e (head of e -> base)."""
    if up is None:
        up = _tree_climb(m, tree, base)
    down = _path_to_base(m, up, m.vertex_of(e))
    back = _path_to_base(m, up, m.vertex_of(m.alpha[e]))
    darts = tuple(m.alpha[d] for d in reversed(down)) + (e,) + tuple(back)
    return reduce_word(m, EdgeWord(base, darts))


def free_basis(m: RibbonMap, base: int, tree: set[int] | None = None) -> list[EdgeWord]:
    if tree is None:
        tree = spanning_tree(m)
    up = _tree_climb(m, tree, base)
    return [lasso(m, tree, e, base, up) for e in m.edges() if e not in tree]


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
    a_edges: list[int]
    c: list[EdgeWord]
    c_meta: list[tuple[int, int]]  # (boundary circuit index, exponent)
    l: list[EdgeWord]
    face_of_l: list[int]
    w: list[tuple[int, int]]  # word in a-letters as (index, sign)
    cycles: list[tuple[tuple[int, int], ...]]  # oriented facial cycle per l
    conj: list[EdgeWord]  # l_i = conj_i^{-1} . cycle product . conj_i
    tree: frozenset[int]  # spanning tree (edge ids) the lassos follow

    def relation_word(self, m: RibbonMap) -> EdgeWord:
        parts = [self.a[i] if s == 1 else inverse(m, self.a[i])
                 for i, s in self.w]
        parts += list(self.c)
        prod_l = _concat_all(m, self.l, self.base)
        parts.append(inverse(m, prod_l))
        return reduce_word(m, _concat_all(m, parts, self.base))

    def generators_dropping_last_face(self) -> list[EdgeWord]:
        return list(self.a) + list(self.c) + list(self.l[:-1])


def _concat_all(m: RibbonMap, words: list[EdgeWord], base: int) -> EdgeWord:
    out = EdgeWord(base)
    for w in words:
        out = concat(m, out, w)
    return out


def _word_of_letters(m: RibbonMap, lassos: dict[int, EdgeWord], sym,
                     base: int) -> EdgeWord:
    out = EdgeWord(base)
    for e, s in sym:
        out = concat(m, out, lassos[e] if s == 1 else inverse(m, lassos[e]))
    return reduce_word(m, out)


def _inv_sym(sym):
    return [(e, -s) for e, s in reversed(sym)]


def _label_cmp(u, v):
    """Prefix first, then first differing letter with larger integer first."""
    for a, b in zip(u, v):
        if a != b:
            return -1 if a > b else 1
    if len(u) == len(v):
        return 0
    return -1 if len(u) < len(v) else 1


def tame_generators(m: RibbonMap, base: int = 0) -> TameGenerators:
    fs = faces(m)
    nf = len(fs.cycles)
    home = _face_of_framed(m)
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
               and not (e in bdarts or m.alpha[e] in bdarts)]
    tree = _grow_tree(m, seeds, allowed)

    r_edges = sorted(e for e in m.edges()
                     if e not in tree and e not in b_edges and e not in dual)
    letter_rep = {e: e for e in r_edges}
    letter_rep.update(b_rep)

    up = _tree_climb(m, tree, base)
    lassos = {e: lasso(m, tree, letter_rep[e], base, up)
              for e in list(r_edges) + sorted(b_edges)}

    def sym_of_dart(d):
        e = m.edge_of(d)
        if e in tree or e in dual:
            return None
        return (e, 1 if d == letter_rep[e] else -1)

    # adapted orientation of every face, grown from the root face 0
    oriented: dict[int, list[tuple[int, int]]] = {0: list(fs.cycles[0])}
    parent_edge: dict[int, int] = {}
    children: dict[int, list[int]] = {i: [] for i in range(nf)}
    queue = [0]
    visited = {0}
    while queue:
        u = queue.pop(0)
        for d, eps in oriented[u]:
            e = m.edge_of(d)
            if e not in dual:
                continue
            other = home[m.alpha[d], eps]
            if other in visited:
                continue
            visited.add(other)
            parent_edge[other] = e
            children[u].append(other)
            # the child traverses the opposite dart: follow the facial
            # permutation starting from it
            cyc = []
            cur = (m.alpha[d], eps)
            while True:
                cyc.append(cur)
                cur = m.phi(*cur)
                if cur == cyc[0]:
                    break
            oriented[other] = cyc
            queue.append(other)
    if len(visited) != nf:
        raise MapError("dual tree traversal missed a face")

    # Neveu labels: children in order of appearance along the oriented cycle
    label_of_face: dict[int, tuple[int, ...]] = {0: ()}
    face_of_label: dict[tuple[int, ...], int] = {(): 0}
    stack = [0]
    while stack:
        u = stack.pop()
        lab = label_of_face[u]
        for j, ch in enumerate(children[u], start=1):
            label_of_face[ch] = lab + (j,)
            face_of_label[lab + (j,)] = ch
            stack.append(ch)

    # per-face segment words between consecutive dual-tree darts; these give
    # the t elements attached to the adjacent pairs of the dual tree
    t_adj: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = {}
    for u in range(nf):
        lab = label_of_face[u]
        cyc = oriented[u]
        items = list(cyc)
        if lab != ():
            items = items[1:]  # drop the parent-edge dart
        segments = [[]]
        child_pos = 0
        for d, eps in items:
            e = m.edge_of(d)
            if e in dual:
                segments.append([])
                child_pos += 1
            else:
                s = sym_of_dart(d)
                if s is not None:
                    segments[-1].append(s)
        if child_pos != len(children[u]):
            raise MapError("face cycle does not match its dual-tree degree")
        parent_lab = lab[:-1] if lab != () else ()
        t_adj[lab, parent_lab] = _inv_sym(segments[0])
        for j in range(1, child_pos + 1):
            t_adj[lab, lab + (j,)] = _inv_sym(segments[j])

    def t_path(x: tuple[int, ...], y: tuple[int, ...]) -> list:
        # product of adjacent t's along the unique tree path from x to y
        k = 0
        while k < min(len(x), len(y)) and x[k] == y[k]:
            k += 1
        out = []
        cur = x
        while len(cur) > k:
            out += t_adj[cur, cur[:-1]]
            cur = cur[:-1]
        for j in range(k, len(y)):
            out += t_adj[cur, cur + (y[j],)]
            cur = cur + (y[j],)
        return out

    order = sorted(label_of_face.values(), key=cmp_to_key(_label_cmp))
    # tail conjugators s_i = t_{u_i,u_{i+1}} ... t_{u_f,root} t_{root,parent}
    tails: list[list] = [None] * nf
    cur = t_path(order[-1], ()) + list(t_adj[(), ()])
    for i in range(nf - 1, -1, -1):
        tails[i] = list(cur)
        if i > 0:
            cur = t_path(order[i - 1], order[i]) + cur
    V = _inv_sym(cur)  # cur is now the full chain t_{u_1,u_2} ... t_{root,parent}

    # sanity on letter multiplicities
    from collections import Counter

    counts = Counter(e for e, _ in V)
    for e in r_edges:
        if counts[e] != 2:
            raise MapError("genus letter does not appear exactly twice")
    for e in b_edges:
        if counts[e] != 1:
            raise MapError("boundary letter does not appear exactly once")

    # split V at boundary letters: V = t_0 beta_1 t_1 ... beta_p t_p
    t_chunks = [[]]
    betas = []
    for e, s in V:
        if e in b_edges:
            betas.append((e, s))
            t_chunks.append([])
        else:
            t_chunks[-1].append((e, s))

    a_idx = {e: i for i, e in enumerate(r_edges)}
    a_words = [lassos[e] for e in r_edges]
    w_letters = [(a_idx[e], s) for chunk in t_chunks for e, s in chunk]

    c_words = []
    c_meta = []
    for i, (e, s) in enumerate(betas):
        tail = [x for chunk in t_chunks[i + 1:] for x in chunk]
        tail_w = _word_of_letters(m, lassos, tail, base)
        beta_w = lassos[e] if s == 1 else inverse(m, lassos[e])
        c_words.append(reduce_word(m, concat(
            m, inverse(m, tail_w), beta_w, tail_w)))
        c_meta.append((circuit_of_b[e], s))

    l_words = []
    conjs = []
    cycles = []
    face_of_l = []
    for i, lab in enumerate(order):
        u = face_of_label[lab]
        s_i = _word_of_letters(m, lassos, tails[i], base)
        cyc_word = _concat_all(
            m, [lasso(m, tree, d, base, up) for d, _ in oriented[u]], base)
        l_words.append(reduce_word(m, concat(
            m, inverse(m, s_i), cyc_word, s_i)))
        conjs.append(s_i)
        cycles.append(tuple(oriented[u]))
        face_of_l.append(u)

    out = TameGenerators(
        base=base, a=a_words, a_edges=r_edges, c=c_words, c_meta=c_meta,
        l=l_words, face_of_l=face_of_l, w=w_letters, cycles=cycles,
        conj=conjs, tree=frozenset(tree),
    )
    if out.relation_word(m).darts:
        raise MapError("tame relation did not reduce to the empty word")
    return out


def refine_generators(
    tame: TameGenerators,
    coarse: RibbonMap,
    fine: RibbonMap,
    split_position: int,
    containment: dict[int, int],
) -> TameGenerators:
    """Tame system on a map obtained from coarse by split_face: the facial
    lasso at split_position factors into the two sub-face lassos; everything
    else is carried over unchanged (the old darts keep their ids)."""
    face_old = tame.face_of_l[split_position]
    news = [j for j, i in containment.items() if i == face_old]
    if len(news) != 2:
        raise MapError("containment does not describe a single face split")
    C = list(tame.cycles[split_position])
    fs_fine = faces(fine)

    def oriented_fine(j):
        # orient the sub-face compatibly with the coarse cycle C
        cyc = list(fs_fine.cycles[j])
        old_items = set(C)
        if any((d, e) in old_items for d, e in cyc):
            return cyc
        rev = []
        cur = (fine.alpha[cyc[0][0]], -cyc[0][1])
        while True:
            rev.append(cur)
            cur = fine.phi(*cur)
            if cur == rev[0]:
                break
        return rev

    cyc_a, cyc_b = (oriented_fine(j) for j in news)
    pos = {it: k for k, it in enumerate(C)}
    r = len(C)

    def chord_index(cyc):
        ks = [k for k, it in enumerate(cyc) if it[0] >= coarse.n_darts]
        if len(ks) != 1:
            raise MapError("sub-face does not contain exactly one chord dart")
        return ks[0]

    def try_roles(fa, fb):
        # fa plays the face cut out first (chord traversed last), fb the
        # complementary one (chord traversed first); the old darts of both,
        # read in this order, must run once around C
        ka, kb = chord_index(fa), chord_index(fb)
        first = fa[ka + 1:] + fa[:ka + 1]
        second = fb[kb:] + fb[:kb]
        seq = [it for it in first[:-1] + second[1:]]
        try:
            ps = [pos[it] for it in seq]
        except KeyError:
            return None
        cut = ps[0]
        if ps != [(cut + k) % r for k in range(r)]:
            return None
        return cut, first, second

    roles = try_roles(cyc_a, cyc_b) or try_roles(cyc_b, cyc_a)
    if roles is None:
        raise MapError("sub-faces do not assemble back into the coarse face")
    cut, first, second = roles
    return _assemble_refined(tame, fine, split_position, C, cut, first,
                             second)


def _assemble_refined(tame, fine, split_position, C, cut, first,
                      second) -> TameGenerators:
    base = tame.base
    # lassos on the fine map reuse the coarse spanning tree (no new vertex)
    tree = tame.tree
    up = _tree_climb(fine, tree, base)
    x = _concat_all(
        fine, [lasso(fine, tree, d, base, up) for d, _ in C[:cut]], base)
    lam_first = reduce_word(fine, concat(
        fine, x,
        _concat_all(fine, [lasso(fine, tree, d, base, up) for d, _ in first],
                    base),
        inverse(fine, x)))
    lam_second = reduce_word(fine, concat(
        fine, x,
        _concat_all(fine, [lasso(fine, tree, d, base, up) for d, _ in second],
                    base),
        inverse(fine, x)))
    s_i = tame.conj[split_position]
    def conj(word):
        return reduce_word(fine, concat(fine, inverse(fine, s_i), word, s_i))
    l1, l2 = conj(lam_first), conj(lam_second)
    check = reduce_word(fine, concat(
        fine, l1, l2, inverse(fine, tame.l[split_position])))
    if check.darts:
        raise MapError("refined facial lassos do not multiply to the old one")
    fs_fine = faces(fine)
    def face_index(cyc):
        items = set(cyc) | {(fine.alpha[d], -e) for d, e in cyc}
        for j, c in enumerate(fs_fine.cycles):
            if c[0] in items:
                return j
        raise MapError("sub-face not found")
    new_conj_first = reduce_word(fine, concat(fine, inverse(fine, x), s_i))
    l_list = list(tame.l)
    l_list[split_position:split_position + 1] = [l1, l2]
    faces_list = list(tame.face_of_l)
    faces_list[split_position:split_position + 1] = [
        face_index(first), face_index(second)]
    cycles = list(tame.cycles)
    cycles[split_position:split_position + 1] = [tuple(first), tuple(second)]
    conjs = list(tame.conj)
    conjs[split_position:split_position + 1] = [new_conj_first, new_conj_first]
    return TameGenerators(
        base=base, a=tame.a, a_edges=tame.a_edges, c=tame.c,
        c_meta=tame.c_meta, l=l_list, face_of_l=faces_list, w=tame.w,
        cycles=cycles, conj=conjs, tree=tree,
    )

