"""Halving constructions on incidence geometries.

Given a geometry with a leaf pair (i,j) playing the (vertex, edge)
roles: vertices double into two fibers and every other element doubles
into its residue's parity classes (non-bipartite truncation), or the
vertex set splits into the two sides of the bipartition (bipartite
truncation).  halving_geometry dispatches between the two.

truncation_graph is the one vertex-edge graph builder: of the whole
geometry for the leaf, of a residue for the parity classes of its
elements.  parity_classes, partitioned_neighborhood and
gonality_formula take such a graph as an adjacency mapping.
"""

import numpy as np

from .errors import (
    Disconnected, NotAClass, PreconditionFailed, NotPConstructed,
    InvalidParams, NotAnAction,
)
from . import geometry as geo
from .perms import PermGroup


class ParityPartition:
    """Even-path-length equivalence classes of a connected graph.

    Two classes when the graph is bipartite (the colour classes), one
    when it has an odd cycle.  The class containing the smallest
    vertex comes first.
    """

    def __init__(self, classes, bipartite):
        self.classes = tuple(frozenset(c) for c in classes)
        self.bipartite = bipartite

    def complement(self, P):
        if P not in self.classes:
            raise NotAClass(repr(P))
        if len(self.classes) == 1:
            return self.classes[0]
        return self.classes[1] if P == self.classes[0] else self.classes[0]


def _as_graph(graph):
    """Normalize an adjacency mapping to (sorted vertex tuple,
    adjacency dict of sorted tuples), checking symmetry."""
    verts = tuple(sorted(graph))
    adj = {v: tuple(sorted(graph[v])) for v in verts}
    for v in verts:
        for w in adj[v]:
            if w not in adj or v not in adj[w]:
                raise InvalidParams("adjacency not symmetric at %r" % (v,))
    return verts, adj


def parity_classes(graph):
    return _parity(*_as_graph(graph))


def _parity(verts, adj):
    if not verts:
        raise Disconnected("empty graph")
    color = {verts[0]: 0}
    todo = [verts[0]]
    odd = False
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                todo.append(w)
            elif color[w] == color[v]:
                odd = True
    if len(color) != len(verts):
        raise Disconnected("graph is not connected")
    if odd:
        return ParityPartition([frozenset(verts)], False)
    side0 = frozenset(v for v in verts if color[v] == 0)
    side1 = frozenset(verts) - side0
    if side1 and min(side1) < min(side0):
        side0, side1 = side1, side0
    return ParityPartition([side0, side1], True)


def partitioned_neighborhood(graph, P):
    """Rank-2 geometry: points P x {0}, lines P-bar x {1}, incidence
    is graph adjacency."""
    verts, adj = _as_graph(graph)
    pp = _parity(verts, adj)
    P = frozenset(P)
    pbar = pp.complement(P)
    points = sorted(P)
    lines = sorted(pbar)
    types = [0] * len(points) + [1] * len(lines)
    index = {}
    labels = []
    for n, p in enumerate(points):
        index[(p, 0)] = n
        labels.append((p, 0))
    for n, q in enumerate(lines):
        index[(q, 1)] = len(points) + n
        labels.append((q, 1))
    pairs = []
    for p in points:
        for q in adj[p]:
            if q in pbar:
                pairs.append((index[(p, 0)], index[(q, 1)]))
    return geo.build_geometry(2, types, pairs, labels=labels)


def truncation_graph(g, leaf, flag=()):
    """The {i,j}-truncation of the residue of flag (the whole geometry
    for the empty flag) seen as a graph on its i-elements, plus each
    j-element's endpoint pair.  Elements keep their ids in g."""
    i, j = leaf
    cand = geo.flag_candidates(g, flag)
    adj = {}
    edges = []
    for e in cand:
        if g.type_of[e] == i:
            adj[e] = set()
        elif g.type_of[e] == j:
            edges.append(e)
    endpoints = {}
    for e in edges:
        ends = tuple(sorted(v for v in g.adj[e] if v in adj))
        endpoints[e] = ends
        if len(ends) == 2:
            adj[ends[0]].add(ends[1])
            adj[ends[1]].add(ends[0])
    return {v: tuple(sorted(a)) for v, a in adj.items()}, endpoints


def _check_leaf(g, leaf):
    """A leaf (i,j) names two distinct types of g; else InvalidParams."""
    i, j = leaf
    if i == j or not (0 <= i < g.rank and 0 <= j < g.rank):
        raise InvalidParams("leaf (%r,%r) must be two distinct types in"
                            " 0..%d" % (i, j, g.rank - 1))


def check_B1(g, leaf):
    """Every j-element has exactly two i-elements, no repeated pairs.

    Read on the CSR, whose rows list each j-element's i-elements
    consecutively and in increasing order.
    """
    _check_leaf(g, leaf)
    i, j = leaf
    types = np.asarray(g.type_of, dtype=np.int64)
    owner = geo._owners(g)
    at = (types[owner] == j) & (types[g.indices] == i)
    if not (np.bincount(owner[at], minlength=g.nelements)[types == j]
            == 2).all():
        return False
    ends = g.indices[at].astype(np.int64)
    code = np.sort(ends[0::2] * g.nelements + ends[1::2])
    return not (code[1:] == code[:-1]).any()


def check_B2(g, leaf):
    """e * x  iff  shadow_i(e) within shadow_i(x), for x off the leaf.

    Joining the incidences (x, p), p of type i, with the (p, e), e of
    type j, meets each e |shadow_i(e) cap shadow_i(x)| times, so the e
    under x are those met |shadow_i(e)| times, plus every e with an
    empty shadow.  The pairs (x, e) are counted as the codes x * m + e,
    sorted; the incident pairs with a non-empty shadow must be exactly
    the first, and every e with an empty shadow incident to every x.
    """
    _check_leaf(g, leaf)
    i, j = leaf
    m = g.nelements
    types = np.asarray(g.type_of, dtype=np.int64)
    owner = geo._owners(g)
    ty = types[g.indices]
    off = (types != i) & (types != j)
    # each i-element's j-elements, a sub-CSR in the rows' order
    pe = (types[owner] == i) & (ty == j)
    size = np.bincount(owner[pe], minlength=m)
    edges = g.indices[pe]
    shadow = np.bincount(edges, minlength=m)  # |shadow_i(e)|
    xp = off[owner] & (ty == i)
    x = owner[xp].astype(np.int64)
    which, pos = geo._expand(np.cumsum(size) - size, size, g.indices[xp])
    code = np.sort(x[which] * m + edges[pos])
    first = np.flatnonzero(np.diff(code, prepend=-1) != 0)
    met = np.diff(np.append(first, len(code)))
    code = code[first]
    under = code[met == shadow[code % m]]
    xe = off[owner] & (ty == j)
    incident = owner[xe] * np.int64(m) + g.indices[xe]
    free = (types == j) & (shadow == 0)
    return np.array_equal(under, incident[shadow[g.indices[xe]] > 0]) \
        and bool((np.bincount(g.indices[xe], minlength=m)[free]
                  == np.count_nonzero(off)).all())


def _leaf_preconditions(g, leaf):
    if not geo.is_residually_connected(g):
        raise PreconditionFailed("NotRC")
    if not check_B1(g, leaf):
        raise PreconditionFailed("B1")
    if not check_B2(g, leaf):
        raise PreconditionFailed("B2")


class ConstructionData:
    """Per-element provenance of a constructed geometry."""

    def __init__(self, kind, leaf, bases, tags, class_sets, index):
        self.kind = kind
        self.leaf = leaf
        self.bases = bases
        self.tags = tags
        self.class_sets = class_sets
        self.index = index


def _attach(g, data):
    g.construction = data
    return g


def p_construction(g, leaf, force=False):
    """Partitioned geometry for a non-bipartite {i,j}-truncation.

    Leaf elements become (p,0) and (p,1) over all i-elements p; every
    other element x becomes (x,P) for each parity class P of its
    residue graph.  Incidence: fibers of adjacent vertices; (p,0)
    with (x,P) when p in P; (q,1) with (x,P) when q in P-bar; class
    elements of incident bases when their classes intersect.
    """
    _check_leaf(g, leaf)
    if not force:
        _leaf_preconditions(g, leaf)
    adj, _ = truncation_graph(g, leaf)
    if not force and parity_classes(adj).bipartite:
        raise PreconditionFailed("Bipartite")
    return _p_build(g, leaf, adj)


def _p_build(g, leaf, adj):
    i, j = leaf
    verts = g.elements_of_type(i)

    bases = []
    tags = []
    types = []
    class_sets = []
    index = {}

    def add(base, tag, t, cset):
        index[(base, tag)] = len(bases)
        bases.append(base)
        tags.append(tag)
        types.append(t)
        class_sets.append(cset)

    parities = {}
    for t in range(g.rank):
        if t == i:
            for p in verts:
                add(p, 0, i, None)
        elif t == j:
            for p in verts:
                add(p, 1, j, None)
        else:
            for x in g.elements_of_type(t):
                pp = parity_classes(truncation_graph(g, leaf, (x,))[0])
                parities[x] = pp
                for ci, P in enumerate(pp.classes):
                    add(x, ("class", ci), t, P)

    pairs = []
    for p in verts:
        for q in adj[p]:
            if p < q:
                pairs.append((index[(p, 0)], index[(q, 1)]))
                pairs.append((index[(q, 0)], index[(p, 1)]))
    for x, pp in parities.items():
        for ci, P in enumerate(pp.classes):
            xe = index[(x, ("class", ci))]
            pbar = pp.complement(P)
            for p in geo.shadow(g, x, i):
                if p in P:
                    pairs.append((index[(p, 0)], xe))
                if p in pbar:
                    pairs.append((index[(p, 1)], xe))
        for y in g.adj[x]:
            if g.type_of[y] in (i, j) or y <= x:
                continue
            qq = parities[y]
            for ci, P in enumerate(pp.classes):
                for cj, Q in enumerate(qq.classes):
                    if P & Q:
                        pairs.append((index[(x, ("class", ci))],
                                      index[(y, ("class", cj))]))

    labels = list(zip(bases, tags))
    prov = {"construction": "P", "leaf": [i, j],
            "elements": [[b, t if isinstance(t, int) else list(t)]
                         for b, t in labels]}
    out = geo.build_geometry(g.rank, types, pairs, labels=labels,
                             provenance=prov)
    return _attach(out, ConstructionData("P", (i, j), bases, tags,
                                         class_sets, index))


def bp_construction(g, leaf, force=False):
    """Bipartite construction: the two sides of the {i,j}-truncation
    replace the leaf elements; everything else is untouched."""
    _check_leaf(g, leaf)
    if not force:
        _leaf_preconditions(g, leaf)
    adj, _ = truncation_graph(g, leaf)
    return _bp_build(g, leaf, adj, parity_classes(adj))


def _bp_build(g, leaf, adj, pp):
    if not pp.bipartite:
        raise PreconditionFailed("Bipartite")
    i, j = leaf
    side0, side1 = pp.classes

    bases = []
    tags = []
    types = []
    index = {}

    def add(base, tag, t):
        index[(base, tag)] = len(bases)
        bases.append(base)
        tags.append(tag)
        types.append(t)

    for t in range(g.rank):
        if t == i:
            for v in sorted(side0):
                add(v, 0, i)
        elif t == j:
            for v in sorted(side1):
                add(v, 1, j)
        else:
            for x in g.elements_of_type(t):
                add(x, None, t)

    pairs = []
    for v in sorted(side0):
        for w in adj[v]:
            pairs.append((index[(v, 0)], index[(w, 1)]))
    for x in range(g.nelements):
        t = g.type_of[x]
        if t == i:
            key = (x, 0) if x in side0 else (x, 1)
        elif t == j:
            continue
        else:
            key = (x, None)
        for y in g.adj[x]:
            ty = g.type_of[y]
            if ty in (i, j):
                continue
            if t == i or t < ty:
                pairs.append((index[key], index[(y, None)]))

    labels = list(zip(bases, tags))
    prov = {"construction": "BP", "leaf": [i, j],
            "elements": [[b, t] for b, t in labels]}
    out = geo.build_geometry(g.rank, types, pairs, labels=labels,
                             provenance=prov)
    return _attach(out, ConstructionData("BP", (i, j), bases, tags,
                                         [None] * len(bases), index))


def halving_geometry(g, leaf, force=False):
    """P or BP construction, by bipartiteness of the truncation, which
    is built once and handed to the branch."""
    _check_leaf(g, leaf)
    if not force:
        _leaf_preconditions(g, leaf)
    adj, _ = truncation_graph(g, leaf)
    pp = parity_classes(adj)
    if pp.bipartite:
        return _bp_build(g, leaf, adj, pp)
    return _p_build(g, leaf, adj)


def duality_correlation(h):
    """The involution (p,0)<->(p,1), (x,P)->(x,P-bar) of a
    P-constructed geometry; swaps the leaf types."""
    data = getattr(h, "construction", None)
    if data is None or data.kind != "P":
        raise NotPConstructed("input was not built by p_construction")
    perm = [None] * h.nelements
    for e in range(h.nelements):
        base = data.bases[e]
        tag = data.tags[e]
        if tag == 0:
            perm[e] = data.index[(base, 1)]
        elif tag == 1:
            perm[e] = data.index[(base, 0)]
        else:
            ci = tag[1]
            other = (base, ("class", 1 - ci))
            perm[e] = data.index[other] if other in data.index else e
    return perm


def transfer_action(h, base_action):
    """Push an action on the base geometry to a P-constructed one.

    base_action: PermGroup on the base geometry's element ids.  Each
    permutation sends (p,fiber) to (sigma p, fiber) and (x,P) to
    (sigma x, sigma P).
    """
    data = getattr(h, "construction", None)
    if data is None or data.kind != "P":
        raise NotPConstructed("input was not built by p_construction")
    out = []
    for sigma in base_action.gens:
        perm = [None] * h.nelements
        for e in range(h.nelements):
            base = data.bases[e]
            tag = data.tags[e]
            nb = int(sigma[base])
            if tag in (0, 1):
                perm[e] = data.index[(nb, tag)]
            else:
                img = frozenset(int(sigma[v]) for v in data.class_sets[e])
                for ci in (0, 1):
                    key = (nb, ("class", ci))
                    if key in data.index and \
                            data.class_sets[data.index[key]] == img:
                        perm[e] = data.index[key]
                        break
                if perm[e] is None:
                    raise NotAnAction("class image is not a class")
        out.append(perm)
    return PermGroup(h.nelements, out)


def b1b2_propagation(g, leaf, next_leaf, force=False):
    """Residue-bipartiteness criterion for (B1),(B2) at the next leaf
    of the constructed geometry: for incident x (type k), y (type l),
    the residue truncation at x is bipartite or both residue
    truncations are non-bipartite."""
    _check_leaf(g, leaf)
    _check_leaf(g, next_leaf)
    i, j = leaf
    k, l = next_leaf
    if not force:
        for pair in (leaf, next_leaf):
            if not check_B1(g, pair):
                raise PreconditionFailed("B1 at %r" % (pair,))
            if not check_B2(g, pair):
                raise PreconditionFailed("B2 at %r" % (pair,))
    if k in (i, j) or l in (i, j):
        return True
    bip = {}

    def bipartite_at(x):
        if x not in bip:
            bip[x] = parity_classes(
                truncation_graph(g, leaf, (x,))[0]).bipartite
        return bip[x]

    for x in g.elements_of_type(k):
        for y in g.adj[x]:
            if g.type_of[y] != l:
                continue
            if bipartite_at(x):
                continue
            if bipartite_at(y):
                return False
    return True


def shortest_cycles(adj):
    """(shortest odd cycle length, shortest even cycle length) of a
    graph given as an adjacency mapping; None when absent.

    Exhaustive path search anchored at each cycle's smallest vertex;
    meant for the small graphs the gonality law is stated over.
    """
    verts = sorted(adj)
    best = {0: None, 1: None}

    def walk(start, path, seen):
        v = path[-1]
        for w in adj[v]:
            if w == start and len(path) >= 3:
                par = len(path) % 2
                if best[par] is None or len(path) < best[par]:
                    best[par] = len(path)
            elif w not in seen and w > start:
                bound = max(x for x in best.values() if x is not None) \
                    if all(x is not None for x in best.values()) else None
                if bound is not None and len(path) + 1 >= bound:
                    continue
                seen.add(w)
                path.append(w)
                walk(start, path, seen)
                path.pop()
                seen.remove(w)

    for v in verts:
        walk(v, [v], {v})
    return best[1], best[0]


def gonality_formula(graph):
    """Predicted gonality of the partitioned neighborhood geometry.

    g even: g/2.  g odd: g when no even cycle is shorter than 2g,
    else half the shortest even cycle length.  None when acyclic.
    """
    verts, adj = _as_graph(graph)
    odd, even = shortest_cycles(adj)
    if odd is None and even is None:
        return None
    if odd is None:
        return even // 2
    g = min(odd, even) if even is not None else odd
    if g % 2 == 0:
        return g // 2
    if even is not None and even < 2 * g:
        return even // 2
    return g
