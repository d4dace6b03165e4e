"""Halving constructions on incidence geometries.

A leaf pair (i,j) of types plays the (vertex, edge) roles.  The
vertex-edge graph of some elements has their i-elements as vertices,
and a j-element among them is an edge when exactly two of its
i-elements are vertices.  _graphs builds many on the incidence CSR in
one call: the whole geometry's (the {i,j}-truncation), or one per x
off the leaf on the elements incident to x.  check_B1 and check_B2
read them; truncation_graph and parity_classes give one graph as the
adjacency mapping that partitioned_neighborhood and gonality_formula
take.

Parities come from the bipartite double cover: vertex v lifts to
(v,0) and (v,1), edge ab to (a,0)-(b,1) and (a,1)-(b,0), and one
edge_labels call labels the covers of all the graphs.  A graph is
bipartite when the lifts of its least vertex lie in different
components, and connected when its lifts form one component more
than that.  Class 0 is the side of the least vertex; a one-vertex
graph is bipartite with an empty second class.

H(Gamma) follows one of two rules, by the parity of the truncation:
- P, not bipartite: fibres (p,0) of type i and (p,1) of type j over
  every i-element p, and (x,C) for each parity class C of the graph
  of each x off the leaf.  (p,0)-(q,1) and (q,0)-(p,1) for adjacent
  p, q; (p,0)-(x,C) when p is in C, (p,1)-(x,C) when p is in its
  complement (C itself when it is the only class); (x,C)-(y,D) when
  x * y and C meets D.
- BP, bipartite (Percsy, Percsy and Leemans 2000): drop the
  j-elements, retype the vertices of side 1 as j and join the
  vertices adjacent in the truncation.  Under the preconditions this
  is the component of the P rule holding (least vertex, 0); on inputs
  that fail them (force) the two differ, so BP keeps its own rule.
One assembly numbers the elements of both by (type, base, class) and
writes their labels, provenance and ConstructionData.
"""

import collections

import numpy as np

from .errors import (
    Disconnected, NotAClass, PreconditionFailed, NotPConstructed,
    InvalidParams, NotAnAction,
)
from . import geometry as geo
from .perms import PermGroup, edge_labels, label_pairs


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


def _parities(vrow, ngraphs, a, b):
    """Parity classes of many graphs at once, on their double cover.

    Vertex k lies in graph vrow[k], vrow sorted and each graph's least
    vertex first; the edges join the vertices a and b.  Returns (side,
    bip, fault): side[k] is 1 when k is not on the side of its graph's
    least vertex, and per graph bip is its bipartiteness and fault 1
    when it is empty, 2 when it is not connected, else 0.
    """
    n = len(vrow)
    lab, _ = edge_labels(np.concatenate([a, a + n]),
                         np.concatenate([b + n, b]), 2 * n)
    size = np.bincount(vrow, minlength=ngraphs)
    least = np.cumsum(size) - size
    full = size > 0
    bip = np.zeros(ngraphs, dtype=bool)
    bip[full] = lab[least[full]] != lab[least[full] + n]
    side = (lab[:n] != lab[least[vrow]]).astype(np.int64)
    parts = np.bincount(label_pairs(np.tile(vrow, 2), lab)[0],
                        minlength=ngraphs)
    return side, bip, np.where(full, 2 * (parts != 1 + bip), 1)


def _raise_first(fault):
    """Disconnected for the first faulty graph, as parity_classes."""
    bad = fault[fault > 0]
    if bad.size:
        raise Disconnected(("empty graph", "graph is not connected")
                           [bad[0] - 1])


def parity_classes(graph):
    verts, adj = _as_graph(graph)
    at = {v: k for k, v in enumerate(verts)}
    ab = np.array([(k, at[w]) for k, v in enumerate(verts) for w in adj[v]],
                  dtype=np.int64).reshape(-1, 2)
    side, bip, fault = _parities(np.zeros(len(verts), dtype=np.int64), 1,
                                 *ab.T)
    _raise_first(fault)
    if not bip[0]:
        return ParityPartition([verts], False)
    return ParityPartition([[v for v, s in zip(verts, side.tolist())
                             if s == c] for c in (0, 1)], True)


def partitioned_neighborhood(graph, P):
    """Rank-2 geometry: points P x {0}, lines P-bar x {1}, incidence
    is graph adjacency."""
    _, adj = _as_graph(graph)
    P = frozenset(P)
    pbar = parity_classes(graph).complement(P)
    labels = [(p, 0) for p in sorted(P)] + [(q, 1) for q in sorted(pbar)]
    index = {label: e for e, label in enumerate(labels)}
    pairs = [(index[(p, 0)], index[(q, 1)])
             for p in sorted(P) for q in adj[p] if q in pbar]
    return geo.build_geometry(2, [t for _, t in labels], pairs,
                              labels=labels)


# vertex-edge graphs: vertex k is vert[k] in graph vrow[k], sorted by
# (vrow, vert).  The vertices of each j-element e of graph r, met
# through the i-elements, give the sorted codes r * m + e, one per
# vertex; cand holds the code of every j-element of every graph,
# sorted, whose vertices are the k in ends[lo:hi], increasing.
_Graphs = collections.namedtuple("_Graphs", "vrow vert cand lo hi ends code")


def _graphs(g, leaf, row=None, elem=None):
    """The vertex-edge graphs at the leaf (i,j) of the element sets
    {elem[k] : row[k] == r}, the pairs sorted by (row, elem); by
    default graph 0, the whole geometry's."""
    i, j = leaf
    m = g.nelements
    if elem is None:
        row, elem = np.zeros(m, dtype=np.int64), np.arange(m)
    types = np.asarray(g.type_of, dtype=np.int64)
    ty = types[elem]
    vrow, vert = row[ty == i], elem[ty == i]
    at = (ty == j) & (ty != i)
    cand = row[at] * m + elem[at]
    owner = geo._owners(g)
    pe = (types[owner] == i) & (types[g.indices] == j)
    size = np.bincount(owner[pe], minlength=m)
    k, pos = geo._expand(np.cumsum(size) - size, size, vert)
    code = vrow[k] * m + g.indices[pe][pos]
    order = np.argsort(code, kind="stable")
    code = code[order]
    return _Graphs(vrow, vert, cand, np.searchsorted(code, cand),
                   np.searchsorted(code, cand, "right"),
                   k[order].astype(np.int64), code)


def _edges(gr):
    """The edges of the graphs gr as vertex indices (a, b), a < b."""
    lo = gr.lo[gr.hi - gr.lo == 2]
    return gr.ends[lo], gr.ends[lo + 1]


def _residues(g, leaf):
    """The vertex-edge graph of each element x off the leaf, on the
    elements incident to x, as graph x."""
    owner = geo._owners(g).astype(np.int64)
    keep = ~np.isin(g.type_of, leaf)[owner]
    return _graphs(g, leaf, owner[keep], g.indices[keep].astype(np.int64))


def truncation_graph(g, leaf, flag=()):
    """The {i,j}-truncation of the residue of flag (the whole geometry
    for the empty flag) seen as a graph on its i-elements, plus each
    j-element's endpoint tuple.  Elements keep their ids in g."""
    elem = np.array(geo.flag_candidates(g, flag), dtype=np.int64)
    gr = _graphs(g, leaf, np.zeros(len(elem), dtype=np.int64), elem)
    ends = gr.vert[gr.ends].tolist()
    endpoints = {e: tuple(ends[a:b]) for e, a, b in zip(
        gr.cand.tolist(), gr.lo.tolist(), gr.hi.tolist())}
    adj = {v: set() for v in gr.vert.tolist()}
    for a, b in (pair for pair in endpoints.values() if len(pair) == 2):
        adj[a].add(b)
        adj[b].add(a)
    return {v: tuple(sorted(a)) for v, a in adj.items()}, endpoints


def _check_leaf(g, leaf):
    """A leaf (i,j) names two distinct types of g; else InvalidParams."""
    i, j = leaf
    if i == j or not (0 <= i < g.rank and 0 <= j < g.rank):
        raise InvalidParams("leaf (%r,%r) must be two distinct types in"
                            " 0..%d" % (i, j, g.rank - 1))


def check_B1(g, leaf):
    """Every j-element has exactly two i-elements, no repeated pairs:
    all are edges of the truncation, no two joining the same ends."""
    _check_leaf(g, leaf)
    return _b1(_graphs(g, leaf))


def _b1(gr):
    """check_B1 on the truncation gr."""
    a, b = _edges(gr)
    return len(label_pairs(a, b)[0]) == len(a) == len(gr.cand)


def check_B2(g, leaf):
    """e * x  iff  shadow_i(e) within shadow_i(x), for x off the leaf.

    The residue graph of x meets each j-element e |shadow_i(e) cap
    shadow_i(x)| times, so the e under x are those met |shadow_i(e)|
    times, plus every e with an empty shadow.  The codes x * m + e of
    the first must be exactly those of the j-elements of x with a
    non-empty shadow, and every e with an empty shadow must be
    incident to every x.
    """
    _check_leaf(g, leaf)
    return _b2(g, leaf, _residues(g, leaf))


def _b2(g, leaf, res):
    """check_B2 on the residue graphs res."""
    i, j = leaf
    m = g.nelements
    types = np.asarray(g.type_of, dtype=np.int64)
    owner = geo._owners(g)
    at = (types[owner] == i) & (types[g.indices] == j)
    shadow = np.bincount(g.indices[at], minlength=m)  # |shadow_i(e)|
    first = np.flatnonzero(np.diff(res.code, prepend=-1) != 0)
    met = np.diff(np.append(first, len(res.code)))
    code = res.code[first]
    free = (types == j) & (shadow == 0)
    return np.array_equal(code[met == shadow[code % m]],
                          res.cand[shadow[res.cand % m] > 0]) \
        and bool((np.bincount(res.cand % m, minlength=m)[free]
                  == np.count_nonzero(~np.isin(g.type_of, leaf))).all())


class ConstructionData:
    """Per-element provenance of a constructed geometry."""

    def __init__(self, kind, leaf, bases, tags, class_sets, index):
        self.kind = kind
        self.leaf = leaf
        self.bases = bases
        self.tags = tags
        self.class_sets = class_sets
        self.index = index


def p_construction(g, leaf, force=False):
    """Partitioned geometry for a non-bipartite {i,j}-truncation, by
    the P rule of the module docstring."""
    return _halve(g, leaf, force, "P")


def bp_construction(g, leaf, force=False):
    """Bipartite construction: the two sides of the {i,j}-truncation
    replace the leaf elements; everything else is untouched."""
    return _halve(g, leaf, force, "BP")


def halving_geometry(g, leaf, force=False):
    """P or BP construction, by bipartiteness of the truncation."""
    return _halve(g, leaf, force, None)


def _halve(g, leaf, force, rule):
    """The leaf check, the preconditions unless force, then the rule
    "P", "BP" or None, the one the parity of the truncation names.  The
    parity is read unless P is forced; a rule it contradicts raises.
    Preconditions and rule share one build of each graph they read."""
    _check_leaf(g, leaf)
    gr = _graphs(g, leaf)
    res = None if force else _residues(g, leaf)
    if not force:
        if not geo.is_residually_connected(g):
            raise PreconditionFailed("NotRC")
        if not _b1(gr):
            raise PreconditionFailed("B1")
        if not _b2(g, leaf, res):
            raise PreconditionFailed("B2")
    if rule != "P" or not force:
        side, bip, fault = _parities(gr.vrow, 1, *_edges(gr))
        _raise_first(fault)
        if rule == ("P" if bip[0] else "BP"):
            raise PreconditionFailed("Bipartite")
        rule = "BP" if bip[0] else "P"
    return _bp_rule(g, leaf, gr, side) if rule == "BP" else _p_rule(
        g, leaf, gr, _residues(g, leaf) if res is None else res)


def _p_rule(g, leaf, gr, res):
    """H(Gamma) by the P rule on the truncation gr and the residue
    graphs res.  Locally, the fibre (p,f) is f * n + k for p =
    gr.vert[k], and the classes of the elements x off the leaf follow;
    the first of those in (type, id) order whose graph is empty or not
    connected raises."""
    i, j = leaf
    m = g.nelements
    n = len(gr.vert)
    types = np.asarray(g.type_of, dtype=np.int64)
    side, bip, fault = _parities(res.vrow, m, *_edges(res))
    off = ~np.isin(g.type_of, leaf)
    xs = np.flatnonzero(off)
    _raise_first(fault[xs[np.argsort(types[xs], kind="stable")]])
    count = 1 + bip[xs]
    first = np.zeros(m, dtype=np.int64)  # the local index of (x, class 0)
    first[xs] = 2 * n + np.cumsum(count) - count
    cls = first[res.vrow] + side  # each vertex's class in its graph
    # (x,C)-(y,D): each vertex k of x's graph, for x < y off the leaf
    # and x * y, met as vertex l of y's graph
    owner = geo._owners(g).astype(np.int64)
    at = off[owner] & off[g.indices] & (owner < g.indices)
    size = np.bincount(res.vrow, minlength=m)
    xy, k = geo._expand(np.cumsum(size) - size, size, owner[at])
    code = g.indices[at].astype(np.int64)[xy] * m + res.vert[k]
    vcode = res.vrow * m + res.vert
    l = np.searchsorted(vcode, code)
    met = vcode[np.minimum(l, len(vcode) - 1)] == code
    k, l = k[met], l[met]
    fibre = np.searchsorted(gr.vert, res.vert)
    a, b = _edges(gr)
    total = 2 * n + int(count.sum())
    order = np.argsort(cls, kind="stable")
    bounds = np.searchsorted(cls[order], np.arange(2 * n, total + 1))
    members, bounds = res.vert[order].tolist(), bounds.tolist()
    return _assemble(
        g, "P", leaf,
        np.concatenate([np.full(n, i), np.full(n, j),
                        np.repeat(types[xs], count)]),
        np.concatenate([gr.vert, gr.vert, np.repeat(xs, count)]),
        np.arange(total) - np.concatenate(
            [np.arange(2 * n), np.repeat(first[xs], count)]),
        [(a, b + n), (b, a + n), (fibre, cls),
         (fibre + n, first[res.vrow] + (1 - side) * bip[res.vrow]),
         (cls[k], cls[l])],
        [None] * (2 * n) + [frozenset(members[s:e])
                            for s, e in zip(bounds, bounds[1:])])


def _bp_rule(g, leaf, gr, side):
    """H(Gamma) by the BP rule on the truncation gr, with its sides;
    locally, the element e of g is local[e]."""
    j = leaf[1]
    types = np.asarray(g.type_of, dtype=np.int64)
    kept = types != j
    local = np.cumsum(kept) - 1
    retyped = types.copy()
    retyped[gr.vert[side == 1]] = j
    owner = geo._owners(g)
    inc = kept[owner] & kept[g.indices]
    a, b = _edges(gr)
    keep = np.flatnonzero(kept)
    return _assemble(g, "BP", leaf, retyped[keep], keep,
                     np.zeros(len(keep), dtype=np.int64),
                     [(local[gr.vert[a]], local[gr.vert[b]]),
                      (local[owner[inc]], local[g.indices[inc]])],
                     [None] * len(keep))


def _assemble(g, kind, leaf, types, bases, cls, pairs, class_sets):
    """H(Gamma) from its elements, as arrays of (type, base, class) in
    a local order, and its incidences, as pairs of arrays of local
    indices.  The elements are numbered by (type, base, class) and
    labelled (base, tag): tag 0 on type i and 1 on type j, else
    ("class", class) for P and None for BP."""
    i, j = leaf
    order = np.lexsort((cls, bases, types))
    new = np.empty_like(order)
    new[order] = np.arange(len(order))
    ends = [new[np.concatenate(side)] for side in zip(*pairs)]
    types, bases, cls = (a[order].tolist() for a in (types, bases, cls))
    tags = [0 if t == i else 1 if t == j else ("class", c)
            if kind == "P" else None for t, c in zip(types, cls)]
    labels = list(zip(bases, tags))
    prov = {"construction": kind, "leaf": [i, j],
            "elements": [[b, list(t) if isinstance(t, tuple) else t]
                         for b, t in labels]}
    out = geo.build_geometry(g.rank, types, np.stack(ends, axis=1),
                             labels=labels, provenance=prov)
    out.construction = ConstructionData(
        kind, (i, j), bases, tags, [class_sets[e] for e in order.tolist()],
        {label: e for e, label in enumerate(labels)})
    return out


def duality_correlation(h):
    """The involution (p,0)<->(p,1), (x,P)->(x,P-bar) of a
    P-constructed geometry; swaps the leaf types."""
    data = getattr(h, "construction", None)
    if data is None or data.kind != "P":
        raise NotPConstructed("input was not built by p_construction")
    perm = []
    for e, (base, tag) in enumerate(zip(data.bases, data.tags)):
        if tag in (0, 1):
            perm.append(data.index[(base, 1 - tag)])
        else:
            perm.append(data.index.get((base, ("class", 1 - tag[1])), e))
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
    k, l = next_leaf
    if not force:
        for pair in (leaf, next_leaf):
            if not check_B1(g, pair):
                raise PreconditionFailed("B1 at %r" % (pair,))
            if not check_B2(g, pair):
                raise PreconditionFailed("B2 at %r" % (pair,))
    if k in leaf or l in leaf:
        return True
    res = _residues(g, leaf)
    _, bip, fault = _parities(res.vrow, g.nelements, *_edges(res))

    def bipartite_at(x):
        _raise_first(fault[x:x + 1])
        return bip[x]

    for x in g.elements_of_type(k):
        ys = [y for y in g.indices[g.indptr[x]:g.indptr[x + 1]].tolist()
              if g.type_of[y] == l]
        if ys and not bipartite_at(x) and any(map(bipartite_at, ys)):
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
