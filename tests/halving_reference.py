"""Dict-and-set halving builders, the reference for constructions.

The P and BP builders as constructions.py wrote them before it built
H(Gamma) on the incidence arrays: the vertex-edge graph as an
adjacency dict read off the adj tuple view, a depth-first colouring
per residue, and one Python loop per incidence rule.  The builders
and b1b2_propagation take force=True semantics (no preconditions; the
builders check the leaf); tests/test_constructions.py compares them
with the package.
"""

from hyperforge import geometry as geo
from hyperforge.constructions import (
    ConstructionData, ParityPartition, _check_leaf,
)
from hyperforge.errors import Disconnected, PreconditionFailed


def truncation_graph(g, leaf, flag=()):
    """The {i,j}-truncation of the residue of flag as an adjacency
    dict on its i-elements, plus each j-element's endpoint tuple."""
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


def parity(adj):
    """Depth-first two-colouring from the least vertex."""
    verts = tuple(sorted(adj))
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
    return ParityPartition([side0, frozenset(verts) - side0], True)


def _attach(g, data):
    g.construction = data
    return g


def p_build(g, leaf, adj):
    i, j = leaf
    verts = g.elements_of_type(i)
    bases, tags, types, class_sets, index = [], [], [], [], {}

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
                pp = parity(truncation_graph(g, leaf, (x,))[0])
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


def bp_build(g, leaf, adj, pp):
    if not pp.bipartite:
        raise PreconditionFailed("Bipartite")
    i, j = leaf
    side0, side1 = pp.classes
    bases, tags, types, index = [], [], [], {}

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


def p_construction(g, leaf):
    _check_leaf(g, leaf)
    return p_build(g, leaf, truncation_graph(g, leaf)[0])


def bp_construction(g, leaf):
    _check_leaf(g, leaf)
    adj, _ = truncation_graph(g, leaf)
    return bp_build(g, leaf, adj, parity(adj))


def halving_geometry(g, leaf):
    _check_leaf(g, leaf)
    adj, _ = truncation_graph(g, leaf)
    pp = parity(adj)
    if pp.bipartite:
        return bp_build(g, leaf, adj, pp)
    return p_build(g, leaf, adj)


def b1b2_propagation(g, leaf, next_leaf):
    """The residue-bipartiteness criterion with one dict graph and one
    colouring per residue, met lazily (force=True)."""
    k, l = next_leaf
    if k in leaf or l in leaf:
        return True
    bip = {}

    def bipartite_at(x):
        if x not in bip:
            bip[x] = parity(truncation_graph(g, leaf, (x,))[0]).bipartite
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
