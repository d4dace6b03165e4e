"""Finite typed incidence systems and their structural queries.

Elements are dense integers 0..m-1, each with a type in 0..rank-1.
Incidence is a symmetric irreflexive relation joining elements of
distinct types only.  A flag is a set of pairwise incident elements,
a chamber a flag meeting every type.

Every chamber query, iso.is_flag_transitive included, reads one flag
scan per geometry (_scan_geometry), memoised on the instance.  The
scan keeps the chambers, one row per chamber whose column t is its
type-t element.  Two chambers are i-adjacent when they agree outside
type i; sigma_i cycles each class of i-adjacent chambers.

Residual connectedness is decided on this chamber system.  For a
flag F of cotype J, let Ch(F) be the chambers containing F.  When
|J| >= 2, the residue of F is connected if Ch(F) is connected under
<sigma_i : i in J>: i-adjacent chambers of Ch(F) share an element of
the residue.  Conversely, if every residue of rank >= 2 is connected,
every Ch(F) is connected, by induction on |J| along a path x_0 ~ ...
~ x_m of the residue: consecutive x_k, x_k+1 lie in one chamber, which
joins Ch(F + x_k) to Ch(F + x_k+1).  In a geometry every flag lies in
a chamber, so the flags of cotype J are the distinct rows of the
chambers restricted to the types outside J, and each orbit of
<sigma_i : i in J> lies in one of them.  Hence the geometry is
residually connected exactly when, for every J with |J| >= 2, the
orbits and the rows number the same (Buekenhout-Cohen, "Diagram
Geometry", 2013, on chamber systems).
"""

import collections
import itertools
import json
import logging
import math
import time

import numpy as np

from .errors import (
    SelfIncidence, SameTypeIncidence, UnknownElement, NotAFlag,
    NotAGeometry, SizeLimitExceeded, InvalidParams,
)
from .perms import orbit_labels

log = logging.getLogger("hyperforge")

# the flags one scan may visit, empty flag included
MAX_FLAGS = 10 ** 6


class IncidenceGeometry:
    """Immutable incidence system.

    type_of[e] is the type of element e; adj[e] a sorted tuple of the
    elements incident to e.  labels, when present, carries one
    caller-meaningful name per element (construction provenance).
    """

    def __init__(self, rank, type_of, adj, labels=None, provenance=None):
        self.rank = rank
        self.type_of = tuple(type_of)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.adjsets = tuple(frozenset(a) for a in self.adj)
        self.nelements = len(self.type_of)
        self.labels = tuple(labels) if labels is not None else None
        self.provenance = provenance

    def elements_of_type(self, i):
        return [e for e in range(self.nelements) if self.type_of[e] == i]

    def type_counts(self):
        counts = [0] * self.rank
        for t in self.type_of:
            counts[t] += 1
        return tuple(counts)

    def incident(self, x, y):
        return y in self.adjsets[x]

    def incidence_pairs(self):
        return [(x, y) for x in range(self.nelements)
                for y in self.adj[x] if x < y]

    def __eq__(self, other):
        if not isinstance(other, IncidenceGeometry):
            return NotImplemented
        return (self.rank == other.rank and self.type_of == other.type_of
                and self.adj == other.adj)

    def __repr__(self):
        return "IncidenceGeometry(rank=%d, counts=%s)" % (
            self.rank, self.type_counts())


def build_geometry(rank, types, pairs, labels=None, provenance=None):
    """Validate raw data and assemble a geometry.

    types: iterable of per-element type indices (element ids are the
    positions).  pairs: iterable of (x, y) incidences, symmetrized.
    """
    types = list(types)
    m = len(types)
    for t in types:
        if not (0 <= t < rank):
            raise UnknownElement("type %r out of range" % (t,))
    adj = [set() for _ in range(m)]
    for x, y in pairs:
        if not (0 <= x < m) or not (0 <= y < m):
            raise UnknownElement("incidence (%r,%r)" % (x, y))
        if x == y:
            raise SelfIncidence("element %d incident to itself" % x)
        if types[x] == types[y]:
            raise SameTypeIncidence("elements %d,%d share type %d"
                                    % (x, y, types[x]))
        adj[x].add(y)
        adj[y].add(x)
    return IncidenceGeometry(rank, types, adj, labels=labels,
                             provenance=provenance)


def _check_flag(g, f):
    f = sorted(set(f))
    seen_types = set()
    for x in f:
        if not (0 <= x < g.nelements):
            raise UnknownElement(str(x))
        t = g.type_of[x]
        if t in seen_types:
            raise NotAFlag("two elements of type %d" % t)
        seen_types.add(t)
    for a in f:
        for b in f:
            if a < b and not g.incident(a, b):
                raise NotAFlag("%d and %d not incident" % (a, b))
    return f


def flag_candidates(g, f):
    """Elements incident to every member of f (the residue's elements);
    all elements for the empty flag."""
    f = list(f)
    if not f:
        return frozenset(range(g.nelements))
    cand = g.adjsets[f[0]]
    for x in f[1:]:
        cand = cand & g.adjsets[x]
    return cand


def _restrict(g, keep, kept_types):
    """Sub-geometry on the sorted elements keep, whose types are the
    sorted list kept_types, re-indexed densely; original ids are kept
    in labels."""
    tmap = {t: i for i, t in enumerate(kept_types)}
    index = {e: i for i, e in enumerate(keep)}
    types = [tmap[g.type_of[e]] for e in keep]
    pairs = [(index[x], index[y]) for x in keep for y in g.adj[x]
             if y in index and x < y]
    labels = [g.labels[e] if g.labels is not None else e for e in keep]
    return build_geometry(len(kept_types), types, pairs, labels=labels)


def residue(g, f):
    """Sub-geometry on the elements incident to all of flag f.

    Types are re-indexed densely in increasing order of the cotype;
    original ids are kept in labels.
    """
    f = _check_flag(g, f)
    cotype = sorted(set(range(g.rank)) - {g.type_of[x] for x in f})
    return _restrict(g, sorted(flag_candidates(g, f)), cotype)


def truncation(g, J):
    """Restriction to the types in J, re-indexed densely."""
    J = sorted(set(J))
    for t in J:
        if not (0 <= t < g.rank):
            raise UnknownElement("type %r" % (t,))
    kept = set(J)
    return _restrict(g, [e for e in range(g.nelements)
                         if g.type_of[e] in kept], J)


def shadow(g, x, i):
    """The set of i-elements incident to x; own type gives {x}."""
    if not (0 <= x < g.nelements):
        raise UnknownElement(str(x))
    if g.type_of[x] == i:
        return {x}
    return {y for y in g.adj[x] if g.type_of[y] == i}


def _scan_flags(g, visit):
    """Depth-first walk over all flags (including the empty one).

    visit(flag_tuple, candidates) is called once per flag; candidates
    is the frozenset of elements incident to every flag member.
    Elements are added in increasing id order so each flag is seen once.
    Returns the number of flags visited.
    """
    count = 0
    all_elems = frozenset(range(g.nelements))
    stack = [((), all_elems)]
    while stack:
        flag, cand = stack.pop()
        count += 1
        if count > MAX_FLAGS:
            raise SizeLimitExceeded("more than %d flags" % MAX_FLAGS)
        visit(flag, cand)
        last = flag[-1] if flag else -1
        for c in sorted(cand, reverse=True):
            if c > last:
                stack.append((flag + (c,), cand & g.adjsets[c]))
    return count


def enumerate_chambers(g):
    """The chambers as sorted tuples of element ids, in increasing order."""
    return sorted(tuple(sorted(row))
                  for row in _scan_geometry(g).chambers.tolist())


# geometry: no type is empty and every maximal flag is a chamber;
# thin: every corank-1 flag extends in exactly two ways; chambers: an
# int64 array, row c holding chamber c's type-t element in column t
_Scan = collections.namedtuple("_Scan", "geometry thin chambers")


def _scan_geometry(g):
    """The one flag walk behind every chamber query, memoised on g
    (which is immutable)."""
    scan = getattr(g, "_scan", None)
    if scan is not None:
        return scan
    start = time.perf_counter()
    rank = g.rank
    chambers = []
    geometry = all(c > 0 for c in g.type_counts())
    thin = True

    def check(flag, cand):
        nonlocal geometry, thin
        if len(flag) == rank:
            chambers.append(flag)
        elif not cand:
            geometry = False
        elif len(flag) == rank - 1 and len(cand) != 2:
            thin = False

    nflags = _scan_flags(g, check)
    flat = np.array(chambers, dtype=np.int64).reshape(len(chambers), rank)
    rows = np.empty_like(flat)
    types = np.array(g.type_of, dtype=np.int64)
    np.put_along_axis(rows, types[flat], flat, axis=1)
    scan = _Scan(geometry, thin, rows)
    g._scan = scan
    log.debug("flag scan: %d flags, %d chambers, geometry %s, thin %s,"
              " %.3f s", nflags, len(rows), scan.geometry, scan.thin,
              time.perf_counter() - start)
    return scan


def _require_geometry(g):
    """The scan of g; NotAGeometry when g is not a geometry."""
    scan = _scan_geometry(g)
    if not scan.geometry:
        raise NotAGeometry("input is not a geometry")
    return scan


def is_geometry(g):
    """True when no type is empty and every maximal flag is a chamber."""
    return _scan_geometry(g).geometry


def is_connected(g):
    """Connectivity of the incidence graph."""
    if g.nelements <= 1:
        return True
    seen = {0}
    todo = [0]
    while todo:
        x = todo.pop()
        for y in g.adj[x]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == g.nelements


def _classes(chambers, cols):
    """Sort the chambers so that those agreeing on the columns cols
    are consecutive: (order, starts), starts[k] being the position in
    order where the k-th class begins."""
    n = len(chambers)
    base = int(chambers.max()) + 1 if chambers.size else 1
    # one int64 code per chamber, mixed radix over cols; renumbered
    # densely (codes < n) before a digit could overflow
    code = np.zeros(n, dtype=np.int64)
    bound = 1
    for t in cols:
        if bound > (1 << 62) // base:
            code = np.unique(code, return_inverse=True)[1]
            bound = n
        code = code * base + chambers[:, t]
        bound *= base
    order = np.argsort(code, kind="stable")
    code = code[order]
    new = np.ones(n, dtype=bool)
    new[1:] = code[1:] != code[:-1]
    return order, np.flatnonzero(new)


def _adjacency(chambers, i):
    """sigma_i: the permutation of the chambers that cycles each class
    of chambers agreeing outside type i."""
    n, rank = chambers.shape
    order, starts = _classes(chambers, [t for t in range(rank) if t != i])
    succ = np.arange(1, n + 1)
    succ[np.append(starts[1:], n) - 1] = starts
    sigma = np.empty(n, dtype=np.int64)
    sigma[order] = order[succ]
    return sigma


def is_residually_connected(g):
    """Every residue of rank >= 2 (corank >= 2 flags, incl. empty) is
    connected, decided on the chamber system (see the module
    docstring): for each cotype J with |J| >= 2, the orbits of
    <sigma_i : i in J> must number as many as the flags of cotype J."""
    chambers = _require_geometry(g).chambers
    start = time.perf_counter()
    n, rank = chambers.shape
    sigma = [_adjacency(chambers, i) for i in range(rank)]
    checked = 0
    for size in range(2, rank + 1):
        for J in itertools.combinations(range(rank), size):
            checked += 1
            _, norbits = orbit_labels([sigma[i] for i in J], n)
            _, starts = _classes(chambers,
                                 [t for t in range(rank) if t not in J])
            if norbits != len(starts):
                log.debug("residual connectedness: False at cotype %s,"
                          " %d cotypes checked, %.3f s", J, checked,
                          time.perf_counter() - start)
                return False
    log.debug("residual connectedness: True, %d cotypes checked, %.3f s",
              checked, time.perf_counter() - start)
    return True


def is_thin(g):
    """Every corank-1 flag extends in exactly two ways."""
    return _require_geometry(g).thin


def rank2_label(g, points, lines):
    """(gonality, point diameter, line diameter) of a rank-2 residue.

    Computed by BFS on the bipartite incidence graph; gonality is half
    the shortest circuit length, math.inf when the graph is acyclic.
    """
    nodes = sorted(points) + sorted(lines)
    if not points or not lines:
        return (math.inf, 0, 0)
    index = {e: i for i, e in enumerate(nodes)}
    nbrs = [[index[y] for y in g.adj[x] if y in index] for x in nodes]
    n = len(nodes)
    girth = math.inf
    dp = 0
    dl = 0
    npts = len(points)
    for src in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[src] = 0
        todo = [src]
        ecc = 0
        local_cycle = math.inf
        while todo:
            nxt = []
            for u in todo:
                for v in nbrs[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        ecc = max(ecc, dist[v])
                        nxt.append(v)
                    elif v != parent[u] and dist[v] >= dist[u]:
                        # non-tree edge closes a cycle through src
                        local_cycle = min(local_cycle,
                                          dist[u] + dist[v] + 1)
            todo = nxt
        girth = min(girth, local_cycle)
        if -1 in dist:
            ecc = math.inf
        if src < npts:
            dp = max(dp, ecc)
        else:
            dl = max(dl, ecc)
    g_val = math.inf if math.isinf(girth) else girth // 2
    return (g_val, dp, dl)


class BuekenhoutDiagram:
    """Per type-pair rank-2 residue labels.

    entries[(i,j)] with i<j is a sorted tuple of distinct
    ((g,d_P,d_L), multiplicity) observed over all residues of cotype
    {i,j}; a pair is uniform when one label occurs.
    """

    def __init__(self, rank, entries):
        self.rank = rank
        self.entries = entries

    def is_uniform(self, i, j):
        return len(self.entries[(min(i, j), max(i, j))]) == 1

    def label(self, i, j):
        ent = self.entries[(min(i, j), max(i, j))]
        if len(ent) != 1:
            raise NotAGeometry("non-uniform labels at pair (%d,%d)" % (i, j))
        return ent[0][0]

    def is_digon(self, i, j):
        return self.is_uniform(i, j) and self.label(i, j) == (2, 2, 2)

    def edge_labels(self):
        """Map (i,j) -> gonality for non-digon uniform pairs."""
        out = {}
        for pair in self.entries:
            if self.is_uniform(*pair) and not self.is_digon(*pair):
                out[pair] = self.label(*pair)[0]
        return out

    def shape(self):
        """(sorted node degrees, sorted edge gonalities) of the diagram."""
        return diagram_shape(self.rank, self.edge_labels())

    def __repr__(self):
        return "BuekenhoutDiagram(%r)" % (self.entries,)


def diagram_shape(rank, edges):
    """(sorted node degrees, sorted labels) of a diagram on rank nodes
    whose edges are the mapping (i, j) -> label."""
    deg = [0] * rank
    for (i, j) in edges:
        deg[i] += 1
        deg[j] += 1
    return (tuple(sorted(deg)), tuple(sorted(edges.values())))


def buekenhout_diagram(g):
    """Labels of every rank-2 residue, read off the chambers.  Those
    agreeing outside types i, j contain one flag F of cotype {i, j},
    and their columns i, j are the points and lines of F's residue: in
    a geometry, F + {p, l} is a chamber exactly when p and l are
    incident.  Residues with the same points and lines count once."""
    chambers = _require_geometry(g).chambers
    entries = {}
    for i, j in itertools.combinations(range(g.rank), 2):
        order, starts = _classes(chambers, [t for t in range(g.rank)
                                            if t not in (i, j)])
        residues = set()
        for block in np.split(chambers[order], starts[1:]):
            residues.add((frozenset(block[:, i].tolist()),
                          frozenset(block[:, j].tolist())))
        labels = collections.Counter(rank2_label(g, points, lines)
                                     for points, lines in residues)
        entries[(i, j)] = tuple(sorted(labels.items()))
    return BuekenhoutDiagram(g.rank, entries)


def preserves_incidence(ga, gb, element_map, type_map):
    """True when element_map is a bijection from ga's elements onto
    gb's that sends type t to type_map[t] and the incidences of each
    element onto those of its image."""
    if sorted(element_map) != list(range(gb.nelements)):
        return False
    for e in range(ga.nelements):
        f = element_map[e]
        if type_map[ga.type_of[e]] != gb.type_of[f]:
            return False
        if sorted(element_map[y] for y in ga.adj[e]) != list(gb.adj[f]):
            return False
    return True


def relabel_types(g, tmap):
    """New geometry with type t renamed to tmap[t] (a permutation of types)."""
    types = [tmap[t] for t in g.type_of]
    pairs = g.incidence_pairs()
    return build_geometry(g.rank, types, pairs, labels=g.labels)


def to_json(g):
    data = {
        "rank": g.rank,
        "elements": [{"id": e, "type": g.type_of[e]}
                     for e in range(g.nelements)],
        "incidences": sorted([min(p), max(p)] for p in g.incidence_pairs()),
    }
    if g.provenance is not None:
        data["provenance"] = g.provenance
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _json_int(value, what):
    """value when it is an int (bool is not), else InvalidParams."""
    if type(value) is not int:
        raise InvalidParams("malformed geometry JSON: %s %r is not an"
                            " integer" % (what, value))
    return value


def from_json(text):
    """Inverse of to_json; malformed input raises InvalidParams."""
    try:
        data = json.loads(text)
        rank = _json_int(data["rank"], "rank")
        elems = [(_json_int(d["id"], "element id"),
                  _json_int(d["type"], "type id")) for d in data["elements"]]
        elems.sort()
        if [e for e, _ in elems] != list(range(len(elems))):
            raise UnknownElement("element ids must be dense 0..m-1")
        # more types than elements leaves one empty; refusing that also
        # keeps type_counts() as small as the document
        if not 0 <= rank <= len(elems):
            raise InvalidParams("malformed geometry JSON: rank %d with %d"
                                " elements" % (rank, len(elems)))
        types = [t for _, t in elems]
        pairs = [(_json_int(x, "incidence end"),
                  _json_int(y, "incidence end"))
                 for x, y in data["incidences"]]
        return build_geometry(rank, types, pairs,
                              provenance=data.get("provenance"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams("malformed geometry JSON: %r" % (exc,))
