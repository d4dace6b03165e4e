"""Finite typed incidence systems and their structural queries.

Elements are dense integers 0..m-1, each with a type in 0..rank-1.
Incidence is a symmetric irreflexive relation joining elements of
distinct types only, held as one CSR with a tuple view adj (see
IncidenceGeometry).  A flag is a set of pairwise incident elements,
a chamber a flag meeting every type.

Every chamber query, iso.is_flag_transitive included, reads one flag
scan per geometry (_scan_geometry), memoised on the instance.  The
scan keeps the chambers, one row per chamber whose column t is its
type-t element.  Two chambers are i-adjacent when they agree outside
type i; sigma_i cycles each class of i-adjacent chambers.

The scan walks the flags level by level on arrays (_flag_levels).
Level k holds the k-element flags, each as its parent's index in
level k - 1 (the flag minus its largest element) and that largest
element, sorted by code = parent * m + last.  Code order is the
lexicographic order of the sorted id tuples, which is the order of a
depth-first walk adding elements in increasing id order, so the
chamber rows come out in that order.  F + c is a flag exactly when c
lies above F's largest element l, is incident to l, and (F - l) + c is
a flag; each test of that kind is one searchsorted on the codes.  The
candidates of F (the elements incident to all of F) number the flags
of the next level that contain F.  The flag count includes the empty
flag, as MAX_FLAGS counts it; a level is built in runs of about
_BLOCK candidates with the count checked after each, so a scan past
MAX_FLAGS raises holding at most the flags counted and one run.

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
import functools
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

    type_of[e] is the type of element e; the elements incident to e are
    indices[indptr[e]:indptr[e + 1]], strictly increasing, and adj[e]
    is that row as a tuple, built on first use.  labels, when present,
    carries one caller-meaningful name per element (construction
    provenance).  build_geometry validates raw data; this does not.
    """

    def __init__(self, rank, type_of, indptr, indices, labels=None,
                 provenance=None):
        self.rank = rank
        self.type_of = tuple(type_of)
        self.indptr = indptr
        self.indices = indices
        self.nelements = len(self.type_of)
        self.labels = tuple(labels) if labels is not None else None
        self.provenance = provenance

    @functools.cached_property
    def adj(self):
        flat = self.indices.tolist()
        ends = self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))

    def elements_of_type(self, i):
        return [e for e in range(self.nelements) if self.type_of[e] == i]

    def type_counts(self):
        counts = [0] * self.rank
        for t in self.type_of:
            counts[t] += 1
        return tuple(counts)

    def incident(self, x, y):
        return y in self.adj[x]

    def incidence_pairs(self):
        owner = _owners(self)
        upper = owner < self.indices
        return list(zip(owner[upper].tolist(), self.indices[upper].tolist()))

    def __eq__(self, other):
        if not isinstance(other, IncidenceGeometry):
            return NotImplemented
        return (self.rank == other.rank and self.type_of == other.type_of
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self):
        return "IncidenceGeometry(rank=%d, counts=%s)" % (
            self.rank, self.type_counts())


def _owners(g):
    """The row of each entry of g.indices."""
    return np.repeat(np.arange(g.nelements, dtype=np.int32),
                     np.diff(g.indptr))


def build_geometry(rank, types, pairs, labels=None, provenance=None):
    """Validate raw data and assemble a geometry.

    types: per-element type indices (element ids are the positions).
    pairs: (x, y) incidences, a sequence or a (k, 2) array, symmetrized.
    The first bad type, then the first bad pair in input order, raises.
    """
    try:
        types, pairs = (np.asarray(a, dtype=np.int64) for a in (types, pairs))
    except OverflowError:  # an integer past int64: compare Python ints
        types, pairs = (np.asarray(a, dtype=object) for a in (types, pairs))
    m = len(types)
    bad = (types < 0) | (types >= rank)
    if bad.any():
        raise UnknownElement("type %r out of range"
                             % (types.tolist()[np.argmax(bad)],))
    pairs = pairs.reshape(-1, 2)
    inside = ((pairs >= 0) & (pairs < m)).all(axis=1)
    x, y = pairs[inside].astype(np.int64).T
    bad = ~inside
    bad[inside] = (x == y) | (types[x] == types[y])
    if bad.any():
        x, y = pairs[np.argmax(bad)].tolist()
        if not (0 <= x < m and 0 <= y < m):
            raise UnknownElement("incidence (%r,%r)" % (x, y))
        if x == y:
            raise SelfIncidence("element %d incident to itself" % x)
        raise SameTypeIncidence("elements %d,%d share type %d"
                                % (x, y, types[x]))
    # codes row * m + column, sorted, repeats dropped (np.unique is slower)
    code = np.sort(np.concatenate([x * m + y, y * m + x]))
    code = code[np.diff(code, prepend=-1) != 0]
    return IncidenceGeometry(rank, types.tolist(),
                             np.searchsorted(code, np.arange(m + 1) * m),
                             (code % m).astype(np.int32),
                             labels=labels, provenance=provenance)


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
    """Elements incident to every member of f (the residue's elements),
    in increasing order; all elements for the empty flag."""
    f = list(f)
    cand = set(g.adj[f[0]]) if f else set(range(g.nelements))
    return sorted(cand.intersection(*(g.adj[x] for x in f[1:])))


def _restrict(g, keep, kept_types):
    """Sub-geometry on the sorted elements keep, whose types are the
    sorted list kept_types, re-indexed densely; original ids are kept
    in labels."""
    tmap = {t: i for i, t in enumerate(kept_types)}
    types = [tmap[g.type_of[e]] for e in keep]
    index = np.full(g.nelements, -1)
    index[keep] = np.arange(len(keep))
    pairs = index[np.stack([_owners(g), g.indices], axis=1)]
    pairs = pairs[(pairs[:, 0] >= 0) & (pairs[:, 0] < pairs[:, 1])]
    labels = [g.labels[e] if g.labels is not None else e for e in keep]
    return build_geometry(len(kept_types), types, pairs, labels=labels)


def residue(g, f):
    """Sub-geometry on the elements incident to all of flag f.

    Types are re-indexed densely in increasing order of the cotype;
    original ids are kept in labels.
    """
    f = _check_flag(g, f)
    cotype = sorted(set(range(g.rank)) - {g.type_of[x] for x in f})
    return _restrict(g, flag_candidates(g, f), cotype)


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


def enumerate_chambers(g):
    """The chambers as sorted tuples of element ids, in increasing order."""
    return sorted(tuple(sorted(row))
                  for row in _scan_geometry(g).chambers.tolist())


# geometry: no type is empty and every maximal flag is a chamber;
# thin: every corank-1 flag extends in exactly two ways; chambers: an
# int64 array, row c holding chamber c's type-t element in column t
_Scan = collections.namedtuple("_Scan", "geometry thin chambers")


def _upper_rows(g):
    """The neighbours above each element, as a CSR tail: (begin, size,
    indices), the neighbours of e above e being
    indices[begin[e]:begin[e] + size[e]], in increasing order."""
    owner = _owners(g)
    size = np.bincount(owner[g.indices > owner], minlength=g.nelements)
    return g.indptr[1:] - size, size, g.indices


def _find(code, prefix, c, m):
    """The index of each flag prefix + c in the level whose sorted
    codes are code, or -1 where it is not a flag."""
    want = prefix.astype(np.int64) * m + c
    at = np.searchsorted(code, want)
    at[code[np.minimum(at, len(code) - 1)] != want] = -1
    return at.astype(np.int32)


# the candidate children one step of a level builds, which bounds the
# scan's temporaries before a level past MAX_FLAGS raises
_BLOCK = 1 << 16


def _children(code, parent, last, upper, m, nflags):
    """The flags F + c of the level after the one whose flags are
    (parent, last), with sorted codes code: (owner, c, at, nflags),
    where owner is the index of F, at that of (F - last) + c, and
    nflags the running count with them added.  The candidates c are
    tried for runs of consecutive F holding about _BLOCK of them, and
    the count is checked after each run."""
    begin, size, indices = upper
    counts = size[last]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    bounds = [0, *np.searchsorted(ends, np.arange(_BLOCK, total, _BLOCK),
                                  side="right").tolist(), len(last)]
    runs = []
    for lo, hi in zip(bounds, bounds[1:]):
        n = counts[lo:hi]
        owner = np.repeat(np.arange(lo, hi, dtype=np.int32), n)
        start = ends[lo - 1] if lo else 0
        pos = np.repeat(begin[last[lo:hi]] + n - ends[lo:hi] + start, n) \
            + np.arange(len(owner))
        c = indices[pos]
        at = _find(code, parent[owner], c, m)
        keep = at >= 0
        nflags = _counted(nflags, np.count_nonzero(keep))
        runs.append((owner[keep], c[keep], at[keep]))
    owner, c, at = (np.concatenate(part) for part in zip(*runs))
    return owner, c, at, nflags


def _flag_levels(g):
    """Walk the flags level by level (see the module docstring).
    Returns (nflags, geometry, thin, rows): the number of flags, the
    empty one included; whether no flag below rank has an empty
    candidate set (then every maximal flag is a chamber and no type is
    empty); whether no corank-1 flag has a number of candidates other
    than 0 or 2; and the chambers as rows of sorted element ids in
    increasing lexicographic order.

    sub[F, j] is the index in level k - 1 of F minus its j-th smallest
    element, so sub[F, k - 1] is F's parent; a flag of level k + 1
    counts once for each of its sub-flags, so the bincount of sub over
    level k + 1 gives |cand(F)| for every flag F of level k.
    """
    m = g.nelements
    upper = _upper_rows(g)
    nflags = _counted(0, 1)  # the empty flag
    geometry = thin = True
    parents, lasts = [], []
    for k in range(g.rank):
        # build level k + 1, then count the candidates of level k
        if k == 0:
            nflags = _counted(nflags, m)
            parent = np.zeros(m, dtype=np.int32)
            last = np.arange(m, dtype=np.int32)
            sub = parent[:, None]
        else:
            code = parents[-1].astype(np.int64) * m + lasts[-1]
            parent, last, at, nflags = _children(code, parents[-1],
                                                 lasts[-1], upper, m, nflags)
            prev, sub = sub, np.empty((len(last), k + 1), dtype=np.int32)
            for j in range(k - 1):
                sub[:, j] = _find(code, prev[parent, j], last, m)
            sub[:, k - 1] = at
            sub[:, k] = parent
            del code, prev, at
        counts = np.bincount(sub.ravel(),
                             minlength=len(lasts[-1]) if k else 1)
        geometry = geometry and bool(counts.all())
        if k == g.rank - 1:
            thin = not ((counts != 0) & (counts != 2)).any()
        parents.append(parent)
        lasts.append(last)
    rows = np.empty((len(lasts[-1]) if lasts else 1, g.rank), dtype=np.int64)
    at = np.arange(len(rows))
    for k in range(g.rank - 1, -1, -1):
        rows[:, k] = lasts[k][at]
        at = parents[k][at]
    return nflags, geometry, thin, rows


def _counted(nflags, more):
    """nflags + more; SizeLimitExceeded when that passes MAX_FLAGS."""
    nflags += more
    if nflags > MAX_FLAGS:
        raise SizeLimitExceeded("more than %d flags" % MAX_FLAGS)
    return nflags


def _scan_geometry(g):
    """The one flag walk behind every chamber query, memoised on g
    (which is immutable)."""
    scan = getattr(g, "_scan", None)
    if scan is not None:
        return scan
    start = time.perf_counter()
    nflags, geometry, thin, flat = _flag_levels(g)
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


def rank2_label(pairs):
    """(gonality, point diameter, line diameter) of a rank-2 residue
    from its incident (point, line) pairs, which must cover it; a point
    and a line may share an id.

    Computed by BFS on the bipartite incidence graph; gonality is half
    the shortest circuit length, math.inf when the graph is acyclic.
    """
    pairs = set(pairs)
    points = {p: k for k, p in enumerate({p for p, _ in pairs})}
    lines = {l: k for k, l in enumerate({l for _, l in pairs}, len(points))}
    n = len(points) + len(lines)
    nbrs = [[] for _ in range(n)]
    for p, l in pairs:
        nbrs[points[p]].append(lines[l])
        nbrs[lines[l]].append(points[p])
    girth = math.inf
    diameter = [0, 0]  # over the points, over the lines
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
        side = int(src >= len(points))
        diameter[side] = max(diameter[side], ecc)
    g_val = math.inf if math.isinf(girth) else girth // 2
    return (g_val, *diameter)


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
    and their columns i, j are the incident (point, line) pairs of F's
    residue: in a geometry, F + {p, l} is a chamber exactly when p and
    l are incident.  Residues with the same pairs, hence the same
    points and lines, count once."""
    chambers = _require_geometry(g).chambers
    entries = {}
    for i, j in itertools.combinations(range(g.rank), 2):
        order, starts = _classes(chambers, [t for t in range(g.rank)
                                            if t not in (i, j)])
        residues = {tuple(sorted(zip(block[:, i].tolist(),
                                     block[:, j].tolist())))
                    for block in np.split(chambers[order], starts[1:])}
        labels = collections.Counter(map(rank2_label, residues))
        entries[(i, j)] = tuple(sorted(labels.items()))
    return BuekenhoutDiagram(g.rank, entries)


def preserves_incidence(ga, gb, element_map, type_map):
    """True when element_map is a bijection from ga's elements onto
    gb's that sends type t to type_map[t] and the incidences of each
    element onto those of its image.

    Read on the CSR: the mapped incidence codes row * m + column,
    sorted, must be gb's, which its strictly increasing rows list in
    order."""
    m = gb.nelements
    emap = np.asarray(element_map, dtype=np.int64)
    if ga.nelements != m or len(emap) != m or not np.array_equal(
            np.sort(emap), np.arange(m)):
        return False
    tmap = np.asarray(type_map, dtype=np.int64)
    types = tmap[np.asarray(ga.type_of, dtype=np.int64)]
    if not np.array_equal(types, np.asarray(gb.type_of)[emap]):
        return False
    code = np.sort(emap[_owners(ga)] * m + emap[ga.indices])
    return np.array_equal(code, _owners(gb) * np.int64(m) + gb.indices)


def _json_block(items):
    """A list of already indented items as json.dumps(indent=1) writes
    it at depth 1."""
    return "[\n%s\n ]" % ",\n".join(items) if items else "[]"


def to_json(g):
    """The document json.dumps(data, sort_keys=True, indent=1) + "\\n"
    would write for data = {"rank", "elements" [{"id", "type"}],
    "incidences" [[x, y] with x < y, sorted], "provenance" when set},
    assembled directly."""
    elements = _json_block(['  {\n   "id": %d,\n   "type": %d\n  }' % et
                            for et in enumerate(g.type_of)])
    incidences = _json_block(['  [\n   %d,\n   %d\n  ]' % p
                              for p in g.incidence_pairs()])
    out = '{\n "elements": %s,\n "incidences": %s,\n' % (elements,
                                                         incidences)
    if g.provenance is not None:
        out += ' "provenance": %s,\n' % json.dumps(
            g.provenance, sort_keys=True, indent=1).replace("\n", "\n ")
    return out + ' "rank": %d\n}\n' % g.rank


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
