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
MAX_FLAGS raises holding at most the flags counted and one run.  Each
flag also carries the bit mask of its types, and one bincount per
level counts the flags of every type set.

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
Geometry", 2013, on chamber systems); the rows are the flags whose
types are the complement of J, which the scan counted.

The Buekenhout diagram labels the rank-2 residues, which are classes
of chambers too: those agreeing outside types i, j hold the incident
(point, line) pairs of one residue of cotype {i, j}.  rank2_labels
labels all distinct residues of a type pair at once, by one
breadth-first search from every node of the block-diagonal graph they
form; the gonality is the least d at which some node at distance d
from a source has two neighbours at distance d - 1, half the girth.
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
from .perms import edge_labels, orbit_labels

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
# int64 array, row c holding chamber c's type-t element in column t;
# by_types[s]: the flags whose set of types is the bit mask s (None
# when 2^rank passes MAX_FLAGS, which no geometry's scan allows)
_Scan = collections.namedtuple("_Scan", "geometry thin chambers by_types")


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


def _expand(begin, size, rows):
    """The CSR rows rows[0], rows[1], ... one after another: (k, pos),
    pos running over begin[r]:begin[r] + size[r] for r = rows[k]."""
    n = size[rows]
    ends = np.cumsum(n)
    total = int(ends[-1]) if len(ends) else 0
    k = np.repeat(np.arange(len(rows), dtype=np.int32), n)
    return k, np.repeat(begin[rows] + n - ends, n) + np.arange(total)


def _children(code, parent, last, upper, m, nflags):
    """The flags F + c of the level after the one whose flags are
    (parent, last), with sorted codes code: (owner, c, at, nflags),
    where owner is the index of F, at that of (F - last) + c, and
    nflags the running count with them added.  The candidates c are
    tried for runs of consecutive F holding about _BLOCK of them, and
    the count is checked after each run."""
    begin, size, indices = upper
    ends = np.cumsum(size[last])
    total = int(ends[-1]) if len(ends) else 0
    bounds = [0, *np.searchsorted(ends, np.arange(_BLOCK, total, _BLOCK),
                                  side="right").tolist(), len(last)]
    runs = []
    for lo, hi in zip(bounds, bounds[1:]):
        owner, pos = _expand(begin, size, last[lo:hi])
        owner += lo
        c = indices[pos]
        at = _find(code, parent[owner], c, m)
        keep = at >= 0
        nflags = _counted(nflags, np.count_nonzero(keep))
        runs.append((owner[keep], c[keep], at[keep]))
    owner, c, at = (np.concatenate(part) for part in zip(*runs))
    return owner, c, at, nflags


def _flag_levels(g):
    """Walk the flags level by level (see the module docstring).
    Returns (nflags, geometry, thin, rows, by_types): the number of
    flags, the empty one included; whether no flag below rank has an
    empty candidate set (then every maximal flag is a chamber and no
    type is empty); whether no corank-1 flag has a number of candidates
    other than 0 or 2; the chambers as rows of sorted element ids in
    increasing lexicographic order; and by_types[s], the number of
    flags whose set of types is the bit mask s.

    sub[F, j] is the index in level k - 1 of F minus its j-th smallest
    element, so sub[F, k - 1] is F's parent; a flag of level k + 1
    counts once for each of its sub-flags, so the bincount of sub over
    level k + 1 gives |cand(F)| for every flag F of level k.  Each flag
    carries its type mask, its parent's with the bit of its largest
    element's type set.  A geometry has at least 2^rank flags (the
    subsets of a chamber), so when 2^rank passes MAX_FLAGS the walk
    raises or finds no geometry, and by_types is None.
    """
    m = g.nelements
    upper = _upper_rows(g)
    nflags = _counted(0, 1)  # the empty flag
    geometry = thin = True
    by_types = None
    if (1 << g.rank) <= MAX_FLAGS:
        bit = np.left_shift(1, np.array(g.type_of, dtype=np.int64))
        mask = np.zeros(1, dtype=np.int64)
        by_types = np.zeros(1 << g.rank, dtype=np.int64)
        by_types[0] = 1
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
        if by_types is not None:
            mask = mask[parent] | bit[last]
            seen = np.bincount(mask)
            by_types[:len(seen)] += seen
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
    return nflags, geometry, thin, rows, by_types


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
    nflags, geometry, thin, flat, by_types = _flag_levels(g)
    rows = np.empty_like(flat)
    types = np.array(g.type_of, dtype=np.int64)
    np.put_along_axis(rows, types[flat], flat, axis=1)
    scan = _Scan(geometry, thin, rows, by_types)
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
    return edge_labels(_owners(g), g.indices, g.nelements)[1] <= 1


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
    <sigma_i : i in J> must number as many as the flags of cotype J,
    which the scan counted."""
    scan = _require_geometry(g)
    start = time.perf_counter()
    n, rank = scan.chambers.shape
    sigma = [_adjacency(scan.chambers, i) for i in range(rank)]
    full = (1 << rank) - 1
    checked = 0
    for size in range(2, rank + 1):
        for J in itertools.combinations(range(rank), size):
            checked += 1
            _, norbits = orbit_labels([sigma[i] for i in J], n)
            cotype = sum(1 << i for i in J)
            if norbits != scan.by_types[full & ~cotype]:
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


# the (source, node or edge end) pairs one batch of rank2_labels holds
_LABEL_BUDGET = 1 << 20


def rank2_labels(block, point, line, nblocks):
    """(gonality, point diameter, line diameter) of nblocks rank-2
    residues, one float row each (math.inf for none): residue b is the
    bipartite graph on the incident (point, line) pairs with block b,
    which must cover it; a point and a line may share an id.

    The residues form one block-diagonal graph, searched breadth first
    from every node at once, one level per step.  A source's
    eccentricity is its last level, math.inf when it misses part of its
    block; the diameters are the largest over point and over line
    sources.  The gonality is the least d at which some node at
    distance d from a source has two neighbours at distance d - 1: two
    shortest paths close a circuit of length at most 2d, and from a
    node of a shortest circuit, of length 2g, the opposite node lies at
    distance g with both its circuit neighbours at g - 1.  The sources
    go in batches whose blocks hold about _LABEL_BUDGET nodes and edge
    ends in all (one source when its block alone holds more), which
    bounds a batch's marks and each level's temporaries, so one large
    block never needs a matrix quadratic in its size.
    """
    # the nodes (block, side, id), sorted: each block's are consecutive
    width = int(max(point.max(), line.max())) + 1
    ends = [(block * 2 + side) * width + ids
            for side, ids in enumerate((point, line))]
    node = np.sort(np.concatenate(ends))
    node = node[np.diff(node, prepend=-1) != 0]
    n = len(node)
    u, v = (np.searchsorted(node, e) for e in ends)
    code = np.sort(np.concatenate([u * n + v, v * n + u]))
    code = code[np.diff(code, prepend=-1) != 0]
    degree = np.bincount(code // n, minlength=n)
    indptr = np.cumsum(degree) - degree
    indices = code % n
    home = node // (2 * width)  # the block of each node
    side = node // width % 2
    first = np.searchsorted(home, np.arange(nblocks))
    size = np.bincount(home, minlength=nblocks)
    cost = (size + np.bincount(home, weights=degree,
                               minlength=nblocks).astype(np.int64))[home]
    total = np.cumsum(cost)
    bounds = [0, *np.searchsorted(total, np.arange(
        _LABEL_BUDGET, total[-1], _LABEL_BUDGET), side="right").tolist(), n]
    gonality = np.full(nblocks, math.inf)
    diameter = np.zeros((nblocks, 2))
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        # source lo + k marks node x of its block at seen[shift[k] + x];
        # the frontier holds (seen index) << 32 | k, sorted
        src = np.arange(lo, hi)
        span = size[home[src]]
        slot = np.cumsum(span) - span
        shift = slot - first[home[src]]
        seen = np.zeros(int(slot[-1] + span[-1]), dtype=bool)
        frontier = (shift + src) << 32 | np.arange(hi - lo)
        seen[frontier >> 32] = True
        ecc = np.zeros(hi - lo)
        d = 0
        while len(frontier):
            d += 1
            at, k = frontier >> 32, frontier & 0xFFFFFFFF
            which, pos = _expand(indptr, degree, at - shift[k])
            k = k[which]
            at = shift[k] + indices[pos]
            fresh = ~seen[at]
            step = np.sort(at[fresh] << 32 | k[fresh])
            new = np.empty(len(step), dtype=bool)
            new[:1] = True
            np.not_equal(step[1:], step[:-1], out=new[1:])
            frontier = step[new]
            if len(frontier) < len(step):
                b = home[lo + (step[~new] & 0xFFFFFFFF)]
                gonality[b] = np.minimum(gonality[b], d)
            seen[frontier >> 32] = True
            ecc[frontier & 0xFFFFFFFF] = d
        missed = np.searchsorted(slot, np.flatnonzero(~seen), side="right")
        ecc[missed - 1] = math.inf
        np.maximum.at(diameter, (home[src], side[src]), ecc)
    return np.column_stack([gonality, diameter])


def diagram_entry(labels, weight=None):
    """The sorted ((gonality, d_P, d_L), multiplicity) items of the
    rows of rank2_labels, row k counted weight[k] times (once by
    default)."""
    if weight is None:
        weight = np.ones(len(labels), dtype=np.int64)
    order = np.lexsort(labels.T[::-1])
    labels = labels[order]
    new = np.ones(len(labels), dtype=bool)
    new[1:] = (labels[1:] != labels[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.add.reduceat(np.asarray(weight)[order], starts)
    return tuple((tuple(x if x == math.inf else int(x) for x in row),
                  int(c))
                 for row, c in zip(labels[starts].tolist(), counts))


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


def _distinct_residues(flag, point, line, m):
    """The residues of the flags in the rows of flag, sorted so that
    each flag's rows are consecutive and its (point, line) pairs in
    increasing order, with each set of pairs kept once: (block, point,
    line, nblocks) of the kept pairs, block numbering the kept residues
    densely.  Two residues are the same set exactly when their pair
    codes point * m + line are the same rows; residues of one size are
    compared as the rows of one matrix."""
    n = len(point)
    first = np.ones(n, dtype=bool)
    first[1:] = (flag[1:] != flag[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    size = np.diff(np.append(starts, n))
    code = point * m + line
    keep = np.zeros(len(starts), dtype=bool)
    sizes = np.sort(size)
    for k in sizes[np.diff(sizes, prepend=-1) != 0].tolist():
        which = np.flatnonzero(size == k)
        rows = code[starts[which, None] + np.arange(k)]
        by_row = np.lexsort(rows.T[::-1])
        rows = rows[by_row]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        keep[which[by_row[new]]] = True
    residue = np.cumsum(first) - 1
    kept = keep[residue]
    block = (np.cumsum(keep) - 1)[residue[kept]]
    return block, point[kept], line[kept], int(np.count_nonzero(keep))


def buekenhout_diagram(g):
    """Labels of every rank-2 residue, read off the chambers.  Those
    agreeing outside types i, j contain one flag F of cotype {i, j},
    and their columns i, j are the incident (point, line) pairs of F's
    residue: in a geometry, F + {p, l} is a chamber exactly when p and
    l are incident.  Residues with the same pairs, hence the same
    points and lines, count once; the distinct residues of each type
    pair are labelled in one rank2_labels call."""
    scan = _require_geometry(g)
    chambers = scan.chambers
    start = time.perf_counter()
    full = (1 << g.rank) - 1
    entries = {}
    labelled = distinct = 0
    for i, j in itertools.combinations(range(g.rank), 2):
        flag = [t for t in range(g.rank) if t not in (i, j)]
        rows = chambers[_classes(chambers, flag + [i, j])[0]]
        block, point, line, nblocks = _distinct_residues(
            rows[:, flag], rows[:, i], rows[:, j], g.nelements)
        entries[(i, j)] = diagram_entry(
            rank2_labels(block, point, line, nblocks))
        labelled += int(scan.by_types[full & ~(1 << i | 1 << j)])
        distinct += nblocks
    log.debug("diagram: %d type pairs, %d residues, %d distinct labelled,"
              " %.3f s", len(entries), labelled, distinct,
              time.perf_counter() - start)
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
