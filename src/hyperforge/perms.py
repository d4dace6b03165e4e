"""Concrete groups as permutations of coset indices.

A PermGroup built from coset enumeration over the trivial subgroup is
regular: points are the group elements, generators act by right
multiplication, and point 0 is the identity.  That representation
makes a subgroup a boolean point mask (the orbit of the identity) and
subgroup intersections plain mask operations, which is how all the
heavy checks below work.

Every walk over the points of a regular group, here and in engine,
runs on three array primitives: bfs_tree, orbit_labels and
label_pairs.  orbit, a Python walk, is the tests' reference; mulclose
serves groups that are not regular.
"""

from math import lcm

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import SizeLimitExceeded, IncompleteTable

MULCLOSE_LIMIT = 10 ** 5


class PermGroup:
    """degree points, gens = ordered list of permutations (arrays)."""

    def __init__(self, degree, gens, order=None, regular=False):
        self.degree = degree
        self.gens = [np.asarray(g, dtype=np.int64) for g in gens]
        self.regular = regular
        self._order = order

    @property
    def ngens(self):
        return len(self.gens)

    def order(self):
        if self._order is None:
            if self.regular:
                self._order = self.degree
            else:
                self._order = len(mulclose(self.gens, MULCLOSE_LIMIT))
        return self._order

    def __repr__(self):
        return "PermGroup(degree=%d, ngens=%d)" % (self.degree, self.ngens)


def perm_mul(a, b):
    """Composition: apply a first, then b."""
    return b[a]


def perm_order(p):
    """Order of a permutation: the lcm of its cycle lengths."""
    labels, _ = orbit_labels([p], len(p))
    return lcm(*np.unique(np.bincount(labels)).tolist())


def orbit(point, gens):
    """Sorted numpy array of the orbit of point under the given perms."""
    seen = {point}
    todo = [point]
    while todo:
        x = todo.pop()
        for g in gens:
            y = int(g[x])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return np.array(sorted(seen), dtype=np.int64)


def bfs_tree(gens, degree):
    """Breadth-first tree of the orbit of point 0 under gens.

    Yields one level at a time as arrays (p, y, q) with
    q = gens[y][p]: the tree edge from the point p, reached earlier, to
    the new point q.  Every point of the orbit but 0 appears once as a
    q.
    """
    seen = np.zeros(degree, dtype=bool)
    seen[0] = True
    slot = np.empty(degree, dtype=np.int64)
    level = np.zeros(1, dtype=np.int64)
    while level.size and gens:
        q = np.concatenate([g[level] for g in gens])
        fresh = np.flatnonzero(~seen[q])
        q = q[fresh]
        # a point reached twice in one level keeps the one edge whose
        # write to its slot survived
        slot[q] = fresh
        keep = slot[q] == fresh
        q = q[keep]
        y, p = np.divmod(fresh[keep], level.size)
        seen[q] = True
        yield level[p], y, q
        level = q


def orbit_labels(perms, degree):
    """Connected-component labels of points under the given perms.

    Labels are renumbered in order of first occurrence, so the
    labelling is deterministic.
    """
    if not perms:
        return np.arange(degree, dtype=np.int64), degree
    rows = np.concatenate([np.arange(degree)] * len(perms))
    cols = np.concatenate([np.asarray(p) for p in perms])
    graph = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(degree, degree))
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    remap = np.empty(len(first), dtype=np.int64)
    remap[labels[np.sort(first)]] = np.arange(len(first))
    return remap[labels], len(first)


def label_pairs(a, b):
    """The distinct pairs (a[w], b[w]) of two labellings of the same
    points by non-negative ints, as two arrays sorted by (a, b)."""
    m = int(b.max()) + 1
    codes = np.unique(a * m + b)
    return codes // m, codes % m


def mulclose(gens, limit):
    """All products of the generators, as a set of tuples."""
    if not gens:
        return {()}
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    while frontier:
        new = []
        for x in frontier:
            ax = np.asarray(x, dtype=np.int64)
            for g in gens:
                y = tuple(int(v) for v in g[ax])
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > limit:
                        raise SizeLimitExceeded(
                            "group closure exceeds %d" % limit)
        frontier = new
    return seen


def require_regular(pg):
    if not pg.regular:
        raise IncompleteTable("regular representation required")


def subgroup_mask(pg, subset):
    """Boolean point mask of <gens[i] : i in subset> in a regular
    PermGroup: the orbit of the identity."""
    require_regular(pg)
    mask = np.zeros(pg.degree, dtype=bool)
    mask[0] = True
    for _, _, q in bfs_tree([pg.gens[i] for i in subset], pg.degree):
        mask[q] = True
    return mask


def subgroup_masks(pg):
    """subgroup_mask of every generator subset; the subset is the bit
    set of the list index."""
    return [subgroup_mask(pg, [i for i in range(pg.ngens) if s >> i & 1])
            for s in range(1 << pg.ngens)]


def subgroup_points(pg, subset):
    """Element set of <gens[i] : i in subset> in a regular PermGroup."""
    return np.flatnonzero(subgroup_mask(pg, subset))


def subgroup_order(pg, subset):
    """Order of the subgroup generated by the listed generators."""
    subset = sorted(set(subset))
    if pg.regular:
        return len(subgroup_points(pg, subset))
    if not subset:
        return 1
    return len(mulclose([pg.gens[i] for i in subset], MULCLOSE_LIMIT))


def coxeter_matrix(pg):
    """p[i][j] = order of gens[i]*gens[j]; diagonal 1."""
    n = pg.ngens
    mat = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = perm_order(perm_mul(pg.gens[i], pg.gens[j]))
            mat[i][j] = p
            mat[j][i] = p
    return tuple(tuple(row) for row in mat)


def involutions(pg):
    """True when every generator has order exactly 2."""
    ident = np.arange(pg.degree)
    return all(not np.array_equal(g, ident) and np.array_equal(g[g], ident)
               for g in pg.gens)


def intersection_property(pg):
    """<I> cap <J> = <I cap J> for all generator subsets I, J."""
    n = pg.ngens
    if pg.regular:
        sets = subgroup_masks(pg)

        def meets_in(a, b, c):
            return np.array_equal(a & b, c)
    else:
        if pg.order() > MULCLOSE_LIMIT:
            raise SizeLimitExceeded("order %d too large" % pg.order())
        # mulclose gives () for no generators; <> is the identity
        sets = [frozenset(mulclose([pg.gens[i] for i in range(n)
                                    if mask >> i & 1], MULCLOSE_LIMIT))
                if mask else frozenset([tuple(range(pg.degree))])
                for mask in range(1 << n)]

        def meets_in(a, b, c):
            return a & b == c
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            # nested subsets meet in the smaller one
            if a & b not in (a, b) and \
                    not meets_in(sets[a], sets[b], sets[a & b]):
                return False
    return True
