"""Concrete groups as permutations of coset indices.

A PermGroup built from coset enumeration over the trivial subgroup is
regular: points are the group elements, generators act by right
multiplication, and point 0 is the identity.  That representation
makes a subgroup a boolean point mask (the orbit of the identity).
parabolic_table reads the masks of the parabolics into one code per
point and one order per generator subset, which the heavy checks read.

Every walk over the points of a regular group, here and in engine,
runs on three array primitives: bfs_tree, orbit_labels and
label_pairs.  orbit, a Python walk, is the tests' reference.
orbit_labels numbers the orbits in order of first occurrence: orbit k
is the k-th one met in a scan of the points from 0.  It is edge_labels,
the one connectivity routine of the package, on the edges from each
point to its images; edge_labels takes any edge list, and labels the
incidence graph (geometry.is_connected), the chamber orbits joined for
residual connectedness (geometry) and the bipartite double covers of
the vertex-edge graphs (constructions) too.  Subgroup masks
and the parabolic table need a regular group, and so does order() when
no order was given; on any other group they raise IncompleteTable.
"""

from math import lcm

import numpy as np

from .errors import IncompleteTable


class PermGroup:
    """degree points, gens = ordered list of permutations (arrays)."""

    def __init__(self, degree, gens, order=None, regular=False):
        self.degree = degree
        self.gens = [np.asarray(g, dtype=np.int64) for g in gens]
        self.regular = regular
        self._order = order
        self._parabolics = None

    @property
    def ngens(self):
        return len(self.gens)

    def order(self):
        if self._order is None:
            require_regular(self)
            self._order = self.degree
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
    """Orbit labels of the points under the given perms, and the number
    of orbits: edge_labels on the edges from each point to its images."""
    points = np.arange(degree, dtype=np.int64)
    return edge_labels(np.tile(points, len(perms)),
                       np.concatenate(perms) if perms else points[:0],
                       degree)


def edge_labels(a, b, degree):
    """Component labels of the graph on points 0..degree-1 with the
    edges a[w]-b[w], and the number of components.

    Root hooking and pointer jumping (Shiloach-Vishkin, "An O(log n)
    parallel connectivity algorithm", J. Algorithms 1982): every point
    has a parent no larger than itself.  Each round hooks every root
    to the least smaller root that an edge joins it to, then jumps parents
    until each point's parent is a root; edges inside one tree are
    dropped.  When no edge is left, each component is a star on its
    least point, so ranking the roots numbers the components in order
    of first occurrence, which makes the labelling deterministic.
    """
    parent = np.arange(degree, dtype=np.int64)
    while True:
        a, b = parent[a], parent[b]
        moving = a != b
        if not moving.any():
            break
        a, b = a[moving], b[moving]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots = parent == np.arange(degree)
    rank = np.cumsum(roots, dtype=np.int64) - 1
    return rank[parent], int(np.count_nonzero(roots))


def label_pairs(a, b):
    """The distinct pairs (a[w], b[w]) of two labellings of the same
    points by non-negative ints, as two arrays sorted by (a, b)."""
    m = int(b.max()) + 1 if b.size else 1
    # sorted codes, repeats dropped (np.unique hashes, which is slower)
    codes = np.sort(a * m + b)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return codes // m, codes % m


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


def parabolic_table(pg):
    """(code, order) of a regular PermGroup, memoised on it: bit j of
    code[w] is set when w lies in <gens[x] : x != j>, and order[s] is
    |<gens[i] : i in s>| for each bit set s.  One subgroup_mask per
    generator subset, none of them kept."""
    if pg._parabolics is None:
        r = pg.ngens
        full = (1 << r) - 1
        code = np.zeros(pg.degree, dtype=np.min_scalar_type(full))
        order = np.empty(1 << r, dtype=np.int64)
        for s in range(1 << r):
            mask = subgroup_mask(pg, [i for i in range(r) if s >> i & 1])
            order[s] = np.count_nonzero(mask)
            if bin(s).count("1") == r - 1:
                code[mask] |= full ^ s
        pg._parabolics = code, order
    return pg._parabolics


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
    """<I> cap <J> = <I cap J> for all generator subsets I, J: iff each
    G_J = <gens[j] : j in J> is M_J, the meet of the maximal parabolics
    without a j not in J (G_J lies in M_J; conversely G_I cap G_J =
    M_I cap M_J = M_{I cap J} = G_{I cap J}).  |M_J| is meet[::-1][J],
    meet the superset sums of the counts of the parabolic_table codes."""
    code, order = parabolic_table(pg)
    meet = np.bincount(code, minlength=1 << pg.ngens)
    sets = np.arange(len(meet))
    for b in range(pg.ngens):
        below = sets[sets >> b & 1 == 0]
        meet[below] += meet[below | 1 << b]
    return bool(np.array_equal(order, meet[::-1]))
