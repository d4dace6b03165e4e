"""Group-side constructions on regular permutation representations.

All functions here expect a PermGroup coming from coset enumeration
over the trivial subgroup: points are group elements, point 0 the
identity, generators act by right multiplication.  In that picture

  - the parabolic G_i (all generators but i) is the right-orbit of 0,
    and perms.parabolic_table codes each point by the G_i holding it,
  - right cosets G_i g are point blocks that the generators permute,

which turns every subgroup computation below into orbit bookkeeping:
values carried along bfs_tree, coset labels by a search over cosets
(coset_labels), incidences and coset maps from perms.label_pairs.
Each coset geometry is labelled once; Tits' condition and the coset
diagram read those labels and the group's parabolic table, and
isomorphisms of coset geometries are decided on the groups.
"""

import logging
import time
from collections import namedtuple

import numpy as np

from .errors import InvalidParams, NotAnAction
from .perms import PermGroup, bfs_tree, label_pairs, parabolic_table, \
    require_regular, subgroup_mask, orbit_labels  # traced by perfbench
from . import geometry as geo

log = logging.getLogger("hyperforge")


def left_mult_gens(pg):
    """Left-multiplication permutations (coset_labels' test oracle).

    lam[x][w] = point of rho_x * (element at point w), carried along
    the breadth-first tree from the identity: lam(p.y) = lam(p).y.
    """
    require_regular(pg)
    n = pg.degree
    flat = np.concatenate(pg.gens)  # gens[y][v] sits at y * n + v
    lam = [np.full(n, g[0]) for g in pg.gens]
    for p, y, q in bfs_tree(pg.gens, n):
        yn = y * n
        for lx in lam:
            lx[q] = flat[yn + lx[p]]
    return lam


# bookkeeping linking a coset geometry back to its group
CosetGeometryData = namedtuple("CosetGeometryData",
                               "pg labels_by_type offsets")


def coset_labels(pg, i):
    """Label of the right coset G_i w at each point w, and the number
    of cosets, by a breadth-first search over cosets from G_i, the
    points of a subgroup_mask.  gens[x] maps the points of G_i w onto
    those of G_i w gens[x]: a level's new cosets are the unlabelled
    images of its blocks, deduped by least point, and the generators
    reach every coset.  Labels rank the cosets by least point, the
    order of first occurrence in which orbit_labels numbers the orbits
    of left multiplication by G_i, the same cosets: the labels agree.
    """
    least = np.full(pg.degree, -1, dtype=np.int64)
    block = np.flatnonzero(subgroup_mask(
        pg, [x for x in range(pg.ngens) if x != i]))[None]
    least[block] = 0
    while len(block):
        new = np.concatenate([g[block] for g in pg.gens])
        new = new[least[new[:, 0]] < 0]
        first, keep = np.unique(new.min(axis=1), return_index=True)
        block = new[keep]
        least[block] = first[:, None]
    roots = np.flatnonzero(least == np.arange(pg.degree))
    return np.searchsorted(roots, least), len(roots)


def coset_geometry(pg):
    """Incidence geometry on the cosets of the maximal parabolics.

    Type-i elements are the right cosets G_i g (G_i = all generators
    but i); two cosets are incident when they intersect.  Every group
    element w lies in exactly one type-i coset, so incidences are the
    pairs of labels seen at a common point.
    """
    require_regular(pg)
    start = time.perf_counter()
    rank = pg.ngens
    labels_by_type, counts = zip(*[coset_labels(pg, i) for i in range(rank)])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = label_pairs(labels_by_type[i], labels_by_type[j])
            pairs.append(np.stack([a + offsets[i], b + offsets[j]], axis=1))
    g = geo.build_geometry(rank, np.repeat(np.arange(rank), counts),
                           np.concatenate(pairs),
                           provenance={"kind": "coset_geometry"})
    g.coset_data = CosetGeometryData(pg, labels_by_type, offsets)
    log.debug("coset geometry: %d points, %d elements, %d incidences,"
              " %.3f s", pg.degree, g.nelements, len(g.indices) // 2,
              time.perf_counter() - start)
    return g


def tits_condition(g):
    """Flag-transitivity of the coset geometry g of a regular group.

    Tits' coset-product condition (Buekenhout-Cohen, Diagram Geometry,
    2013, Thm 1.8.10), in its form for right cosets (the inverse of the
    form for left cosets): for every type set J and every i not in J,
    G_i (cap_{j in J} G_j) = cap_{j in J} (G_i G_j).  The points of
    cap_{j in J} G_j are those whose perms.parabolic_table code holds
    J.  A product G_i A is the union of the right cosets G_i a, so
    gi_times(J) is the mask of the points whose type-i label in g occurs
    in that meet.  The condition holds trivially for |J| <= 1.
    """
    data = g.coset_data
    code, _ = parabolic_table(data.pg)
    for i, labs in enumerate(data.labels_by_type):
        nlabs = int(data.offsets[i + 1] - data.offsets[i])

        def gi_times(J):
            hit = np.zeros(nlabs, dtype=bool)
            hit[labs[code & J == J]] = True
            return hit[labs]

        prods = {j: gi_times(1 << j) for j in range(g.rank) if j != i}
        for J in range(1 << g.rank):
            js = [j for j in prods if J >> j & 1]
            if J >> i & 1 or len(js) < 2:
                continue
            if not np.array_equal(gi_times(J), np.logical_and.reduce(
                    [prods[j] for j in js])):
                return False
    return True


def coset_diagram(g):
    """Buekenhout diagram of a flag-transitive coset geometry from one
    rank-2 residue per type pair, all labelled in one
    geometry.rank2_labels call.

    The residue of cotype {i,j} is taken at the base flag, the cosets
    G_t (t not in {i,j}) holding the identity.  Flag-transitivity makes
    every residue of that cotype isomorphic to it and puts its chambers
    at the points of the intersection of those G_t, the points whose
    perms.parabolic_table code holds every t, whose labels of types i
    and j are its incident (point, line) pairs.  Its multiplicity counts
    the flags of cotype {i,j}, the index of that intersection, where
    geometry.buekenhout_diagram counts distinct residues, which can be
    fewer; the labels and the shape are the same.
    """
    start = time.perf_counter()
    data = g.coset_data
    code, _ = parabolic_table(data.pg)
    full = (1 << g.rank) - 1
    pairs = [(i, j) for i in range(g.rank) for j in range(i + 1, g.rank)]
    block, point, line, mult = [], [], [], []
    for b, (i, j) in enumerate(pairs):
        pts = np.flatnonzero(code | 1 << i | 1 << j == full)
        a, c = label_pairs(data.labels_by_type[i][pts],
                           data.labels_by_type[j][pts])
        block.append(np.full(len(a), b))
        point.append(a)
        line.append(c)
        mult.append(len(code) // len(pts))
    labels = geo.rank2_labels(*map(np.concatenate, (block, point, line)),
                              len(pairs)) if pairs else None
    entries = {pair: geo.diagram_entry(labels[b:b + 1], mult[b:b + 1])
               for b, pair in enumerate(pairs)}
    log.debug("coset diagram: %d type pairs, %d residues, %d distinct"
              " labelled, %.3f s", len(pairs), len(pairs), len(pairs),
              time.perf_counter() - start)
    return geo.BuekenhoutDiagram(g.rank, entries)


def natural_action(g):
    """Right-multiplication action of the group on its coset geometry."""
    data = getattr(g, "coset_data", None)
    if data is None:
        raise NotAnAction("geometry has no coset bookkeeping")
    pg = data.pg
    perms = []
    for x in range(pg.ngens):
        p = np.empty(g.nelements, dtype=np.int64)
        for i in range(pg.ngens):
            labs = data.labels_by_type[i]
            off = data.offsets[i]
            p[labs + off] = labs[pg.gens[x]] + off
        perms.append(p)
    return PermGroup(g.nelements, perms)


def halving_group(pg, leaf):
    """Replace generator i by rho_i rho_j rho_i; restrict to its orbit.

    The result is the regular representation of the halving subgroup:
    either the whole group with a conjugated generator, or its index-2
    subgroup of even words.
    """
    require_regular(pg)
    i, j = leaf
    if i == j or not (0 <= i < pg.ngens and 0 <= j < pg.ngens):
        raise InvalidParams("leaf (%r,%r) must be two distinct generator"
                            " indices in 0..%d" % (i, j, pg.ngens - 1))
    gi, gj = pg.gens[i], pg.gens[j]
    new_gens = list(pg.gens)
    new_gens[i] = gi[gj[gi]]
    pts = np.sort(np.concatenate([np.zeros(1, dtype=np.int64)] + [
        q for _, _, q in bfs_tree(new_gens, pg.degree)]))
    if len(pts) == pg.degree:
        return PermGroup(pg.degree, new_gens, regular=True,
                         order=pg.degree)
    index = np.full(pg.degree, -1, dtype=np.int64)
    index[pts] = np.arange(len(pts))
    restricted = [index[g[pts]] for g in new_gens]
    return PermGroup(len(pts), restricted, regular=True, order=len(pts))


def generator_isomorphism(pga, pgb, gen_map):
    """The isomorphism of regular PermGroups A -> B sending generator x
    to gen_map[x], as the image of each point of A, or None.

    phi(p.x) = phi(p).gen_map[x], phi(0) = 0, is carried along A's
    breadth-first tree; it is returned when gen_map is a permutation pi
    and phi is a bijection that commutes with every generator.  Such a
    phi maps G_i = <rho_x : x != i> onto G'_pi(i), so G_i w ->
    G'_pi(i) phi(w) is a type-preserving bijection of the cosets that
    keeps non-empty intersections (w in G_i a and G_j b goes to phi(w)
    in both images), and so does its inverse, through phi^-1.  So the
    verdict on the coset geometries is the verdict on the groups.
    """
    require_regular(pga)
    require_regular(pgb)
    if pga.degree != pgb.degree or pga.ngens != pgb.ngens or \
            sorted(gen_map) != list(range(pga.ngens)):
        return None
    n = pga.degree
    images = [pgb.gens[gen_map[x]] for x in range(pga.ngens)]
    flat = np.concatenate(images)  # images[y][v] sits at y * n + v
    # a point the tree misses keeps the identity's 0: no bijection
    phi = np.zeros(n, dtype=np.int64)
    for p, y, q in bfs_tree(pga.gens, n):
        phi[q] = flat[y * n + phi[p]]
    if np.any(np.bincount(phi, minlength=n) != 1) or not all(
            np.array_equal(phi[g], h[phi]) for g, h in zip(pga.gens, images)):
        return None
    return phi


def induced_geometry_map(ga, gb, gen_map, type_map):
    """Geometry isomorphism induced by a generator correspondence, the
    geometry-level oracle for generator_isomorphism (kept for the
    tests and the benchmark's envelope workload).

    ga, gb are coset geometries; generator x goes to gen_map[x] and
    type i to type_map[i].  The element bijection that
    generator_isomorphism's phi induces on the coset labels is checked
    with geometry.preserves_incidence.  Returns the element map (list),
    or None when any check fails.
    """
    da = ga.coset_data
    db = gb.coset_data
    phi = generator_isomorphism(da.pg, db.pg, gen_map)
    if phi is None:
        return None
    emap = np.full(ga.nelements, -1, dtype=np.int64)
    for i in range(ga.rank):
        ti = type_map[i]
        a, b = label_pairs(da.labels_by_type[i], db.labels_by_type[ti][phi])
        # an A-coset meeting two B-cosets has no single image
        if np.any(a[1:] == a[:-1]):
            return None
        emap[a + da.offsets[i]] = b + db.offsets[ti]
    if not geo.preserves_incidence(ga, gb, emap, type_map):
        return None
    return emap.tolist()
