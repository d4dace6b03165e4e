import collections
import itertools
import json
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperforge import geometry as geo
from hyperforge import constructions as cons
from hyperforge import dot, engine, errors, toroids
from hyperforge.iso import isomorphic, is_flag_transitive

from conftest import make_cube, make_polygon, make_tetrahedron, \
    make_two_cubes, relabel_types


def test_cube_counts(cube):
    assert cube.rank == 3
    assert cube.type_counts() == (8, 12, 6)
    assert cube.nelements == 26


def test_cube_is_geometry(cube):
    assert geo.is_geometry(cube)
    assert geo.is_connected(cube)
    assert geo.is_residually_connected(cube)
    assert geo.is_thin(cube)


def test_cube_chambers(cube):
    chambers = geo.enumerate_chambers(cube)
    assert len(chambers) == 48
    # each chamber has one element per type
    for ch in chambers:
        assert sorted(cube.type_of[x] for x in ch) == [0, 1, 2]


def test_cube_diagram(cube):
    d = geo.buekenhout_diagram(cube)
    assert d.edge_labels() == {(0, 1): 4, (1, 2): 3}
    assert d.is_digon(0, 2)
    assert d.shape() == ((1, 1, 2), (3, 4))


def test_two_cubes_are_not_residually_connected(two_cubes):
    g = two_cubes
    assert g.type_counts() == (15, 24, 12)
    assert geo.is_geometry(g)
    assert geo.is_connected(g)
    assert geo.is_thin(g)
    assert not geo.is_residually_connected(g)
    # the residue of the shared vertex: two disjoint hexagons
    r = geo.residue(g, [0])
    assert r.type_counts() == (6, 6)
    assert not geo.is_connected(r)


def test_tetrahedron_counts(tetrahedron):
    assert tetrahedron.type_counts() == (4, 6, 4)
    assert geo.is_thin(tetrahedron)
    assert geo.is_residually_connected(tetrahedron)
    d = geo.buekenhout_diagram(tetrahedron)
    assert d.edge_labels() == {(0, 1): 3, (1, 2): 3}


def test_square_pyramid_not_uniform(square_pyramid):
    assert geo.is_geometry(square_pyramid)
    assert geo.is_thin(square_pyramid)
    d = geo.buekenhout_diagram(square_pyramid)
    assert not d.is_uniform(0, 1)
    with pytest.raises(errors.NotAGeometry):
        d.label(0, 1)


def test_vertex_residue_of_cube_is_triangle(cube, triangle):
    res = geo.residue(cube, [0])
    assert res.rank == 2
    assert res.type_counts() == (3, 3)
    assert isomorphic(res, triangle)


def test_residue_rejects_non_flag(cube):
    # vertices 0 and 7 are antipodal, hence not incident
    with pytest.raises(errors.NotAFlag):
        geo.residue(cube, [0, 7])


def test_truncation(cube):
    t = geo.truncation(cube, [0, 1])
    assert t.rank == 2
    assert t.type_counts() == (8, 12)
    # labels remember the original element ids
    assert t.labels[8] == 8


def test_shadow(cube):
    face = cube.elements_of_type(2)[0]
    assert len(geo.shadow(cube, face, 0)) == 4
    assert len(geo.shadow(cube, face, 1)) == 4
    assert geo.shadow(cube, face, 2) == {face}


def test_build_geometry_rejects_bad_input():
    with pytest.raises(errors.SelfIncidence):
        geo.build_geometry(2, [0, 1], [(0, 0)])
    with pytest.raises(errors.SameTypeIncidence):
        geo.build_geometry(2, [0, 0], [(0, 1)])
    with pytest.raises(errors.UnknownElement):
        geo.build_geometry(2, [0, 3], [])
    with pytest.raises(errors.UnknownElement):
        geo.build_geometry(2, [0, 1], [(0, 5)])


def test_non_geometry_detected():
    # a maximal flag missing type 2: element 2 is isolated from type-2
    g = geo.build_geometry(3, [0, 1, 2, 0], [(0, 1), (1, 2), (0, 2)])
    assert not geo.is_geometry(g)
    with pytest.raises(errors.NotAGeometry):
        geo.is_thin(g)
    with pytest.raises(errors.NotAGeometry):
        geo.is_residually_connected(g)


def test_relabel_types(cube):
    swapped = relabel_types(cube, {0: 2, 1: 1, 2: 0})
    assert swapped.type_counts() == (6, 12, 8)
    assert relabel_types(swapped, {0: 2, 1: 1, 2: 0}) == cube


def test_json_roundtrip(cube):
    text = geo.to_json(cube)
    back = geo.from_json(text)
    assert back == cube
    # deterministic serialization
    assert geo.to_json(make_cube()) == text


def test_from_json_rejects_sparse_ids():
    with pytest.raises(errors.UnknownElement):
        geo.from_json('{"rank": 1, "elements": [{"id": 1, "type": 0}],'
                      ' "incidences": []}')


@pytest.mark.parametrize("text", [
    '{"rank": 1, "elements": [{"id": 0, "type": 0.0}], "incidences": []}',
    '{"rank": 1, "elements": [{"id": 0, "type": true}], "incidences": []}',
    '{"rank": 1, "elements": [{"id": 0.0, "type": 0}], "incidences": []}',
    '{"rank": 2.0, "elements": [{"id": 0, "type": 0}], "incidences": []}',
    '{"rank": 2, "elements": [{"id": 0, "type": 0}, {"id": 1, "type": 1}],'
    ' "incidences": [[0, 1.0]]}',
])
def test_from_json_rejects_non_integer_ids(text):
    with pytest.raises(errors.InvalidParams):
        geo.from_json(text)


def test_flag_limit(monkeypatch):
    # a fresh cube: a scanned one answers from its memo
    cube = make_cube()
    monkeypatch.setattr(geo, "MAX_FLAGS", 10)
    with pytest.raises(errors.SizeLimitExceeded, match="more than 10 flags"):
        geo.enumerate_chambers(cube)


@st.composite
def polygon_sizes(draw):
    return draw(st.integers(min_value=2, max_value=9))


@given(polygon_sizes())
@settings(max_examples=25, deadline=None)
def test_polygon_properties(m):
    g = make_polygon(m)
    assert geo.is_geometry(g)
    assert geo.is_thin(g)
    assert len(geo.enumerate_chambers(g)) == 2 * m
    d = geo.buekenhout_diagram(g)
    if m == 2:
        assert d.is_digon(0, 1)
    else:
        assert d.label(0, 1)[0] == m


def scan_flags(g, visit):
    """Depth-first walk over all flags (including the empty one).

    visit(flag_tuple, candidates) is called once per flag; candidates
    is the frozenset of elements incident to every flag member.
    Elements are added in increasing id order so each flag is seen once.
    Returns the number of flags visited, with the same MAX_FLAGS trip
    as the scan.
    """
    count = 0
    all_elems = frozenset(range(g.nelements))
    stack = [((), all_elems)]
    while stack:
        flag, cand = stack.pop()
        count += 1
        if count > geo.MAX_FLAGS:
            raise errors.SizeLimitExceeded("more than %d flags"
                                           % geo.MAX_FLAGS)
        visit(flag, cand)
        last = flag[-1] if flag else -1
        for c in sorted(cand, reverse=True):
            if c > last:
                stack.append((flag + (c,), cand & frozenset(g.adj[c])))
    return count


def connected(g, elems):
    """Connectivity of the incidence graph on the set elems, by a
    depth-first walk over the adj tuple view."""
    if len(elems) <= 1:
        return True
    start = next(iter(elems))
    seen = {start}
    todo = [start]
    while todo:
        x = todo.pop()
        for y in g.adj[x]:
            if y in elems and y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(elems)


def by_definition(g):
    """(geometry, thin, residually connected) read off every flag: a
    geometry has no empty type and no maximal flag short of a chamber;
    it is thin when every corank-1 flag extends in two ways, and
    residually connected when the incidence graph on every corank >= 2
    flag's residue is connected.  The last two are None for a
    non-geometry."""
    geometry = all(c > 0 for c in g.type_counts())
    thin = rc = True

    def visit(flag, cand):
        nonlocal geometry, thin, rc
        corank = g.rank - len(flag)
        if corank > 0 and not cand:
            geometry = False
        if corank == 1 and len(cand) != 2:
            thin = False
        if corank >= 2 and not connected(g, cand):
            rc = False

    scan_flags(g, visit)
    return (geometry, thin, rc) if geometry else (False, None, None)


QUERIES = (geo.is_geometry, geo.is_thin, geo.is_residually_connected)


def outcome(query, g):
    """query(g), or None when it raises NotAGeometry."""
    try:
        return query(g)
    except errors.NotAGeometry:
        return None


def verdicts(g):
    return tuple(outcome(query, g) for query in QUERIES)


def random_incidence_system(rng, least=1):
    """Rank least-4, least-4 elements per type in a shuffled id order,
    each pair of elements of distinct types incident with one
    probability in 0.3-0.9."""
    rank = rng.randint(least, 4)
    types = [t for t in range(rank) for _ in range(rng.randint(least, 4))]
    rng.shuffle(types)
    p = rng.uniform(0.3, 0.9)
    pairs = [(x, y) for x, y in itertools.combinations(range(len(types)), 2)
             if types[x] != types[y] and rng.random() < p]
    return geo.build_geometry(rank, types, pairs)


def test_verdicts_match_the_definitions_on_random_systems():
    rng = random.Random(20261018)
    seen = set()
    connectivity = set()
    for _ in range(3000):
        g = random_incidence_system(rng)
        want = by_definition(g)
        assert verdicts(g) == want
        seen.add(want[::2])
        whole = connected(g, frozenset(range(g.nelements)))
        assert geo.is_connected(g) == whole
        connectivity.add(whole)
    # geometries that are and are not residually connected, and
    # non-geometries, on which both sides raise; incidence graphs that
    # are and are not connected
    assert seen == {(True, True), (True, False), (False, None)}
    assert connectivity == {True, False}


def scan_by_flags(g):
    """(geometry, thin, chambers, flags) of the depth-first walk, with
    the chambers in the order it meets them, one column per type."""
    chambers = []
    geometry = all(c > 0 for c in g.type_counts())
    thin = True

    def visit(flag, cand):
        nonlocal geometry, thin
        if len(flag) == g.rank:
            chambers.append(flag)
        elif not cand:
            geometry = False
        elif len(flag) == g.rank - 1 and len(cand) != 2:
            thin = False

    nflags = scan_flags(g, visit)
    rows = np.zeros((len(chambers), g.rank), dtype=np.int64)
    for row, flag in zip(rows, chambers):
        row[[g.type_of[x] for x in flag]] = flag
    return geometry, thin, rows, nflags


def assert_scans_agree(g):
    """The level walk against the depth-first one: the verdicts, the
    chambers row by row, the flag count and the MAX_FLAGS trip."""
    geometry, thin, chambers, nflags = scan_by_flags(g)
    scan = geo._scan_geometry(g)
    assert (scan.geometry, scan.thin) == (geometry, thin)
    assert scan.chambers.shape == chambers.shape
    assert np.array_equal(scan.chambers, chambers)
    assert geo._flag_levels(g)[:3] == (nflags, geometry, thin)
    return nflags


def test_level_walk_matches_the_depth_first_walk(monkeypatch):
    rng = random.Random(20261019)
    ranks = set()
    # runs of a few candidates split each level into many
    blocks = (1, 3, 10, geo._BLOCK)
    for k in range(3000):
        g = random_incidence_system(rng, least=0)
        ranks.add(g.rank)
        monkeypatch.setattr(geo, "_BLOCK", blocks[k % len(blocks)])
        nflags = assert_scans_agree(g)
        for limit in (nflags - 1, nflags):
            monkeypatch.setattr(geo, "MAX_FLAGS", limit)
            fresh = geo.build_geometry(g.rank, g.type_of,
                                       g.incidence_pairs())
            trips = []
            for walk in (lambda: scan_flags(fresh, lambda f, c: None),
                         lambda: geo._scan_geometry(fresh)):
                try:
                    walk()
                    trips.append(None)
                except errors.SizeLimitExceeded as exc:
                    trips.append(str(exc))
            assert trips[0] == trips[1]
            assert (trips[0] is None) is (limit == nflags)
        monkeypatch.undo()
    assert ranks == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("cell", [(3, 1, 3), (4, 2, 2)],
                         ids=lambda c: "%d%d%d" % c)
def test_level_walk_matches_the_depth_first_walk_on_toroids(cell,
                                                           monkeypatch):
    n = cell[0]
    _, g = toroids.build_cubic_toroid(toroids.ToroidParams(*cell))
    h = cons.halving_geometry(g, (0, 1))
    hh = cons.halving_geometry(h, (n, n - 1))
    for stage in (g, h, hh):
        assert_scans_agree(geo.build_geometry(
            stage.rank, stage.type_of, stage.incidence_pairs()))
        want = geo._flag_levels(stage)
        monkeypatch.setattr(geo, "_BLOCK", 100)
        got = geo._flag_levels(stage)
        monkeypatch.undo()
        assert got[:3] == want[:3]
        assert np.array_equal(got[3], want[3])


def test_flag_limit_at_the_cube_s_flag_count(monkeypatch):
    monkeypatch.setattr(geo, "MAX_FLAGS", 147)
    assert geo.is_thin(make_cube())
    monkeypatch.setattr(geo, "MAX_FLAGS", 146)
    g = make_cube()
    with pytest.raises(errors.SizeLimitExceeded,
                       match="more than 146 flags"):
        geo.is_geometry(g)
    assert getattr(g, "_scan", None) is None


def complete_tripartite(n):
    """The rank-3 system of n elements per type, each incident to every
    element of the other types: 1 + 3n + 3n^2 flags below rank and n^3
    chambers."""
    types = [t for t in range(3) for _ in range(n)]
    return geo.build_geometry(3, types, [
        (x, y) for x, y in itertools.combinations(range(3 * n), 2)
        if types[x] != types[y]])


def test_flag_limit_bounds_the_scan_s_memory(monkeypatch):
    # levels 0-2 hold 30,301 flags; level 3 tries 10^6 candidates,
    # whose temporaries, built at once, trace over 50 MB
    g = complete_tripartite(100)
    monkeypatch.setattr(geo, "MAX_FLAGS", 40000)
    tracemalloc.start()
    try:
        with pytest.raises(errors.SizeLimitExceeded,
                           match="more than 40000 flags"):
            geo.is_geometry(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert getattr(g, "_scan", None) is None
    assert peak < 8 * 10 ** 6


def json_by_dumps(g):
    """to_json(g) through the json module's indenting encoder."""
    data = {
        "rank": g.rank,
        "elements": [{"id": e, "type": g.type_of[e]}
                     for e in range(g.nelements)],
        "incidences": sorted([min(p), max(p)] for p in g.incidence_pairs()),
    }
    if g.provenance is not None:
        data["provenance"] = g.provenance
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


PROVENANCES = [None, {}, [], "two\nlines", 7, {
    "kind": "P", "leaf": [0, 1],
    "steps": [{"note": "na\u00efve \u201chalving\u201d\n", "empty": {}},
              [[], None, 1.5, True]],
    "\u00e9t\u00e9": {"z": "a\nb", "a": []},
}]


def test_to_json_matches_the_json_encoder(toroid_313):
    rng = random.Random(20261020)
    for k in range(600):
        g = random_incidence_system(rng, least=0)
        g = geo.build_geometry(g.rank, g.type_of, g.incidence_pairs(),
                               provenance=PROVENANCES[k % len(PROVENANCES)])
        assert geo.to_json(g) == json_by_dumps(g)
    _, toroid = toroid_313
    for g in (toroid, cons.halving_geometry(toroid, (0, 1))):
        assert g.provenance is not None
        assert geo.to_json(g) == json_by_dumps(g)


def assert_csr(g):
    """g's incidence is one CSR whose rows are strictly increasing, and
    the relation it holds is symmetric and irreflexive; the geometry
    survives a JSON round trip, unless it has more types than elements,
    which from_json refuses."""
    assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
    assert len(g.indptr) == g.nelements + 1
    owner = np.repeat(np.arange(g.nelements), np.diff(g.indptr))
    same_row = owner[1:] == owner[:-1]
    assert (np.diff(g.indices)[same_row] > 0).all()
    pairs = set(zip(owner.tolist(), g.indices.tolist()))
    assert all(x != y for x, y in pairs)
    assert pairs == {(y, x) for x, y in pairs}
    if g.rank <= g.nelements:
        assert geo.from_json(geo.to_json(g)) == g


def test_csr_invariants(toroid_313):
    rng = random.Random(20261021)
    sizes = set()
    for _ in range(3000):
        g = random_incidence_system(rng, least=0)
        sizes.add(min(g.rank, g.nelements))
        assert_csr(g)
    assert 0 in sizes
    # the group side builds no per-element Python rows
    g = engine.coset_geometry(toroid_313[0])
    for step in (geo._scan_geometry, geo.to_json, engine.coset_diagram):
        assert "adj" not in vars(g)
        step(g)
    assert "adj" not in vars(g)
    assert_csr(g)


def rank2_label(pairs):
    """(gonality, point diameter, line diameter) of a rank-2 residue
    from its incident (point, line) pairs, which must cover it; a point
    and a line may share an id.

    Computed by BFS on the bipartite incidence graph; gonality is half
    the shortest circuit length, math.inf when the graph is acyclic.
    This per-node walk is the oracle for geometry.rank2_labels.
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


def diagram_by_flags(g):
    """buekenhout_diagram(g).entries read off every corank-2 flag: the
    flag's candidates of the two missing types are its residue's
    points and lines, and residues with the same points and lines
    count once."""
    seen = {pair: {} for pair in itertools.combinations(range(g.rank), 2)}
    done = set()

    def visit(flag, cand):
        if len(flag) != g.rank - 2:
            return
        i, j = sorted(set(range(g.rank)) - {g.type_of[x] for x in flag})
        pts = frozenset(x for x in cand if g.type_of[x] == i)
        lns = frozenset(x for x in cand if g.type_of[x] == j)
        key = (i, j, pts, lns)
        if key not in done:
            done.add(key)
            lab = rank2_label((p, l) for p in pts for l in lns
                                  if g.incident(p, l))
            seen[(i, j)][lab] = seen[(i, j)].get(lab, 0) + 1

    scan_flags(g, visit)
    return {pair: tuple(sorted(labs.items())) for pair, labs in seen.items()}


def test_diagram_matches_the_flag_walk_on_random_systems():
    rng = random.Random(20261018)
    geometries = 0
    for _ in range(3000):
        g = random_incidence_system(rng)
        if not geo.is_geometry(g):
            with pytest.raises(errors.NotAGeometry):
                geo.buekenhout_diagram(g)
            continue
        geometries += 1
        assert geo.buekenhout_diagram(g).entries == diagram_by_flags(g)
    assert geometries > 1000


@pytest.mark.parametrize("cell", [(3, 2, 2), (3, 1, 3), (3, 3, 2)],
                         ids=lambda c: "%d%d%d" % c)
def test_diagram_matches_the_flag_walk_on_toroids(cell):
    _, g = toroids.build_cubic_toroid(toroids.ToroidParams(*cell))
    h = cons.halving_geometry(g, (0, 1))
    hh = cons.halving_geometry(h, (3, 2))
    for stage in (g, h, hh):
        assert geo.buekenhout_diagram(stage).entries \
            == diagram_by_flags(stage)


def random_residues(rng, nblocks):
    """(block, point, line) arrays of nblocks random bipartite graphs,
    each with 1-6 points and 1-6 lines met by its pairs, ids drawn from
    one small range so that blocks, and a point and a line, share ids."""
    block, point, line = [], [], []
    for b in range(nblocks):
        density = rng.uniform(0.2, 1.0)
        ps = rng.sample(range(12), rng.randint(1, 6))
        ls = rng.sample(range(12), rng.randint(1, 6))
        pairs = {(p, l) for p in ps for l in ls if rng.random() < density}
        pairs.add((ps[0], ls[0]))
        pairs = sorted(pairs)
        rng.shuffle(pairs)
        block += [b] * len(pairs)
        point += [p for p, _ in pairs]
        line += [l for _, l in pairs]
    return (np.array(block), np.array(point), np.array(line))


def test_rank2_labels_match_the_per_node_walk(monkeypatch):
    rng = random.Random(20261022)
    seen = set()
    # budgets below one block split a block's sources over batches
    budgets = (1, 7, 50, geo._LABEL_BUDGET)
    for k in range(400):
        monkeypatch.setattr(geo, "_LABEL_BUDGET", budgets[k % len(budgets)])
        nblocks = rng.randint(1, 5)
        block, point, line = random_residues(rng, nblocks)
        got = geo.rank2_labels(block, point, line, nblocks)
        assert got.shape == (nblocks, 3)
        for b in range(nblocks):
            want = rank2_label(zip(point[block == b].tolist(),
                                   line[block == b].tolist()))
            assert tuple(got[b]) == want
            seen.add(tuple(math.isinf(x) for x in want))
    # cyclic and acyclic, connected and not
    assert seen == {(False, False, False), (True, False, False),
                    (True, True, True), (False, True, True)}


def test_acyclic_and_disconnected_residues():
    # a path point - line - point: no circuit
    path = geo.build_geometry(2, [0, 0, 1], [(0, 2), (1, 2)])
    assert geo.buekenhout_diagram(path).entries \
        == {(0, 1): (((math.inf, 2, 1), 1),)}
    # two disjoint incident pairs: no source reaches its whole residue
    apart = geo.build_geometry(2, [0, 0, 1, 1], [(0, 2), (1, 3)])
    assert geo.buekenhout_diagram(apart).entries \
        == {(0, 1): (((math.inf, math.inf, math.inf), 1),)}
    for g in (path, apart):
        assert geo.buekenhout_diagram(g).entries == diagram_by_flags(g)


def triangle_twice():
    """A triangle (points 0-2, lines 3-5) with two type-2 elements 6
    and 7, each incident to all six: the two corank-2 flags {6} and {7}
    have the same residue."""
    pairs = [(0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)]
    pairs += [(x, y) for x in range(6) for y in (6, 7)]
    return geo.build_geometry(3, [0, 0, 0, 1, 1, 1, 2, 2], pairs)


def test_a_shared_residue_counts_once(caplog):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    g = triangle_twice()
    d = geo.buekenhout_diagram(g)
    assert d.entries == {(0, 1): (((3, 3, 3), 1),),
                         (0, 2): (((2, 2, 2), 3),),
                         (1, 2): (((2, 2, 2), 3),)}
    assert d.entries == diagram_by_flags(g)
    # 2 + 3 + 3 flags of corank 2; the two of cotype {0, 1} share one
    assert caplog.records[-1].getMessage().startswith(
        "diagram: 3 type pairs, 8 residues, 7 distinct labelled, ")


def test_non_uniform_pair_in_dot(square_pyramid):
    assert dot.diagram_to_dot(square_pyramid) == (
        'graph diagram {\n'
        '  t0 [shape=circle, label="0"];\n'
        '  t1 [shape=circle, label="1"];\n'
        '  t2 [shape=circle, label="2"];\n'
        '  t0 -- t1 [label="3/4", tooltip="(3, 3, 3)x4 (4, 4, 4)x1"];\n'
        '  t1 -- t2 [label="3/4", tooltip="(3, 3, 3)x4 (4, 4, 4)x1"];\n'
        '}\n')


def test_a_large_residue_needs_no_quadratic_matrix():
    # a circuit of 2,000 nodes: a matrix with one byte per pair of its
    # nodes would hold 4 MB
    g = make_polygon(1000)
    geo._scan_geometry(g)
    tracemalloc.start()
    try:
        d = geo.buekenhout_diagram(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.entries == {(0, 1): (((1000, 1000, 1000), 1),)}
    assert peak < 4 * 10 ** 6


def test_one_labelling_per_type_pair_and_no_cotype_sorts(monkeypatch,
                                                         toroid_313):
    calls = []
    label = geo.rank2_labels
    classes = geo._classes

    def spy_label(block, point, line, nblocks):
        calls.append(nblocks)
        return label(block, point, line, nblocks)

    def spy_classes(chambers, cols):
        calls.append(tuple(cols))
        return classes(chambers, cols)

    monkeypatch.setattr(geo, "rank2_labels", spy_label)
    monkeypatch.setattr(geo, "_classes", spy_classes)
    cube = make_cube()
    geo._scan_geometry(cube)
    geo.buekenhout_diagram(cube)
    # per type pair, one sort by the flag then the pair, one labelling
    assert calls == [(2, 0, 1), 6, (1, 0, 2), 12, (0, 1, 2), 8]
    calls.clear()
    assert geo.is_residually_connected(cube)
    # the sigma_i maps sort once per type; the cotypes are not sorted
    assert calls == [(1, 2), (0, 2), (0, 1)]
    calls.clear()
    g = engine.coset_geometry(toroid_313[0])
    engine.coset_diagram(g)
    assert calls == [6]


def test_type_set_counts_match_the_flags(monkeypatch):
    rng = random.Random(20261023)
    geometries = 0
    for _ in range(1500):
        g = random_incidence_system(rng, least=0)
        want = collections.Counter()
        scan_flags(g, lambda f, c: want.update(
            [sum(1 << g.type_of[x] for x in f)]))
        scan = geo._scan_geometry(g)
        got = {s: int(c) for s, c in enumerate(scan.by_types) if c}
        assert got == dict(want)
        if scan.geometry:
            geometries += 1
            # the flags of a geometry are the distinct rows of the
            # chambers restricted to their types
            for s in range(1 << g.rank):
                cols = [t for t in range(g.rank) if s >> t & 1]
                _, starts = geo._classes(scan.chambers, cols)
                assert len(starts) == scan.by_types[s]
    assert geometries > 300
    # past 2^rank > MAX_FLAGS no geometry can finish its scan
    monkeypatch.setattr(geo, "MAX_FLAGS", 1000)
    g = geo.build_geometry(10, range(10), [])
    assert geo._scan_geometry(g).by_types is None
    assert not geo.is_geometry(g)


def glue(a, b, shared):
    """a and b side by side, with shared mapping an element of b to the
    element of a it is identified with."""
    fresh = [y for y in range(b.nelements) if y not in shared]
    ids = dict(shared)
    for k, y in enumerate(fresh):
        ids[y] = a.nelements + k
    types = list(a.type_of) + [b.type_of[y] for y in fresh]
    pairs = a.incidence_pairs() + [(ids[x], ids[y])
                                   for x, y in b.incidence_pairs()]
    return geo.build_geometry(a.rank, types, pairs)


def glued_controls(toroid):
    """(geometry, residually connected) of copies glued along a flag."""
    cube, tet = make_cube(), make_tetrahedron()
    # tetrahedron ids 0..3 are its vertices and 4 the edge {0, 1}
    assert tet.type_of[4] == 1 and set(tet.adj[4]) >= {0, 1}
    assert toroid.type_of[0] == 0
    return [
        (glue(cube, cube, {}), False),
        (glue(tet, tet, {0: 0}), False),
        (glue(tet, tet, {0: 0, 1: 1, 4: 4}), True),
        (glue(toroid, toroid, {0: 0}), False),
    ]


def test_glued_controls(toroid_313):
    for g, rc in glued_controls(toroid_313[1]):
        assert geo.is_geometry(g)
        assert geo.is_residually_connected(g) is rc
        assert by_definition(g)[2] is rc


def test_classes_agree_with_row_grouping():
    # element ids this large make the mixed-radix code renumber itself
    rng = np.random.default_rng(7)
    chambers = rng.integers(0, 3, size=(200, 5)) * 10 ** 6
    for cols in ([], [2], [0, 3], [0, 1, 2, 3, 4]):
        order, starts = geo._classes(chambers, cols)
        bounds = list(starts) + [len(chambers)]
        got = sorted(sorted(order[lo:hi].tolist())
                     for lo, hi in zip(bounds, bounds[1:]))
        want = {}
        for c, row in enumerate(chambers[:, cols].tolist()):
            want.setdefault(tuple(row), []).append(c)
        assert got == sorted(want.values())


MEMO_CASES = {
    "cube": make_cube,
    "two cubes": make_two_cubes,
    "non-geometry": lambda: geo.build_geometry(
        3, [0, 1, 2, 0], [(0, 1), (1, 2), (0, 2)]),
    "pentagon": lambda: make_polygon(5),
}


@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_memo_is_invisible(name):
    make = MEMO_CASES[name]
    want = {q: outcome(q, make()) for q in QUERIES}
    for order in itertools.permutations(QUERIES):
        g = make()
        for query in order + order:
            assert outcome(query, g) == want[query], query.__name__


@pytest.mark.parametrize("query", QUERIES + (
    geo.enumerate_chambers, geo.buekenhout_diagram, is_flag_transitive),
    ids=lambda q: q.__name__)
def test_flag_limit_trips_before_the_memo(query, monkeypatch):
    g = make_cube()
    monkeypatch.setattr(geo, "MAX_FLAGS", 10)
    for _ in range(2):
        with pytest.raises(errors.SizeLimitExceeded,
                           match="more than 10 flags"):
            query(g)
    assert getattr(g, "_scan", None) is None
    monkeypatch.undo()
    got = query(g)
    assert repr(got) == repr(query(make_cube()))
    assert got is True or query in (geo.enumerate_chambers,
                                    geo.buekenhout_diagram)


def test_diagrams_are_logged(caplog, toroid_313):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    geo.buekenhout_diagram(make_cube())
    engine.coset_diagram(engine.coset_geometry(toroid_313[0]))
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 3
    assert lines[0].startswith("flag scan: 147 flags, 48 chambers,")
    # the cube's 6 faces, 12 edges and 8 vertices, all distinct
    assert lines[1].startswith("diagram: 3 type pairs, 26 residues,"
                               " 26 distinct labelled, ")
    assert lines[2].startswith("coset diagram: 6 type pairs, 6 residues,"
                               " 6 distinct labelled, ")
    for line in lines[1:]:
        assert line.endswith(" s")


def test_scan_and_rc_are_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    assert geo.is_residually_connected(make_cube())
    assert not geo.is_residually_connected(make_two_cubes())
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 4
    # the cube's flags: the empty one, 26 elements, 72 pairs, 48 chambers
    assert lines[0].startswith("flag scan: 147 flags, 48 chambers,"
                               " geometry True, thin True, ")
    assert lines[1].startswith("residual connectedness: True,"
                               " 4 cotypes checked, ")
    assert lines[2].startswith("flag scan: 292 flags, 96 chambers,")
    # the shared vertex's residue, of cotype {1, 2}, is two hexagons
    assert lines[3].startswith("residual connectedness: False at cotype"
                               " (1, 2), 3 cotypes checked, ")


def preserves_by_rows(ga, gb, element_map, type_map):
    """geometry.preserves_incidence element by element on the rows."""
    if sorted(element_map) != list(range(gb.nelements)):
        return False
    for e in range(ga.nelements):
        f = element_map[e]
        if type_map[ga.type_of[e]] != gb.type_of[f]:
            return False
        if sorted(element_map[y] for y in ga.adj[e]) != list(gb.adj[f]):
            return False
    return True


def test_preserves_incidence_matches_the_rows_on_random_systems():
    rng = random.Random(20261019)
    seen = collections.Counter()
    for _ in range(2000):
        g = random_incidence_system(rng, least=0)
        m = g.nelements
        tmap = list(range(g.rank))
        rng.shuffle(tmap)
        emap = list(range(m))
        rng.shuffle(emap)
        types = [0] * m
        for e in range(m):
            types[emap[e]] = tmap[g.type_of[e]]
        pairs = [(emap[x], emap[y]) for x, y in g.incidence_pairs()]
        image = geo.build_geometry(g.rank, types, pairs)
        other = random_incidence_system(rng, least=0)
        for gb, phi, tm in [(image, emap, tmap), (g, emap, tmap),
                            (image, emap[::-1], tmap)] + (
                [(other, list(range(m)), list(range(other.rank)))]
                if other.nelements == m and other.rank == g.rank else []):
            want = preserves_by_rows(g, gb, phi, tm)
            assert geo.preserves_incidence(g, gb, phi, tm) is want
            seen[want] += 1
    assert seen[True] > 1000 and seen[False] > 1000


def test_preserves_incidence_sees_one_moved_incidence(toroid_313):
    _, g = toroid_313
    ident = list(range(g.nelements))
    assert geo.preserves_incidence(g, g, ident, range(g.rank))
    pairs = g.incidence_pairs()
    x, y = pairs[0]
    # a type-of-y element away from x takes y's place on x
    z = next(e for e in range(g.nelements)
             if g.type_of[e] == g.type_of[y] and e not in g.adj[x])
    moved = geo.build_geometry(g.rank, g.type_of, [(x, z)] + pairs[1:])
    assert moved.indices.size == g.indices.size
    assert not geo.preserves_incidence(g, moved, ident, range(g.rank))
    assert not geo.preserves_incidence(moved, g, ident, range(g.rank))
