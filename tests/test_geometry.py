import collections
import itertools
import json
import logging
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperforge import geometry as geo
from hyperforge import constructions as cons
from hyperforge import engine, errors, toroids
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


def by_definition(g):
    """(geometry, thin, residually connected) read off every flag: a
    geometry has no empty type and no maximal flag short of a chamber;
    it is thin when every corank-1 flag extends in two ways, and
    residually connected when the incidence graph on every corank >= 2
    flag's residue is connected.  The last two are None for a
    non-geometry."""
    geometry = all(c > 0 for c in g.type_counts())
    thin = rc = True

    def connected(elems):
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

    def visit(flag, cand):
        nonlocal geometry, thin, rc
        corank = g.rank - len(flag)
        if corank > 0 and not cand:
            geometry = False
        if corank == 1 and len(cand) != 2:
            thin = False
        if corank >= 2 and not connected(cand):
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
    for _ in range(3000):
        g = random_incidence_system(rng)
        want = by_definition(g)
        assert verdicts(g) == want
        seen.add(want[::2])
    # geometries that are and are not residually connected, and
    # non-geometries, on which both sides raise
    assert seen == {(True, True), (True, False), (False, None)}


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
            lab = geo.rank2_label((p, l) for p in pts for l in lns
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


def test_glued_controls(toroid_313):
    cube, tet = make_cube(), make_tetrahedron()
    _, toroid = toroid_313
    # tetrahedron ids 0..3 are its vertices and 4 the edge {0, 1}
    assert tet.type_of[4] == 1 and set(tet.adj[4]) >= {0, 1}
    assert toroid.type_of[0] == 0
    cases = [
        (glue(cube, cube, {}), False),
        (glue(tet, tet, {0: 0}), False),
        (glue(tet, tet, {0: 0, 1: 1, 4: 4}), True),
        (glue(toroid, toroid, {0: 0}), False),
    ]
    for g, rc in cases:
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
