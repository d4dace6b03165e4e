import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperforge import constructions as cons
from hyperforge import errors
from hyperforge import geometry as geo
from hyperforge.iso import isomorphic, automorphism_group, \
    is_flag_transitive, validate_action

from conftest import make_polygon, relabel_types
import halving_reference as ref
from test_geometry import random_incidence_system
from test_toroids import counted_graphs


def cycle(m):
    return {i: ((i - 1) % m, (i + 1) % m) for i in range(m)}


def path(m):
    adj = {}
    for i in range(m):
        nbrs = []
        if i > 0:
            nbrs.append(i - 1)
        if i < m - 1:
            nbrs.append(i + 1)
        adj[i] = tuple(nbrs)
    return adj


K4 = {i: tuple(j for j in range(4) if j != i) for i in range(4)}


def test_parity_classes_even_cycle():
    pp = cons.parity_classes(cycle(6))
    assert pp.bipartite
    assert pp.classes == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    assert pp.complement(pp.classes[0]) == pp.classes[1]


def test_parity_classes_odd_cycle():
    pp = cons.parity_classes(cycle(5))
    assert not pp.bipartite
    assert pp.classes == (frozenset(range(5)),)
    assert pp.complement(pp.classes[0]) == pp.classes[0]


def test_parity_classes_errors():
    with pytest.raises(errors.Disconnected):
        cons.parity_classes({})
    with pytest.raises(errors.Disconnected):
        cons.parity_classes({0: (1,), 1: (0,), 2: (3,), 3: (2,)})
    pp = cons.parity_classes(cycle(4))
    with pytest.raises(errors.NotAClass):
        pp.complement(frozenset({0}))
    with pytest.raises(errors.InvalidParams):
        cons.parity_classes({0: (1,), 1: ()})


def test_partitioned_neighborhood_counts():
    pn = cons.partitioned_neighborhood(cycle(6), frozenset({0, 2, 4}))
    assert pn.rank == 2
    assert pn.type_counts() == (3, 3)
    assert geo.is_geometry(pn)
    d = geo.buekenhout_diagram(pn)
    assert d.label(0, 1)[0] == 3


def test_truncation_graph(cube):
    adj, endpoints = cons.truncation_graph(cube, (0, 1))
    assert len(adj) == 8
    assert all(len(a) == 3 for a in adj.values())
    assert len(endpoints) == 12
    # the residue of vertex v is a 3-cycle: the edges at v, one per
    # neighbour of v, joined pairwise by the three faces at v
    v = 0
    local, ends = cons.truncation_graph(cube, (1, 2), (v,))
    at_v = sorted(geo.shadow(cube, v, 1))
    assert local == {e: tuple(x for x in at_v if x != e) for e in at_v}
    assert sorted(ends) == sorted(geo.shadow(cube, v, 2))
    assert all(len(pair) == 2 for pair in ends.values())


def test_check_B1(cube, hemicube):
    assert cons.check_B1(cube, (0, 1))
    _, hgeo = hemicube
    assert cons.check_B1(hgeo, (0, 1))
    assert not cons.check_B1(hgeo, (2, 1))


def test_check_B2(cube, tetrahedron, hemicube):
    assert cons.check_B2(cube, (0, 1))
    assert cons.check_B2(tetrahedron, (0, 1))
    _, hgeo = hemicube
    assert not cons.check_B2(hgeo, (0, 1))


def b2_by_definition(g, leaf):
    """(B2) read off its definition, one incidence test per pair: e * x
    iff shadow_i(e) within shadow_i(x), for every j-element e and every
    x off the leaf."""
    i, j = leaf
    edges = [(e, geo.shadow(g, e, i)) for e in g.elements_of_type(j)]
    others = [x for x in range(g.nelements) if g.type_of[x] not in (i, j)]
    for x in others:
        sx = geo.shadow(g, x, i)
        for e, se in edges:
            if g.incident(e, x) != (se <= sx):
                return False
    return True


def b1_by_definition(g, leaf):
    """(B1) read off its definition, one shadow per j-element: each has
    exactly two i-elements, and no two have the same pair."""
    i, j = leaf
    seen = set()
    for e in g.elements_of_type(j):
        ends = frozenset(geo.shadow(g, e, i))
        if len(ends) != 2 or ends in seen:
            return False
        seen.add(ends)
    return True


def random_geometry(rng):
    """Rank 2-4, at most 12 elements, every type present, each pair of
    distinct types incident with one random density."""
    rank = rng.randint(2, 4)
    m = rng.randint(rank, 12)
    types = list(range(rank)) + [rng.randrange(rank)
                                 for _ in range(m - rank)]
    density = rng.random()
    pairs = [(x, y) for x in range(m) for y in range(x + 1, m)
             if types[x] != types[y] and rng.random() < density]
    return geo.build_geometry(rank, types, pairs)


def test_check_B1_matches_its_definition():
    rng = random.Random(8)
    seen = collections.Counter()
    for _ in range(3000):
        g = random_geometry(rng)
        for leaf in itertools.permutations(range(g.rank), 2):
            want = b1_by_definition(g, leaf)
            assert cons.check_B1(g, leaf) == want, (geo.to_json(g), leaf)
            i, j = leaf
            shadows = [len(geo.shadow(g, e, i))
                       for e in g.elements_of_type(j)]
            # why (B1) fails: a shadow of another size, or a repeated pair
            seen[want, all(k == 2 for k in shadows)] += 1
    assert set(seen) == {(True, True), (False, True), (False, False)}


def test_check_B2_matches_its_definition():
    rng = random.Random(7)
    seen = collections.Counter()
    for _ in range(3000):
        g = random_geometry(rng)
        for leaf in itertools.permutations(range(g.rank), 2):
            want = b2_by_definition(g, leaf)
            assert cons.check_B2(g, leaf) == want, (geo.to_json(g), leaf)
            i, j = leaf
            empty = any(not geo.shadow(g, e, i)
                        for e in g.elements_of_type(j))
            if g.rank > 2:
                seen[want, empty, cons.check_B1(g, leaf)] += 1
    # both verdicts, with and without j-elements of empty shadow, and
    # where (B1) fails; an empty shadow already breaks (B1)
    for want in (True, False):
        for empty, b1 in ((False, True), (False, False), (True, False)):
            assert seen[want, empty, b1] > 0, (want, empty, b1)


def test_bp_construction_cube(cube, tetrahedron):
    h = cons.bp_construction(cube, (0, 1))
    assert h.type_counts() == (4, 4, 6)
    assert geo.is_geometry(h)
    assert geo.is_thin(h)
    assert geo.is_residually_connected(h)
    # halving the cube yields the tetrahedron, with the second vertex
    # fiber playing the facet role
    assert isomorphic(relabel_types(h, {0: 0, 1: 2, 2: 1}),
                      tetrahedron)


def test_p_construction_rejects_bipartite(cube):
    with pytest.raises(errors.PreconditionFailed) as exc:
        cons.p_construction(cube, (0, 1))
    assert exc.value.reason == "Bipartite"


def test_bp_construction_rejects_odd(tetrahedron):
    with pytest.raises(errors.PreconditionFailed):
        cons.bp_construction(tetrahedron, (0, 1))


def test_p_construction_tetrahedron(tetrahedron):
    h = cons.p_construction(tetrahedron, (0, 1))
    # vertices double into two fibers; each face residue is an odd
    # cycle so every face lifts once
    assert h.type_counts() == (4, 4, 4)
    assert geo.is_geometry(h)
    assert geo.is_thin(h)
    assert geo.is_residually_connected(h)
    assert h.construction.kind == "P"


def test_halving_geometry_dispatch(cube, tetrahedron):
    assert cons.halving_geometry(cube, (0, 1)).construction.kind == "BP"
    assert cons.halving_geometry(tetrahedron, (0, 1)) \
        .construction.kind == "P"


def test_duality_correlation(tetrahedron):
    h = cons.p_construction(tetrahedron, (0, 1))
    perm = cons.duality_correlation(h)
    swap = {0: 1, 1: 0, 2: 2}
    for e in range(h.nelements):
        assert perm[perm[e]] == e
        assert h.type_of[perm[e]] == swap[h.type_of[e]]
    for x, y in h.incidence_pairs():
        assert h.incident(perm[x], perm[y])


def test_duality_requires_p_construction(cube):
    h = cons.bp_construction(cube, (0, 1))
    with pytest.raises(errors.NotPConstructed):
        cons.duality_correlation(h)


def test_transfer_action(tetrahedron):
    h = cons.p_construction(tetrahedron, (0, 1))
    act = cons.transfer_action(h, automorphism_group(tetrahedron))
    validate_action(h, act)
    assert is_flag_transitive(h, act)


def test_b1b2_propagation_trivial_overlap(tetrahedron):
    # next leaf sharing a type with the current one is vacuous
    assert cons.b1b2_propagation(tetrahedron, (0, 1), (1, 2), force=True)


def test_b1b2_propagation_precondition(hemicube):
    _, hgeo = hemicube
    with pytest.raises(errors.PreconditionFailed):
        cons.b1b2_propagation(hgeo, (0, 1), (2, 1))


BAD_LEAVES = [(0, 9), (9, 0), (-1, 0), (0, 0), (2, 2)]


@pytest.mark.parametrize("leaf", BAD_LEAVES, ids=str)
def test_leaf_must_be_two_distinct_types(tetrahedron, leaf):
    for check in (cons.check_B1, cons.check_B2):
        with pytest.raises(errors.InvalidParams, match="leaf"):
            check(tetrahedron, leaf)
    for force in (False, True):
        for build in (cons.p_construction, cons.bp_construction,
                      cons.halving_geometry):
            with pytest.raises(errors.InvalidParams, match="leaf"):
                build(tetrahedron, leaf, force=force)
        for pair in ((leaf, (0, 1)), ((0, 1), leaf)):
            with pytest.raises(errors.InvalidParams, match="leaf"):
                cons.b1b2_propagation(tetrahedron, *pair, force=force)


def test_shortest_cycles():
    assert cons.shortest_cycles(cycle(5)) == (5, None)
    assert cons.shortest_cycles(cycle(6)) == (None, 6)
    assert cons.shortest_cycles(K4) == (3, 4)
    assert cons.shortest_cycles(path(4)) == (None, None)


def test_gonality_formula():
    assert cons.gonality_formula(path(5)) is None
    assert cons.gonality_formula(cycle(6)) == 3
    assert cons.gonality_formula(cycle(5)) == 5
    # K4: girth 3 is odd but a 4-cycle is shorter than 2*3
    assert cons.gonality_formula(K4) == 2


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    # random spanning tree + random extra edges keeps it connected
    parents = [draw(st.integers(min_value=0, max_value=max(v - 1, 0)))
               for v in range(1, n)]
    edges = {(p, v) for v, p in enumerate(parents, start=1)}
    extra = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1),
                  st.integers(min_value=0, max_value=n - 1)),
        max_size=8))
    for a, b in extra:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {v: tuple(sorted(nb)) for v, nb in adj.items()}


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_parity_partition_properties(adj):
    pp = cons.parity_classes(adj)
    # the classes partition the vertex set
    union = set()
    for c in pp.classes:
        union |= c
    assert union == set(adj)
    assert len(pp.classes) == (2 if pp.bipartite else 1)
    if pp.bipartite:
        # no edge inside a class
        for c in pp.classes:
            for v in c:
                assert not any(w in c for w in adj[v])
        assert min(pp.classes[0]) == min(adj)
    for c in pp.classes:
        assert pp.complement(pp.complement(c)) == c


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_gonality_formula_vs_cycles(adj):
    odd, even = cons.shortest_cycles(adj)
    value = cons.gonality_formula(adj)
    if odd is None and even is None:
        assert value is None
    elif odd is None:
        assert value == even // 2
    else:
        girth = min(x for x in (odd, even) if x is not None)
        assert value in (girth, girth // 2, (even or 0) // 2)


BUILDERS = ((cons.halving_geometry, ref.halving_geometry),
            (cons.p_construction, ref.p_construction),
            (cons.bp_construction, ref.bp_construction))


def outcome(f, *args, **kw):
    """f's result, or its exception's type name and message."""
    try:
        return f(*args, **kw)
    except errors.HyperforgeError as exc:
        return type(exc).__name__, str(exc)


def built(build, g, leaf, **kw):
    """What one build shows: the JSON bytes, the labels and every
    ConstructionData field, or the exception's type and message."""
    h = outcome(build, g, leaf, **kw)
    if isinstance(h, tuple):
        return h
    d = h.construction
    return (geo.to_json(h), h.labels, d.kind, d.leaf, d.bases, d.tags,
            d.class_sets, d.index)


def assert_builders_match_reference(g, seen):
    """Each builder with force=True against the dict reference at every
    ordered leaf of g; seen counts the rules built and the exceptions."""
    for leaf in itertools.permutations(range(g.rank), 2):
        for build, reference in BUILDERS:
            got = built(build, g, leaf, force=True)
            assert got == built(reference, g, leaf), \
                (geo.to_json(g), leaf, build.__name__)
            seen[got[2] if len(got) > 2 else got[0]] += 1


def test_builders_match_the_dict_reference_on_random_systems():
    rng = random.Random(2110)
    seen = collections.Counter()
    for _ in range(1000):
        assert_builders_match_reference(random_incidence_system(rng), seen)
    # smaller systems, where the P rule is built far more often
    for _ in range(500):
        assert_builders_match_reference(random_geometry(rng), seen)
    assert seen["P"] >= 600 and seen["BP"] >= 2000, seen
    assert seen["Disconnected"] > 0 and seen["PreconditionFailed"] > 0


def unforced(build, g, leaf):
    """What build shows without force, by its definition: the first of
    the preconditions NotRC, B1 and B2 that fails, else the forced
    build, which reads the parity of the truncation unless it is P."""
    checks = (("NotRC", geo.is_residually_connected),
              ("B1", lambda g: cons.check_B1(g, leaf)),
              ("B2", lambda g: cons.check_B2(g, leaf)))

    def run(g, leaf):
        for reason, holds in checks:
            if not holds(g):
                raise errors.PreconditionFailed(reason)
        if build is cons.p_construction and cons.parity_classes(
                cons.truncation_graph(g, leaf)[0]).bipartite:
            raise errors.PreconditionFailed("Bipartite")
        return build(g, leaf, force=True)
    return built(run, g, leaf)


def test_unforced_builds_read_each_graph_once(monkeypatch, cube,
                                              tetrahedron, square_pyramid,
                                              two_cubes, hemicube,
                                              toroid_313):
    # the preconditions and the rule share the truncation and the
    # residue graphs: at most two _graphs calls per build
    rng = random.Random(2112)
    systems = [cube, tetrahedron, square_pyramid, two_cubes, hemicube[1],
               toroid_313[1], cons.halving_geometry(tetrahedron, (0, 1))] \
        + [make_polygon(m) for m in (3, 4, 5)] \
        + [random_geometry(rng) for _ in range(200)]
    calls = []
    graphs = cons._graphs

    def counted(*args):
        calls.append(args[1])
        return graphs(*args)
    monkeypatch.setattr(cons, "_graphs", counted)
    seen = collections.Counter()
    for g in systems:
        for leaf in itertools.permutations(range(g.rank), 2):
            for build, _ in BUILDERS:
                want = unforced(build, g, leaf)
                calls.clear()
                got = built(build, g, leaf)
                assert got == want, (geo.to_json(g), leaf, build.__name__)
                assert len(calls) <= 2
                seen[got[1] if len(got) == 2 else got[2]] += 1
    assert all(seen[r] for r in ("NotRC", "B1", "B2", "Bipartite", "P",
                                 "BP")), seen


def parities(find, graph):
    """find(graph) as (classes, bipartite), or its exception."""
    pp = outcome(find, graph)
    return pp if isinstance(pp, tuple) else (pp.classes, pp.bipartite)


def test_truncation_graphs_match_the_dict_reference():
    rng = random.Random(2111)
    for _ in range(300):
        g = random_incidence_system(rng)
        for leaf in itertools.permutations(range(g.rank), 2):
            for flag in [()] + [(x,) for x in range(g.nelements)]:
                graph = cons.truncation_graph(g, leaf, flag)
                assert graph == ref.truncation_graph(g, leaf, flag)
                assert parities(cons.parity_classes, graph[0]) \
                    == parities(ref.parity, graph[0])


def toroid_stages(toroid):
    """A toroid, its halving at (0,1) and that one's at (n,n-1)."""
    _, g = toroid
    n = g.rank - 1
    h = cons.halving_geometry(g, (0, 1))
    return g, h, cons.halving_geometry(h, (n, n - 1))


def test_builders_match_the_dict_reference_on_toroid_stages(toroid_313,
                                                             toroid_314):
    seen = collections.Counter()
    for toroid in (toroid_313, toroid_314):
        for stage in toroid_stages(toroid):
            assert_builders_match_reference(stage, seen)
            for t in range(stage.rank):
                residue = geo.residue(stage, [stage.type_of.index(t)])
                assert_builders_match_reference(residue, seen)
    assert seen["P"] > 0 and seen["BP"] > 0, seen


def test_b1b2_propagation_builds_the_leaf_residues_once(monkeypatch,
                                                       toroid_313):
    # (B2) at the leaf and the parities share one build of its residue
    # graphs
    calls = counted_graphs(monkeypatch)
    g = toroid_313[1]
    assert cons.b1b2_propagation(g, (0, 1), (3, 2))
    assert calls == [((0, 1), False), ((0, 1), True), ((3, 2), True),
                     ((3, 2), False)]
    calls.clear()
    assert cons.b1b2_propagation(g, (0, 1), (3, 2), force=True)
    assert calls == [((0, 1), False)]


def test_b1b2_propagation_matches_the_residue_loop(toroid_313, toroid_314):
    for toroid in (toroid_313, toroid_314):
        for stage in toroid_stages(toroid)[:2]:
            n = stage.rank - 1
            for pair in (((0, 1), (n, n - 1)), ((n, n - 1), (0, 1))):
                assert outcome(cons.b1b2_propagation, stage, *pair,
                               force=True) \
                    == outcome(ref.b1b2_propagation, stage, *pair)
    rng = random.Random(21)
    for _ in range(300):
        g = random_geometry(rng)
        for pair in itertools.permutations(
                itertools.permutations(range(g.rank), 2), 2):
            assert outcome(cons.b1b2_propagation, g, *pair, force=True) \
                == outcome(ref.b1b2_propagation, g, *pair), \
                (geo.to_json(g), pair)
