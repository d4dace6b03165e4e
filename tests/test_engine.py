import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings

from hyperforge import engine
from hyperforge import errors
from hyperforge import geometry as geo
from hyperforge.iso import isomorphic, is_flag_transitive
from hyperforge.perms import orbit, orbit_labels, subgroup_mask
from hyperforge.presentations import coxeter_presentation
from hyperforge.toddcox import todd_coxeter, perm_image
from hyperforge.toroids import ToroidParams, cubic_toroid_presentation

from conftest import hemicube_group, relabel_types
from test_toddcox import enumerations

A3 = ((1, 3, 2), (3, 1, 3), (2, 3, 1))
B3 = ((1, 4, 2), (4, 1, 3), (2, 3, 1))


def regular_group(matrix, extra=()):
    return perm_image(todd_coxeter(coxeter_presentation(matrix, extra)))


@pytest.fixture(scope="module")
def cube_group():
    return regular_group(B3)


@pytest.fixture(scope="module")
def simplex_group():
    return regular_group(A3)


def test_left_mult_gens(simplex_group):
    pg = simplex_group
    lam = engine.left_mult_gens(pg)
    # left and right multiplication commute: lam_x(p . y) = lam_x(p) . y
    for x in range(pg.ngens):
        for y in range(pg.ngens):
            assert np.array_equal(lam[x][pg.gens[y]], pg.gens[y][lam[x]])
        # left multiplication at the identity gives the generator point
        assert int(lam[x][0]) == int(pg.gens[x][0])


def test_coset_geometry_of_cube_group(cube_group, cube):
    g = engine.coset_geometry(cube_group)
    assert g.type_counts() == (8, 12, 6)
    assert isomorphic(g, cube)


def test_coset_geometry_of_simplex_group(simplex_group, tetrahedron):
    g = engine.coset_geometry(simplex_group)
    assert isomorphic(g, tetrahedron)


def coset_label_mismatches(pg):
    """The types whose engine.coset_labels differ, in labels, dtype or
    count, from orbit_labels on the left multiplications by the other
    generators, the labelling that coset_labels replaced."""
    lam = engine.left_mult_gens(pg)
    bad = []
    for i in range(pg.ngens):
        want, count = orbit_labels([lam[x] for x in range(pg.ngens)
                                    if x != i], pg.degree)
        got, n = engine.coset_labels(pg, i)
        if n != count or got.dtype != want.dtype or \
                not np.array_equal(got, want):
            bad.append(i)
    return bad


def test_coset_labels_match_orbit_labels(cube_group, simplex_group):
    for pg in (cube_group, simplex_group, hemicube_group()):
        assert coset_label_mismatches(pg) == []


@settings(max_examples=100, deadline=None)
@given(enumerations())
def test_coset_labels_on_random_coxeter_quotients(case):
    m, extra, _, _, _ = case
    try:
        pg = perm_image(todd_coxeter(coxeter_presentation(m, extra=extra),
                                     max_cosets=2000))
    except errors.Overflow:
        return
    assert coset_label_mismatches(pg) == []


def test_coset_geometry_logs_one_line(cube_group, caplog):
    with caplog.at_level(logging.DEBUG, logger="hyperforge"):
        engine.coset_geometry(cube_group)
    line, = [r.getMessage() for r in caplog.records]
    assert re.fullmatch(r"coset geometry: 48 points, 26 elements, "
                        r"72 incidences, \d+\.\d{3} s", line)


def test_requires_regular():
    pq = perm_image(todd_coxeter(coxeter_presentation(A3),
                                 subgens=[(1,), (2,)]))
    with pytest.raises(errors.IncompleteTable):
        engine.coset_geometry(pq)


def test_natural_action_is_flag_transitive(cube_group):
    g = engine.coset_geometry(cube_group)
    act = engine.natural_action(g)
    assert is_flag_transitive(g, act)


def test_natural_action_needs_coset_data(cube):
    with pytest.raises(errors.NotAnAction):
        engine.natural_action(cube)


def test_halving_cube_gives_tetrahedron(cube_group, tetrahedron):
    # the vertex-edge graph of the cube is bipartite: index-2 subgroup
    hg = engine.halving_group(cube_group, (0, 1))
    assert hg.order() == 24
    # the halved generator order puts the facet role at type 1
    gh = relabel_types(engine.coset_geometry(hg), {0: 0, 1: 2, 2: 1})
    assert isomorphic(gh, tetrahedron)


def test_halving_whole_group(simplex_group):
    # tetrahedron vertex-edge graph is K4: odd cycles, no index drop
    hg = engine.halving_group(simplex_group, (0, 1))
    assert hg.order() == 24


# index 2 in the cube's group of order 48; the whole tetrahedron group
@pytest.mark.parametrize("group, order", [("cube_group", 24),
                                          ("simplex_group", 24)])
def test_halving_group_points_are_the_orbit(request, group, order):
    pg = request.getfixturevalue(group)
    hg = engine.halving_group(pg, (0, 1))
    g0, g1 = pg.gens[0], pg.gens[1]
    new_gens = [g0[g1[g0]]] + list(pg.gens[1:])
    pts = orbit(0, new_gens)
    assert hg.degree == len(pts) == order
    index = np.full(pg.degree, -1)
    index[pts] = np.arange(len(pts))
    for h, g in zip(hg.gens, new_gens):
        assert np.array_equal(h, index[g[pts]])


def test_parabolic_subgroup_points(cube_group):
    assert np.count_nonzero(subgroup_mask(cube_group, [1, 2])) == 6
    assert np.count_nonzero(subgroup_mask(cube_group, [])) == 1
    # the mask BFS against the orbit of the identity
    for mask in range(1 << cube_group.ngens):
        subset = [i for i in range(cube_group.ngens) if mask >> i & 1]
        assert np.array_equal(np.flatnonzero(subgroup_mask(cube_group,
                                                           subset)),
                              orbit(0, [cube_group.gens[i]
                                        for i in subset]))


@pytest.fixture(scope="module")
def toroid_322_group():
    return perm_image(todd_coxeter(cubic_toroid_presentation(
        ToroidParams(3, 2, 2))))


# out of range, negative (which numpy would index from the end) and a
# repeated generator (whose conjugate is itself: the whole group)
@pytest.mark.parametrize("leaf", [(0, 9), (-1, 0), (0, 0)], ids=str)
def test_halving_group_rejects_a_bad_leaf(toroid_322_group, leaf):
    assert toroid_322_group.order() == 768
    with pytest.raises(errors.InvalidParams, match="leaf"):
        engine.halving_group(toroid_322_group, leaf)


# each induced_geometry_map case also asks generator_isomorphism, on
# the two groups, for the same verdict


def test_induced_geometry_map_identity(cube_group):
    g = engine.coset_geometry(cube_group)
    ident = [0, 1, 2]
    assert engine.induced_geometry_map(g, g, ident, ident) is not None
    assert engine.generator_isomorphism(cube_group, cube_group, ident) \
        is not None


def test_induced_geometry_map_self_duality(simplex_group, cube_group):
    gt = engine.coset_geometry(simplex_group)
    rev = [2, 1, 0]
    # the tetrahedron is self-dual, the cube is not
    assert engine.induced_geometry_map(gt, gt, rev, rev) is not None
    assert engine.generator_isomorphism(simplex_group, simplex_group, rev) \
        is not None
    gc = engine.coset_geometry(cube_group)
    assert engine.induced_geometry_map(gc, gc, rev, rev) is None
    assert engine.generator_isomorphism(cube_group, cube_group, rev) is None


def test_induced_geometry_map_breaks_a_relation(simplex_group):
    # swapping rho0 and rho1 sends the commuting pair rho0, rho2 to
    # rho1, rho2, whose product has order 3
    g = engine.coset_geometry(simplex_group)
    swap = [1, 0, 2]
    assert engine.induced_geometry_map(g, g, swap, swap) is None
    assert engine.generator_isomorphism(simplex_group, simplex_group,
                                        swap) is None


def test_induced_geometry_map_different_orders(simplex_group, cube_group):
    ga = engine.coset_geometry(simplex_group)
    gb = engine.coset_geometry(cube_group)
    assert engine.induced_geometry_map(ga, gb, [0, 1, 2], [0, 1, 2]) is None
    assert engine.generator_isomorphism(simplex_group, cube_group,
                                        [0, 1, 2]) is None


def test_induced_geometry_map_reads_no_adjacency_view(simplex_group):
    ga = engine.coset_geometry(simplex_group)
    gb = engine.coset_geometry(regular_group(A3))
    rev = [2, 1, 0]
    assert engine.induced_geometry_map(ga, gb, rev, rev) is not None
    assert engine.generator_isomorphism(ga.coset_data.pg, gb.coset_data.pg,
                                        rev) is not None
    assert "adj" not in vars(ga) and "adj" not in vars(gb)
