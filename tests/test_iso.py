import logging
import random

import pytest

from hyperforge import geometry as geo
from hyperforge import errors, iso
from hyperforge.iso import (
    find_isomorphism, isomorphic, automorphism_group, validate_action,
    is_flag_transitive,
)
from hyperforge.perms import PermGroup

from conftest import make_cube, make_polygon, make_square_pyramid, \
    make_tetrahedron
from test_geometry import glue, random_incidence_system


def shuffled_copy(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.nelements))
    rng.shuffle(perm)
    # keep types blocks arbitrary: build_geometry accepts any order
    types = [None] * g.nelements
    for e in range(g.nelements):
        types[perm[e]] = g.type_of[e]
    pairs = [(perm[x], perm[y]) for x, y in g.incidence_pairs()]
    return geo.build_geometry(g.rank, types, pairs), perm


def test_isomorphic_to_relabelled_self(cube):
    other, perm = shuffled_copy(cube, 7)
    mapping = find_isomorphism(cube, other)
    assert mapping is not None
    # the returned mapping really transports incidence
    for x, y in cube.incidence_pairs():
        assert other.incident(mapping[x], mapping[y])


def test_not_isomorphic_different_counts(cube, tetrahedron):
    assert find_isomorphism(cube, tetrahedron) is None


def test_not_isomorphic_same_counts():
    # hexagon vs two disjoint triangles: same type counts
    def polygon(ms):
        types = []
        pairs = []
        off = 0
        pts = []
        for m in ms:
            pts.extend(range(off, off + m))
            for i in range(m):
                pairs.append((off + i, off + m + i))
                pairs.append((off + (i + 1) % m, off + m + i))
            types.extend([0] * m + [1] * m)
            off += 2 * m
        # renumber so types come in blocks
        order = sorted(range(len(types)), key=lambda e: (types[e], e))
        pos = {e: i for i, e in enumerate(order)}
        return geo.build_geometry(
            2, [types[e] for e in order],
            [(pos[x], pos[y]) for x, y in pairs])

    assert not isomorphic(polygon([6]), polygon([3, 3]))


def test_automorphism_group_orders(cube, tetrahedron, triangle,
                                   square_pyramid):
    assert automorphism_group(cube).order() == 48
    assert automorphism_group(tetrahedron).order() == 24
    assert automorphism_group(triangle).order() == 6
    assert automorphism_group(square_pyramid).order() == 8


def test_flag_transitivity(cube, square_pyramid):
    assert is_flag_transitive(cube)
    assert not is_flag_transitive(square_pyramid)


def test_validate_action_rejects_bad_perm(cube):
    bad = list(range(cube.nelements))
    bad[0], bad[8] = bad[8], bad[0]  # vertex swapped with an edge
    with pytest.raises(errors.NotAnAction):
        validate_action(cube, PermGroup(cube.nelements, [bad]))
    with pytest.raises(errors.NotAnAction):
        validate_action(cube, PermGroup(3, [[0, 1, 2]]))


def test_size_limit():
    g = geo.build_geometry(1, [0] * 10, [])
    with pytest.raises(errors.SizeLimitExceeded):
        find_isomorphism(g, g, max_elements=5)


def test_default_size_limit_is_read_at_call_time(cube, monkeypatch):
    monkeypatch.setattr(iso, "DEFAULT_MAX_ELEMENTS", 25)
    for search in (lambda: find_isomorphism(cube, cube),
                   lambda: automorphism_group(cube),
                   lambda: is_flag_transitive(cube)):
        with pytest.raises(errors.SizeLimitExceeded,
                           match="^26 elements, more than 25$"):
            search()
    monkeypatch.setattr(iso, "DEFAULT_MAX_ELEMENTS", 26)
    assert automorphism_group(cube).order() == 48


def ft_by_automorphisms(g):
    """Flag transitivity of Aut(g) by its definition: every
    automorphism, then the orbit of the first chamber under them."""
    action = automorphism_group(g)
    chambers = geo.enumerate_chambers(g)
    if not chambers:
        return True
    orbit = {chambers[0]}
    todo = [chambers[0]]
    while todo:
        ch = todo.pop()
        for p in action.gens:
            img = tuple(sorted(int(p[x]) for x in ch))
            if img not in orbit:
                orbit.add(img)
                todo.append(img)
    return len(orbit) == len(chambers)


def test_flag_transitivity_matches_the_automorphisms_on_random_systems():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(3000):
        g = random_incidence_system(rng)
        ft = ft_by_automorphisms(g)
        assert is_flag_transitive(g) is ft
        seen.add((geo.is_geometry(g), ft))
    # geometries and non-geometries, flag-transitive or not
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_flag_transitivity_controls():
    cube, tet = make_cube(), make_tetrahedron()
    # tetrahedron ids 0..3 are its vertices and 4 the edge {0, 1}
    cases = [
        (cube, True), (tet, True), (make_polygon(5), True),
        (make_square_pyramid(), False),
        # two components, swapped by an automorphism
        (glue(cube, cube, {}), True),
        (glue(cube, tet, {}), False),
        (glue(tet, tet, {0: 0}), False),
        (glue(tet, tet, {0: 0, 1: 1, 4: 4}), False),
    ]
    for g, ft in cases:
        assert ft_by_automorphisms(g) is ft
        assert is_flag_transitive(g) is ft


def test_flag_transitivity_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    cube = make_cube()
    assert is_flag_transitive(cube)
    assert not is_flag_transitive(make_square_pyramid())
    assert is_flag_transitive(cube, automorphism_group(cube))
    assert not is_flag_transitive(cube, PermGroup(cube.nelements, []))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("flag transitivity")]
    assert len(lines) == 4
    # chamber 0's neighbours: one of each type
    assert lines[0].startswith("flag transitivity (Aut: pinned searches"
                               " from chamber 0): 48 chambers, 3 targets"
                               " searched, True, ")
    # the pyramid's chamber 1 shares a vertex and an edge with chamber
    # 0 but lies on a triangle, chamber 0 on the square
    assert lines[1].startswith("flag transitivity (Aut: pinned searches"
                               " from chamber 0): 32 chambers, 1 targets"
                               " searched, False, no automorphism to"
                               " chamber 1, ")
    assert lines[2].startswith("flag transitivity (given action: chamber"
                               " orbits): 48 chambers, 0 targets searched,"
                               " True, ")
    # the trivial group leaves every chamber alone
    assert lines[3].startswith("flag transitivity (given action: chamber"
                               " orbits): 48 chambers, 0 targets searched,"
                               " False, 48 chamber orbits, ")
    assert all(line.endswith(" s") for line in lines)
