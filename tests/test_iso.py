import random

import pytest

from hyperforge import geometry as geo
from hyperforge import errors, iso
from hyperforge.iso import (
    find_isomorphism, isomorphic, automorphism_group, validate_action,
    is_flag_transitive,
)
from hyperforge.perms import PermGroup


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
