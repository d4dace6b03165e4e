import math

import pytest
from hypothesis import given, settings, strategies as st

from hyperforge import geometry as geo
from hyperforge import errors
from hyperforge.iso import isomorphic

from conftest import make_cube


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
    swapped = geo.relabel_types(cube, {0: 2, 1: 1, 2: 0})
    assert swapped.type_counts() == (6, 12, 8)
    assert geo.relabel_types(swapped, {0: 2, 1: 1, 2: 0}) == cube


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


def test_flag_limit(cube, monkeypatch):
    monkeypatch.setattr(geo, "MAX_FLAGS", 10)
    with pytest.raises(errors.SizeLimitExceeded, match="more than 10 flags"):
        geo.enumerate_chambers(cube)


@st.composite
def polygon_sizes(draw):
    return draw(st.integers(min_value=2, max_value=9))


@given(polygon_sizes())
@settings(max_examples=25, deadline=None)
def test_polygon_properties(m):
    # the m-gon: points 0..m-1, lines m..2m-1, line i joins i and i+1
    pairs = []
    for i in range(m):
        pairs.append((i, m + i))
        pairs.append(((i + 1) % m, m + i))
    g = geo.build_geometry(2, [0] * m + [1] * m, pairs)
    assert geo.is_geometry(g)
    assert geo.is_thin(g)
    assert len(geo.enumerate_chambers(g)) == 2 * m
    d = geo.buekenhout_diagram(g)
    if m == 2:
        assert d.is_digon(0, 1)
    else:
        assert d.label(0, 1)[0] == m
