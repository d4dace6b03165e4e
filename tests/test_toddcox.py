import numpy as np
import pytest

from hyperforge import errors
from hyperforge.presentations import GroupPresentation, coxeter_presentation
from hyperforge.toddcox import (
    todd_coxeter, perm_image, backend_name, default_max_cosets,
    DEFAULT_MAX_COSETS,
)
from hyperforge.toroids import ToroidParams, cubic_toroid_presentation

A3 = coxeter_presentation(((1, 3, 2), (3, 1, 3), (2, 3, 1)))
B3 = coxeter_presentation(((1, 4, 2), (4, 1, 3), (2, 3, 1)))


def test_symmetric_group_order():
    t = todd_coxeter(A3)
    assert t.ncosets == 24
    assert t.complete


def test_cube_group_order():
    assert todd_coxeter(B3).ncosets == 48


def test_subgroup_cosets():
    # cosets of the vertex stabilizer <r1, r2> in S4: the 4 vertices
    t = todd_coxeter(A3, subgens=[(1,), (2,)])
    assert t.ncosets == 4
    # coset 0 is fixed by the subgroup generators
    assert int(t.table[0, 1]) == 0
    assert int(t.table[0, 2]) == 0


def test_perm_image_regular_only_for_trivial_subgroup():
    pg = perm_image(todd_coxeter(A3))
    assert pg.regular and pg.order() == 24
    pq = perm_image(todd_coxeter(A3, subgens=[(1,), (2,)]))
    assert not pq.regular


def test_generators_are_involutions():
    t = todd_coxeter(B3)
    for x in range(t.ngens):
        col = t.table[:, x]
        assert np.array_equal(col[col], np.arange(t.ncosets))


def test_overflow():
    with pytest.raises(errors.Overflow):
        todd_coxeter(B3, max_cosets=10)
    with pytest.raises(errors.InvalidParams):
        todd_coxeter(B3, max_cosets=0)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_max_cosets_bounded_by_int32(backend):
    # the same contract whether or not the compiled kernel is built
    with pytest.raises(errors.InvalidParams, match="2147483647"):
        todd_coxeter(A3, max_cosets=2 ** 31, backend=backend)


def test_invalid_subgroup_word():
    with pytest.raises(errors.InvalidParams):
        todd_coxeter(A3, subgens=[(7,)])


def test_unknown_backend():
    with pytest.raises(errors.InvalidParams):
        todd_coxeter(A3, backend="fancy")


def test_default_max_cosets_env(monkeypatch):
    monkeypatch.delenv("HYPERFORGE_MAX_COSETS", raising=False)
    assert default_max_cosets() == DEFAULT_MAX_COSETS
    monkeypatch.setenv("HYPERFORGE_MAX_COSETS", "1234")
    assert default_max_cosets() == 1234


def test_csv_shape():
    t = todd_coxeter(A3, subgens=[(1,), (2,)])
    lines = t.to_csv().strip().split("\n")
    assert lines[0] == "0,1,2"
    assert len(lines) == 1 + t.ncosets


@pytest.mark.parametrize("pres", [
    A3,
    B3,
    cubic_toroid_presentation(ToroidParams(3, 2, 2)),
    cubic_toroid_presentation(ToroidParams(3, 1, 3)),
])
def test_backends_agree(pres):
    if backend_name() != "compiled":
        pytest.skip("compiled kernel not built")
    tp = todd_coxeter(pres, backend="pure")
    tc = todd_coxeter(pres, backend="compiled")
    assert np.array_equal(tp.table, tc.table)


def test_backends_agree_with_subgroup():
    if backend_name() != "compiled":
        pytest.skip("compiled kernel not built")
    sub = [(1,), (2,)]
    tp = todd_coxeter(A3, subgens=sub, backend="pure")
    tc = todd_coxeter(A3, subgens=sub, backend="compiled")
    assert np.array_equal(tp.table, tc.table)
