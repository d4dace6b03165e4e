import hashlib
import json
import logging
import re

import pytest

from hyperforge import errors
from hyperforge import geometry as geo
from hyperforge import toroids
from hyperforge.perms import coxeter_matrix
from hyperforge.toddcox import todd_coxeter, perm_image


def order_of(pres):
    return perm_image(todd_coxeter(pres)).order()


def test_params_validation():
    with pytest.raises(errors.InvalidParams):
        toroids.ToroidParams(2, 1, 3)
    with pytest.raises(errors.InvalidParams):
        toroids.ToroidParams(4, 3, 3)
    with pytest.raises(errors.InvalidParams):
        toroids.ToroidParams(3, 1, 1)
    toroids.ToroidParams(4, 4, 2)


def test_matrices():
    assert toroids.linear_matrix(3) == ((1, 4, 2, 2), (4, 1, 3, 2),
                                        (2, 3, 1, 4), (2, 2, 4, 1))
    m = toroids.halved_matrix(3)
    assert m[0][2] == 3 and m[1][2] == 3 and m[2][3] == 4
    assert m[0][1] == 2
    c = toroids.double_halved_matrix(3)
    assert c[0][2] == c[2][1] == c[1][3] == c[3][0] == 3
    assert c[0][1] == c[2][3] == 2
    y = toroids.double_halved_matrix(4)
    assert y[0][2] == y[1][2] == y[2][3] == y[2][4] == 3


def test_matrix_shape():
    assert toroids.matrix_shape(toroids.linear_matrix(3)) \
        == ((1, 1, 2, 2), (3, 4, 4))
    assert toroids.matrix_shape(toroids.halved_matrix(3)) \
        == ((1, 1, 1, 3), (3, 3, 4))
    assert toroids.matrix_shape(toroids.double_halved_matrix(3)) \
        == ((2, 2, 2, 2), (3, 3, 3, 3))
    assert toroids.matrix_shape(toroids.double_halved_matrix(4)) \
        == ((1, 1, 1, 1, 4), (3, 3, 3, 3))


def test_predictors():
    cases = {(1, 3): False, (1, 4): True, (2, 2): True, (2, 3): True,
             (3, 3): False, (3, 2): True}
    for (k, s), bip in cases.items():
        assert toroids.predict_truncation_bipartite(
            toroids.ToroidParams(3, k, s)) == bip
    assert toroids.predict_degenerate_leaf(toroids.ToroidParams(3, 1, 2))
    assert not toroids.predict_degenerate_leaf(toroids.ToroidParams(3, 2, 2))


def test_presentation_relators():
    p = toroids.ToroidParams(3, 2, 2)
    pres = toroids.cubic_toroid_presentation(p)
    assert pres.ngens == 4
    # six Coxeter pair relators plus the lattice relator
    assert len(pres.relators) == 7
    assert pres.relators[-1] == (0, 1, 2, 3, 2) * 4


def test_small_orders():
    # translation lattice index times the 48 flags per cube
    assert order_of(toroids.cubic_toroid_presentation(
        toroids.ToroidParams(3, 2, 2))) == 768
    assert order_of(toroids.cubic_toroid_presentation(
        toroids.ToroidParams(3, 3, 2))) == 1536


def test_build_checks_pass():
    pg, g = toroids.build_cubic_toroid(toroids.ToroidParams(3, 2, 2))
    assert pg.order() == 768
    assert g.type_counts() == (16, 48, 48, 16)
    assert coxeter_matrix(pg) == toroids.linear_matrix(3)
    assert geo.buekenhout_diagram(g).shape() \
        == toroids.matrix_shape(toroids.linear_matrix(3))


def test_certificate_is_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="hyperforge"):
        toroids.build_cubic_toroid(toroids.ToroidParams(3, 2, 2))
    lines = [r.getMessage() for r in caplog.records]
    msg, = [m for m in lines if m.startswith("toroid ")]
    assert msg.startswith("toroid ToroidParams(n=3, k=2, s=2): "
                          "C-group + Tits, order 768, ")
    enum, = [m for m in lines if m.startswith("enumeration ")]
    assert re.match(r"enumeration on the (pure|compiled) kernel: "
                    r"4 generators, \d+ relators, 768 cosets, ", enum)


def test_halved_presentation_order():
    p = toroids.ToroidParams(3, 2, 2)
    # bipartite case: index-2 subgroup
    assert order_of(toroids.halved_presentation(p)) == 384


def test_halved_presentation_excluded():
    with pytest.raises(errors.UnsupportedCase):
        toroids.halved_presentation(toroids.ToroidParams(3, 1, 2))


def test_double_halved_excluded():
    with pytest.raises(errors.UnsupportedCase):
        toroids.double_halved_presentation(toroids.ToroidParams(3, 2, 2))
    with pytest.raises(errors.UnsupportedCase):
        toroids.double_halved_presentation(toroids.ToroidParams(3, 1, 2))


def test_rewrite_even_subgroup():
    # (ab)^4 rewritten into the even-b subgroup on {a, bab}: the
    # letters b vanish and a alternates with its conjugate
    rels = toroids._rewrite_even_subgroup([(0, 1) * 4], 1, 0)
    assert rels == ((0, 1, 0, 1), (1, 0, 1, 0))
    # a relator with an odd count of the dropped generator would not
    # stay inside the subgroup
    with pytest.raises(errors.UnsupportedCase):
        toroids._rewrite_even_subgroup([(0, 1, 0)], 1, 0)


def test_verify_family_depth0():
    report = toroids.verify_family(toroids.ToroidParams(3, 2, 2))
    assert report["ok"]
    stage = report["stages"]["toroid"]
    assert stage["order"] == 768
    assert stage["bipartite_predicted"] is True
    assert stage["diagram_matches"] is True
    assert stage["self_dual"] is True
    assert "halved" not in report["stages"]


def test_verify_family_depth1():
    report = toroids.verify_family(toroids.ToroidParams(3, 2, 2), depth=1)
    stage = report["stages"]["halved"]
    assert stage["order"] == 384
    assert stage["order_presentation"] == 384
    assert stage["coxeter_matrix_equal"] is True
    assert stage["coset_geometry_isomorphic"] is True
    assert stage["b1_next_leaf"] and stage["b2_next_leaf"]
    assert stage["diagram_matches"] is True


def test_verify_family_bad_depth():
    with pytest.raises(errors.InvalidParams):
        toroids.verify_family(toroids.ToroidParams(3, 2, 2), depth=5)


def test_verify_family_rank6(compiled_kernel):
    # the smallest rank-6 cell, 245,760 elements: pins the general-n
    # halved presentation and toroid words, which the n <= 4 envelope
    # does not reach
    report = toroids.verify_family(toroids.ToroidParams(5, 2, 2), depth=1)
    assert report["ok"]
    text = json.dumps(report, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "5675ba03522e32537a49aad0fd883f16" \
           "8ada65d6dd2610c676e7e0ef930d4d69"
