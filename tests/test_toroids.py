import hashlib
import json
import logging
import re

import numpy as np
import pytest

from hyperforge import constructions as cons
from hyperforge import engine, errors
from hyperforge import geometry as geo
from hyperforge import toroids
from hyperforge.perms import PermGroup, coxeter_matrix, perm_mul
from hyperforge.presentations import GroupPresentation
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


def test_verify_family_rank6(compiled_kernel, caplog):
    # the smallest rank-6 cell, 245,760 elements: pins the general-n
    # halved presentation and toroid words, which the n <= 4 envelope
    # does not reach
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    report = toroids.verify_family(toroids.ToroidParams(5, 2, 2), depth=1)
    line, = agreement_lines(caplog)
    assert line.startswith("halved: presentation agreement by parabolic "
                           "index, ")
    assert report["ok"]
    text = json.dumps(report, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "5675ba03522e32537a49aad0fd883f16" \
           "8ada65d6dd2610c676e7e0ef930d4d69"


def test_verify_family_513_depth2(compiled_kernel, caplog):
    # the smallest n = 5 cell with a double halving, 933,120 elements:
    # pins the n >= 5 double-halving words and the closure relators of
    # a non-bipartite halving at n = 5
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    report = toroids.verify_family(toroids.ToroidParams(5, 1, 3), depth=2)
    halved, double = agreement_lines(caplog)
    assert halved.startswith("halved: presentation agreement by parabolic "
                             "index, ")
    assert double.startswith("double_halved: presentation agreement by "
                             "parabolic index, ")
    assert report["ok"]
    text = json.dumps(report, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "40144c8d522075b63b7c5cf8912c7edf" \
           "c2558a63fc0c968d9e7e84a2f2be0d84"


def test_one_labelling_per_stage(monkeypatch):
    # depth 2 builds one coset geometry per stage, labels each of its
    # four types once by a search over cosets, labels nothing again for
    # Tits' condition, and builds no left multiplications
    calls = {}
    for name in ("coset_geometry", "coset_labels", "orbit_labels",
                 "left_mult_gens"):
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(engine, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(engine, name, counted)
    toroids.verify_family(toroids.ToroidParams(3, 1, 3), depth=2)
    assert calls == {"coset_geometry": 3, "coset_labels": 12,
                     "orbit_labels": 0, "left_mult_gens": 0}


def counted_graphs(monkeypatch):
    """The (leaf, whole geometry) of each constructions._graphs call."""
    calls = []
    graphs = cons._graphs

    def counted(*args):
        calls.append((args[1], len(args) == 2))
        return graphs(*args)
    monkeypatch.setattr(cons, "_graphs", counted)
    return calls


def test_one_truncation_per_stage(monkeypatch):
    # the toroid's (0,1) truncation serves its parity and (B1); the
    # halved geometry's (3,2) truncation its (B1) and the BP branch,
    # and its residue graphs (B2)
    calls = counted_graphs(monkeypatch)
    toroids.verify_family(toroids.ToroidParams(3, 1, 3), depth=2)
    assert calls == [((0, 1), True), ((3, 2), True), ((3, 2), False)]


FAMILY_CELLS = [(3, 1, 3), (3, 1, 4), (3, 2, 2), (3, 2, 3), (3, 2, 4),
                (3, 3, 2), (3, 3, 3), (3, 3, 4), (4, 2, 2)]


def halvings(cell):
    """(name, closed-form presentation, halving group) of each halving
    of the cell that has a closed form."""
    p = toroids.ToroidParams(*cell)
    n = p.n
    pg = perm_image(todd_coxeter(toroids.cubic_toroid_presentation(p)))
    hg = engine.halving_group(pg, (0, 1))
    out = [("halved", toroids.halved_presentation(p), hg)]
    if cell[1:] != (2, 2):
        out.append(("double_halved", toroids.double_halved_presentation(p),
                    engine.halving_group(hg, (n, n - 1))))
    return out


def isomorphism_verdicts(ga, gb, gen_map):
    """(generator_isomorphism on the groups of two coset geometries,
    induced_geometry_map on the geometries), each as found or not."""
    pga, pgb = ga.coset_data.pg, gb.coset_data.pg
    return (engine.generator_isomorphism(pga, pgb, gen_map) is not None,
            engine.induced_geometry_map(ga, gb, gen_map, gen_map)
            is not None)


@pytest.mark.parametrize("cell", FAMILY_CELLS, ids=lambda c: "%d%d%d" % c)
def test_generator_isomorphism_matches_the_geometry_map(cell):
    # verify_family's three isomorphism questions, asked of the groups
    # and of their coset geometries, then three negative controls
    p = toroids.ToroidParams(*cell)
    n = p.n
    rev = list(range(n, -1, -1))
    ident = list(range(n + 1))
    pg = perm_image(todd_coxeter(toroids.cubic_toroid_presentation(p)))
    hg = engine.halving_group(pg, (0, 1))
    h2 = engine.halving_group(hg, (n, n - 1))
    g, gh, gk, g2 = (engine.coset_geometry(x) for x in (
        pg, hg, engine.halving_group(pg, (n, n - 1)), h2))
    assert isomorphism_verdicts(g, g, rev) == (True, True)
    pairs = [(toroids.halved_presentation, gh)]
    if cell[1:] != (2, 2):
        pairs.append((toroids.double_halved_presentation, g2))
    for presentation, gx in pairs:
        gq = engine.coset_geometry(perm_image(todd_coxeter(presentation(p))))
        assert isomorphism_verdicts(gq, gx, ident) == (True, True)
    assert isomorphism_verdicts(gh, gk, rev) == (True, True)
    # the far leaf's halving without the type reversal
    assert isomorphism_verdicts(gh, gk, ident) == (False, False)
    # a generator map that is not a permutation
    assert isomorphism_verdicts(g, g, [1] + ident[1:]) == (False, False)
    # groups of different degree: the second halving always halves
    assert h2.degree < pg.degree
    assert isomorphism_verdicts(g, g2, ident) == (False, False)


def agreement_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if "presentation agreement" in r.getMessage()]


@pytest.mark.parametrize("cell", FAMILY_CELLS, ids=lambda c: "%d%d%d" % c)
def test_index_certificate_matches_the_full_comparison(cell, caplog):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    for name, pres, hg in halvings(cell):
        caplog.clear()
        diffs = []
        entry = toroids._agreement(pres, hg, name, diffs)
        line, = agreement_lines(caplog)
        assert " by parabolic index, " in line
        full_diffs = []
        full = toroids._full_agreement(pres, hg, name, full_diffs)
        assert entry == full and diffs == full_diffs == []
        assert list(entry) == list(full)


def test_agreement_certificate_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    (name, pres, hg), = halvings((3, 2, 2))
    toroids._agreement(pres, hg, name, [])
    line, = agreement_lines(caplog)
    assert re.fullmatch(r"halved: presentation agreement by parabolic "
                        r"index, index 8, \|P_K\| 48, order 384, "
                        r"\d+\.\d{3} s", line)


def assert_falls_back(pres, hg, caplog, want_diffs):
    """_agreement gives the full comparison's entry and diffs, decided
    by the full enumeration."""
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    caplog.clear()
    diffs = []
    entry = toroids._agreement(pres, hg, "halved", diffs)
    line, = agreement_lines(caplog)
    assert " by full enumeration, " in line
    full_diffs = []
    full = toroids._full_agreement(pres, hg, "halved", full_diffs)
    assert entry == full and diffs == full_diffs
    assert diffs == want_diffs
    return line


def test_index_certificate_negative_controls(caplog):
    (_, pres, hg), _ = halvings((3, 1, 3))
    # without its closure relators the halved presentation presents a
    # group four times larger: index 108 times |P_K| 48
    bare = GroupPresentation(pres.ngens, pres.relators[:7])
    line = assert_falls_back(bare, hg, caplog,
                             [("halved", "order", 5184, 1296)])
    assert "index 108, |P_K| 48, order 1296" in line
    # a relator that fails in hg: x0 = x1 collapses the presented group
    wrong = GroupPresentation(pres.ngens, pres.relators + ((0, 1),))
    line = assert_falls_back(wrong, hg, caplog,
                             [("halved", "order", 12, 1296)])
    assert "index None, |P_K| None" in line
    # a generator of order 3 (rho1 rho2 still generates with rho2)
    gens = list(hg.gens)
    gens[1] = perm_mul(gens[1], gens[2])
    odd = PermGroup(hg.degree, gens, regular=True, order=hg.order())
    assert_falls_back(pres, odd, caplog, [
        ("halved", "coxeter_matrix", coxeter_matrix(hg), coxeter_matrix(odd)),
        ("halved", "coset_geometry_iso", True, False)])


def test_index_certificate_needs_involutions(caplog):
    # C6 on a and a^-1 satisfies (x0 x1)^3, and index 3 times |<x1>| 2
    # is 6, but S3 is not C6: only the implicit x0^2 tells them apart
    a = (np.arange(6) + 1) % 6
    c6 = PermGroup(6, [a, np.argsort(a)], regular=True, order=6)
    s3 = GroupPresentation(2, [(0, 1) * 3])
    assert toroids._parabolic_index(s3, c6, None) == (None, None)
    assert_falls_back(s3, c6, caplog, [
        ("halved", "coxeter_matrix", ((1, 3), (3, 1)), ((1, 1), (1, 1))),
        ("halved", "coset_geometry_iso", True, False)])


def test_index_certificate_needs_a_regular_group(caplog):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    (_, pres, hg), _ = halvings((3, 1, 3))
    assert toroids._parabolic_index(pres, hg, None) == (27, 48)
    # the same permutations, not declared regular: every relator fixes
    # point 0 and 27 * 48 is the declared order, so only regularity
    # keeps the proof from reading points as group elements
    same = PermGroup(hg.degree, hg.gens, order=hg.order())
    assert toroids._parabolic_index(pres, same, None) == (None, None)
    # the action on the 27 cosets of <x1, x2, x3>
    cosets = perm_image(todd_coxeter(pres, subgens=[(1,), (2,), (3,)]))
    for group in (same, cosets):
        for agree in (toroids._agreement, toroids._full_agreement):
            with pytest.raises(errors.IncompleteTable, match="regular"):
                agree(pres, group, "halved", [])
    assert not agreement_lines(caplog)


def test_index_certificate_keeps_the_coset_limit():
    (_, pres, hg), _ = halvings((3, 3, 3))
    # the index of <x1, x2, x3> is 108
    for agree in (toroids._agreement, toroids._full_agreement):
        with pytest.raises(errors.Overflow) as exc:
            agree(pres, hg, "halved", [], max_cosets=100)
        assert exc.value.max_cosets == 100
