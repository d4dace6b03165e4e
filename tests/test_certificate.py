"""The group-side hypertope certificate against the exhaustive scans.

toroids._certify decides thin + residually connected + flag-transitive
on the group side (C-group plus Tits' condition, read on the coset
geometry's labels), and
engine.coset_diagram reads the diagram from one residue per type
pair.  Wherever the flag scans of
geometry.py and iso.py also run, the two must agree.  On the same
stages, constructions.check_B2 must agree with (B2) read off its
definition at every ordered leaf.
"""

import itertools

import numpy as np
import pytest

from hyperforge import constructions as cons
from hyperforge import engine
from hyperforge import errors
from hyperforge import geometry as geo
from hyperforge import iso
from hyperforge import perms
from hyperforge import toroids
from hyperforge.perms import PermGroup, intersection_property, involutions
from hyperforge.presentations import coxeter_presentation
from hyperforge.toddcox import todd_coxeter, perm_image

from test_constructions import b2_by_definition
from test_engine import coset_label_mismatches
from test_perms_presentations import closure_intersection_property

# the envelope cells with at most 50,000 chambers
CELLS = [(3, 1, 3), (3, 1, 4), (3, 2, 2), (3, 2, 3), (3, 2, 4), (3, 3, 2),
         (3, 3, 3), (3, 3, 4), (4, 1, 3), (4, 2, 2), (4, 4, 2)]

STAGES = ("toroid", "halved", "double_halved")


def _group(pres):
    return perm_image(todd_coxeter(pres))


@pytest.fixture(scope="module")
def stage_groups():
    """cell -> the toroid group, its (0,1) halving and the (n,n-1)
    halving of that."""
    out = {}
    for (n, k, s) in CELLS:
        pg = _group(toroids.cubic_toroid_presentation(
            toroids.ToroidParams(n, k, s)))
        hg = engine.halving_group(pg, (0, 1))
        out[(n, k, s)] = (pg, hg, engine.halving_group(hg, (n, n - 1)))
    return out


def _certified(g):
    try:
        toroids._certify(g, "stage")
    except errors.PropertyViolation:
        return False
    return True


def _scanned(g):
    """Thin, residually connected and flag-transitive by flag scans."""
    try:
        return (geo.is_thin(g) and geo.is_residually_connected(g)
                and iso.is_flag_transitive(g, engine.natural_action(g)))
    except errors.NotAGeometry:
        return False


def _labels(d):
    return {pair: [lab for lab, _ in ent] for pair, ent in d.entries.items()}


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "%d%d%d" % c)
def test_certificate_agrees_with_flag_scans(stage_groups, cell):
    for stage, pg in zip(STAGES, stage_groups[cell]):
        g = engine.coset_geometry(pg)
        scanned = _scanned(g)
        assert scanned, (cell, stage)
        assert _certified(g) == scanned, (cell, stage)
        got = engine.coset_diagram(g)
        want = geo.buekenhout_diagram(g)
        assert got.shape() == want.shape(), (cell, stage)
        assert _labels(got) == _labels(want), (cell, stage)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "%d%d%d" % c)
def test_check_B2_matches_its_definition_on_stages(stage_groups, cell):
    verdicts = set()
    for stage, pg in zip(STAGES, stage_groups[cell]):
        g = engine.coset_geometry(pg)
        for leaf in itertools.permutations(range(g.rank), 2):
            want = b2_by_definition(g, leaf)
            assert cons.check_B2(g, leaf) == want, (cell, stage, leaf)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_degenerate_leaf_fails_the_intersection_property():
    pg = _group(toroids.cubic_toroid_presentation(
        toroids.ToroidParams(3, 1, 2)))
    hg = engine.halving_group(pg, (0, 1))
    g = engine.coset_geometry(hg)
    assert intersection_property(hg) is False
    assert closure_intersection_property(hg) is False
    assert not _scanned(g)
    with pytest.raises(errors.PropertyViolation,
                       match="intersection property fails"):
        toroids._certify(g, "degenerate halving")


def test_c_group_that_is_not_flag_transitive():
    # the triangle diagram [3,3,3] with (r0 r1 r2)^2: a C-group of
    # order 18 whose coset geometry is not flag-transitive
    pg = _group(coxeter_presentation(((1, 3, 3), (3, 1, 3), (3, 3, 1)),
                                     extra=((0, 1, 2) * 2,)))
    assert pg.order() == 18
    g = engine.coset_geometry(pg)
    assert intersection_property(pg) is True
    assert closure_intersection_property(pg) is True
    assert engine.tits_condition(g) is False
    assert iso.is_flag_transitive(g, engine.natural_action(g)) is False
    with pytest.raises(errors.PropertyViolation,
                       match="not flag-transitive"):
        toroids._certify(g, "triangle quotient")


def test_chamber_transitive_non_geometry():
    # a star diagram whose quotient by (r0 r1 r2 r3)^3 is transitive on
    # its chambers, but some maximal flags are not chambers: the
    # flags of some type form more than one orbit
    m = ((1, 3, 3, 3), (3, 1, 2, 2), (3, 2, 1, 2), (3, 2, 2, 1))
    pg = _group(coxeter_presentation(m, extra=((0, 1, 2, 3) * 3,)))
    g = engine.coset_geometry(pg)
    assert iso.is_flag_transitive(g, engine.natural_action(g)) is True
    assert not geo.is_geometry(g)
    assert not _scanned(g)
    with pytest.raises(errors.PropertyViolation,
                       match="not flag-transitive"):
        toroids._certify(g, "star quotient")


def _flag_transitive(g):
    """Flag-transitivity by flag scans: a geometry whose chambers the
    group permutes transitively."""
    return geo.is_geometry(g) and \
        iso.is_flag_transitive(g, engine.natural_action(g))


def test_tits_condition_on_triangle_quotients():
    # every quotient of the triangle groups [a,b,c] by (r0 r1 r2)^e,
    # a,b,c <= 4, e <= 6, against the scans, C-group or not
    verdicts = []
    for a, b, c in itertools.product((2, 3, 4), repeat=3):
        m = ((1, a, b), (a, 1, c), (b, c, 1))
        for e in range(1, 7):
            try:
                pg = perm_image(todd_coxeter(
                    coxeter_presentation(m, extra=((0, 1, 2) * e,)),
                    max_cosets=2000))
            except errors.Overflow:
                continue
            c_group = involutions(pg) and intersection_property(pg)
            assert coset_label_mismatches(pg) == [], (m, e)
            g = engine.coset_geometry(pg)
            tits = engine.tits_condition(g)
            assert tits == _flag_transitive(g), (m, e)
            if c_group:
                assert tits == _scanned(g), (m, e)
            if tits:
                got = engine.coset_diagram(g)
                want = geo.buekenhout_diagram(g)
                assert got.shape() == want.shape(), (m, e)
                assert _labels(got) == _labels(want), (m, e)
            verdicts.append((c_group, tits))
    assert verdicts.count((True, True)) == 53
    assert verdicts.count((True, False)) == 2
    assert verdicts.count((False, True)) == 98
    assert verdicts.count((False, False)) == 0


def test_generators_must_be_involutions():
    # the regular representation of the cyclic group of order 3
    r = np.array([1, 2, 0])
    pg = PermGroup(3, [r], regular=True)
    with pytest.raises(errors.PropertyViolation, match="involutions"):
        toroids._certify(engine.coset_geometry(pg), "cyclic")


def test_tits_condition_needs_a_regular_group():
    # the geometry that Tits' condition reads needs the regular group
    pg = PermGroup(3, [np.array([1, 0, 2]), np.array([0, 2, 1])])
    with pytest.raises(errors.IncompleteTable):
        engine.tits_condition(engine.coset_geometry(pg))


def test_certificate_builds_one_parabolic_table(monkeypatch, caplog):
    # verify_family's certificates and coset diagrams read one table
    # per certified group: one subgroup_mask per generator subset
    calls = []
    build = perms.subgroup_mask

    def counted(pg, subset):
        calls.append(pg)
        return build(pg, subset)
    monkeypatch.setattr(perms, "subgroup_mask", counted)
    caplog.set_level("DEBUG", logger="hyperforge")
    toroids.verify_family(toroids.ToroidParams(3, 1, 3), depth=2)
    certified = [r for r in caplog.records
                 if "C-group + Tits" in r.getMessage()]
    groups = {id(pg): pg for pg in calls}
    assert len(certified) == len(groups) == 3
    for pg in groups.values():
        assert sum(q is pg for q in calls) == 1 << pg.ngens
