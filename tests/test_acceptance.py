"""End-to-end checks of the package's core claims.

Expensive group builds are shared through module-scoped fixtures; all
expected values are exact (orders counted independently from lattice
indices and flags-per-cell, shapes frozen as literals).
"""

import hashlib
import json
import logging
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from hyperforge import constructions as cons
from hyperforge import dot
from hyperforge import engine
from hyperforge import geometry as geo
from hyperforge import iso
from hyperforge import toroids
from hyperforge.perms import PermGroup, intersection_property
from hyperforge.presentations import relator_parity_bipartite, \
    coxeter_presentation
from hyperforge.toddcox import todd_coxeter, perm_image

from conftest import relabel_types, standard_order, closed_form_group, \
    hlt_toroid_geometry
from test_engine import coset_label_mismatches

CELLS = [(n, k, s) for n in (3, 4) for k in (1, 2, n) for s in (2, 3, 4)
         if (k, s) != (1, 2)]

# group order = (lattice index: 1, 2 or 2^(n-1) times s^n) x flags per
# cubical cell (48 for n=3, 384 for n=4)
EXPECTED_ORDER = {
    (3, 1, 3): 1296, (3, 1, 4): 3072,
    (3, 2, 2): 768, (3, 2, 3): 2592, (3, 2, 4): 6144,
    (3, 3, 2): 1536, (3, 3, 3): 5184, (3, 3, 4): 12288,
    (4, 1, 3): 31104, (4, 1, 4): 98304,
    (4, 2, 2): 12288, (4, 2, 3): 62208, (4, 2, 4): 196608,
    (4, 4, 2): 49152, (4, 4, 3): 248832, (4, 4, 4): 786432,
}


@pytest.fixture(scope="module")
def envelope():
    # each _agreement call ends on a DEBUG line naming its certificate
    logger = logging.getLogger("hyperforge")
    lines = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: lines.append(record.getMessage())
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return envelope_records(lines)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def envelope_records(lines):
    records = {}
    for (n, k, s) in CELLS:
        p = toroids.ToroidParams(n, k, s)
        pres = toroids.cubic_toroid_presentation(p)
        pg = perm_image(todd_coxeter(pres))
        tracemalloc.start()
        try:
            g = engine.coset_geometry(pg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adj, _ = cons.truncation_graph(g, (0, 1))
        rec = {
            "order": pg.order(),
            "coset_geometry_peak": peak,
            "relator_bipartite": relator_parity_bipartite(pres, 0),
            "truncation_bipartite": cons.parity_classes(adj).bipartite,
        }
        hg = engine.halving_group(pg, (0, 1))
        groups = {"toroid": pg, "halved": hg}
        rec["h_order"] = hg.order()
        # presented group vs directly computed subgroup
        rec["halved_diffs"] = []
        rec["halved"] = toroids._agreement(
            toroids.halved_presentation(p), hg, "halved",
            rec["halved_diffs"])
        rec["halved_log"] = lines[-1]
        if (k, s) != (2, 2):
            h2 = groups["double_halved"] = engine.halving_group(hg, (n, n - 1))
            rec["h2_order"] = h2.order()
            rec["double_diffs"] = []
            rec["double"] = toroids._agreement(
                toroids.double_halved_presentation(p), h2, "double_halved",
                rec["double_diffs"])
            rec["double_log"] = lines[-1]
        # the closed-form group against HLT's, both in the standard
        # coset-table order
        rec["closed_form_equals_hlt"] = np.array_equal(
            standard_order(pg), standard_order(closed_form_group((n, k, s))))
        # the oracle's labelling of each group of at most 100,000 points
        rec["label_mismatches"] = {
            stage: coset_label_mismatches(group)
            for stage, group in groups.items() if group.degree <= 100000}
        records[(n, k, s)] = rec
    return records


def test_envelope_orders(envelope):
    for cell in CELLS:
        assert envelope[cell]["order"] == EXPECTED_ORDER[cell], cell


def test_envelope_coset_labels_match_the_oracle(envelope):
    checked = 0
    for cell in CELLS:
        for stage, bad in envelope[cell]["label_mismatches"].items():
            assert bad == [], (cell, stage)
            checked += 1
    # 46 groups, less the three toroids and three halvings above 100,000
    assert checked == 40


def test_closed_form_equals_hlt_on_the_envelope(envelope):
    for cell in CELLS:
        assert envelope[cell]["closed_form_equals_hlt"], cell


@pytest.mark.parametrize("cell", [(3, 1, 2), (4, 1, 2)],
                         ids=lambda c: "%d%d%d" % c)
def test_closed_form_equals_hlt_on_the_degenerate_cells(cell):
    # (k, s) = (1, 2), outside the envelope: the toroid, not its halving
    pres = toroids.cubic_toroid_presentation(toroids.ToroidParams(*cell))
    hlt = perm_image(todd_coxeter(pres))
    assert np.array_equal(standard_order(hlt),
                          standard_order(closed_form_group(cell)))


def test_standard_order_tells_groups_apart(toroid_313):
    # the oracle tells two generators swapped from the group, and not
    # the same generators on other point numbers
    pg, _ = toroid_313
    table = standard_order(pg)
    swapped = PermGroup(pg.degree, [pg.gens[1], pg.gens[0]] + pg.gens[2:])
    assert not np.array_equal(standard_order(swapped), table)
    shuffle = np.random.default_rng(5).permutation(pg.degree)
    shuffle[shuffle == 0], shuffle[0] = shuffle[0], 0
    inverse = np.argsort(shuffle)
    renamed = PermGroup(pg.degree, [shuffle[g[inverse]] for g in pg.gens])
    assert np.array_equal(standard_order(renamed), table)


def test_coset_geometry_memory(envelope):
    # traced peak of coset_geometry on the (4,1,4) toroid group, 98,304
    # points: 9.6 MB with the labels from a search over cosets, 21.4 MB
    # when orbit_labels labelled the orbits of the left multiplications
    assert envelope[(4, 1, 4)]["coset_geometry_peak"] < 12 * 2 ** 20


def test_toroid_313_is_a_regular_polytope(toroid_313):
    pg, g = toroid_313
    assert pg.order() == 1296  # 27 cubes times 48 flags each
    assert g.type_counts() == (27, 81, 81, 27)
    assert geo.is_geometry(g)
    assert geo.is_thin(g)
    assert geo.is_residually_connected(g)
    assert iso.is_flag_transitive(g, engine.natural_action(g))
    d = geo.buekenhout_diagram(g)
    assert d.edge_labels() == {(0, 1): 4, (1, 2): 3, (2, 3): 4}


def test_bipartiteness_law(envelope):
    for (n, k, s) in CELLS:
        rec = envelope[(n, k, s)]
        expected = not (k % 2 == 1 and s % 2 == 1)
        assert rec["relator_bipartite"] == expected, (n, k, s)
        assert rec["truncation_bipartite"] == expected, (n, k, s)


def test_halving_index(envelope):
    for (n, k, s) in CELLS:
        rec = envelope[(n, k, s)]
        if rec["truncation_bipartite"]:
            assert rec["h_order"] == rec["order"] // 2, (n, k, s)
        else:
            assert rec["h_order"] == rec["order"], (n, k, s)


def test_group_halving_matches_combinatorial_halving(toroid_313,
                                                     toroid_314):
    # non-bipartite cell: the one-fiber-per-class branch
    pg, g = toroid_313
    h = cons.halving_geometry(g, (0, 1))
    assert h.construction.kind == "P"
    gh = engine.coset_geometry(engine.halving_group(pg, (0, 1)))
    assert iso.isomorphic(gh, h)

    # bipartite cell: the two-sides branch
    pg, g = toroid_314
    h = cons.halving_geometry(g, (0, 1))
    assert h.construction.kind == "BP"
    gh = engine.coset_geometry(engine.halving_group(pg, (0, 1)))
    assert iso.isomorphic(gh, h)


def test_presentation_agreement_halved(envelope):
    for cell in CELLS:
        entry = envelope[cell]["halved"]
        assert envelope[cell]["halved_diffs"] == [], cell
        assert entry["coxeter_matrix_equal"] is True, cell
        assert entry["coset_geometry_isomorphic"] is True, cell
        assert envelope[cell]["halved_log"].startswith(
            "halved: presentation agreement by parabolic index, "), cell


def test_presentation_agreement_double_halved(envelope):
    for (n, k, s) in CELLS:
        rec = envelope[(n, k, s)]
        if (k, s) == (2, 2):
            assert "double" not in rec
            continue
        assert rec["h2_order"] == rec["h_order"] // 2, (n, k, s)
        entry = rec["double"]
        assert rec["double_diffs"] == [], (n, k, s)
        assert entry["coxeter_matrix_equal"] is True, (n, k, s)
        assert entry["coset_geometry_isomorphic"] is True, (n, k, s)
        assert rec["double_log"].startswith(
            "double_halved: presentation agreement by parabolic index, "), \
            (n, k, s)


def test_hemicube_halving_gives_tetrahedron(hemicube, tetrahedron):
    pg, g = hemicube
    assert cons.check_B1(g, (0, 1)) is True
    assert cons.check_B1(g, (2, 1)) is False
    assert cons.check_B2(g, (0, 1)) is False
    hg = engine.halving_group(pg, (0, 1))
    assert hg.order() == 24
    gh = engine.coset_geometry(hg)
    # the diagram path of the halved group runs 0-2-1, so the facet
    # role sits at type 1
    relabelled = relabel_types(gh, {0: 0, 1: 2, 2: 1})
    assert relabelled.type_counts() == (4, 6, 4)
    assert iso.isomorphic(relabelled, tetrahedron)


def test_degenerate_leaf_is_not_a_c_group():
    p = toroids.ToroidParams(3, 1, 2)
    pres = toroids.cubic_toroid_presentation(p)
    pg = perm_image(todd_coxeter(pres))
    g = engine.coset_geometry(pg)
    assert cons.check_B1(g, (0, 1)) is False
    hg = engine.halving_group(pg, (0, 1))
    assert intersection_property(hg) is False


def test_tetrahedral_ditope_halving():
    # two tetrahedral facets glued along their whole boundary
    m = toroids.diagram_matrix(4, {(0, 1): 3, (1, 2): 3})
    pg = perm_image(todd_coxeter(coxeter_presentation(m)))
    assert pg.order() == 48
    g = engine.coset_geometry(pg)
    assert g.type_counts() == (4, 6, 4, 2)
    assert cons.check_B1(g, (0, 1)) is True
    assert cons.check_B2(g, (0, 1)) is True
    h = cons.halving_geometry(g, (0, 1))
    assert h.type_counts() == (4, 4, 4, 2)
    assert geo.is_geometry(h)
    assert geo.is_thin(h)
    assert geo.is_residually_connected(h)
    assert iso.is_flag_transitive(h)


@pytest.fixture(scope="module")
def partitioned_313(toroid_313):
    pg, g = toroid_313
    hp = cons.p_construction(g, (0, 1))
    chambers = geo.enumerate_chambers(hp)
    return g, hp, chambers


def _complement_set(hp, e):
    data = hp.construction
    x = data.bases[e]
    ci = data.tags[e][1]
    sib = data.index.get((x, ("class", 1 - ci)))
    return data.class_sets[sib if sib is not None else e]


def test_partitioned_toroid_properties(partitioned_313):
    g, hp, chambers = partitioned_313
    assert hp.type_counts() == (27, 27, 162, 54)
    assert geo.is_geometry(hp)
    assert geo.is_thin(hp)
    assert geo.is_residually_connected(hp)
    assert len(chambers) == 1296


def test_chamber_class_coherence(partitioned_313):
    g, hp, chambers = partitioned_313
    data = hp.construction
    for ch in chambers:
        e0, e1, e2, e3 = ch  # element ids are grouped by type
        p, q = data.bases[e0], data.bases[e1]
        classes = [data.class_sets[e] for e in (e2, e3)]
        comps = [_complement_set(hp, e) for e in (e2, e3)]
        assert p in classes[0] and p in classes[1]
        assert q in comps[0] and q in comps[1]
        assert classes[0] & classes[1]


def test_residue_laws_on_random_flags(partitioned_313):
    g, hp, chambers = partitioned_313
    data = hp.construction
    rng = random.Random(1296)
    for ch in rng.sample(chambers, 50):
        e0, e1, e2, e3 = ch
        p, q = data.bases[e0], data.bases[e1]
        x2, x3 = data.bases[e2], data.bases[e3]

        # a fiber element's residue is the base vertex residue
        assert iso.isomorphic(geo.residue(hp, [e0]),
                              geo.residue(g, [p]))
        # ... and stays so alongside a class element
        assert iso.isomorphic(geo.residue(hp, [e0, e3]),
                              geo.residue(g, [p, x3]))
        # both fibers together pin the unique base edge
        edge = min(geo.shadow(g, p, 1) & geo.shadow(g, q, 1))
        assert iso.isomorphic(geo.residue(hp, [e0, e1]),
                              geo.residue(g, [p, edge]))
        # cotype {0,1}: a partitioned neighborhood of the base residue
        adjF, _ = cons.truncation_graph(g, (0, 1), (x2, x3))
        P = frozenset(data.class_sets[e2] & data.class_sets[e3]
                      & set(adjF))
        assert P in cons.parity_classes(adjF).classes
        assert iso.isomorphic(geo.residue(hp, [e2, e3]),
                              cons.partitioned_neighborhood(adjF, P))
        # a single class element: the construction recurses
        for e, x in ((e2, x2), (e3, x3)):
            res = geo.residue(g, [x])
            assert iso.isomorphic(
                geo.residue(hp, [e]),
                cons.halving_geometry(res, (0, 1), force=True))


def test_duality_is_an_order_two_correlation(partitioned_313):
    g, hp, _ = partitioned_313
    alpha = cons.duality_correlation(hp)
    swap = {0: 1, 1: 0, 2: 2, 3: 3}
    assert any(alpha[e] != e for e in range(hp.nelements))
    for e in range(hp.nelements):
        assert alpha[alpha[e]] == e
        assert hp.type_of[alpha[e]] == swap[hp.type_of[e]]
    for x, y in hp.incidence_pairs():
        assert hp.incident(alpha[x], alpha[y])


def test_inherited_action_is_chamber_transitive(partitioned_313):
    g, hp, chambers = partitioned_313
    act = cons.transfer_action(hp, engine.natural_action(g))
    iso.validate_action(hp, act)
    assert iso.is_flag_transitive(hp, act)


def _incidence_girth_half(pn):
    """Gonality oracle: girth of the incidence graph by BFS, halved."""
    girth = None
    for src in range(pn.nelements):
        dist = {src: 0}
        parent = {src: -1}
        todo = [src]
        while todo:
            nxt = []
            for u in todo:
                for v in pn.adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif v != parent[u] and dist[v] >= dist[u]:
                        c = dist[u] + dist[v] + 1
                        if girth is None or c < girth:
                            girth = c
            todo = nxt
    return None if girth is None else girth // 2


def test_gonality_law_on_random_graphs():
    rng = random.Random(826)
    checked = 0
    trials = 0
    while checked < 500 and trials < 5000:
        trials += 1
        nverts = rng.randint(2, 7)
        gnx = nx.gnp_random_graph(nverts, rng.uniform(0.25, 0.9),
                                  seed=rng.randrange(10 ** 9))
        if not nx.is_connected(gnx):
            continue
        adj = {v: tuple(sorted(gnx[v])) for v in gnx}
        predicted = cons.gonality_formula(adj)
        for P in cons.parity_classes(adj).classes:
            pn = cons.partitioned_neighborhood(adj, P)
            assert predicted == _incidence_girth_half(pn), adj
        checked += 1
    assert checked >= 500


FAMILY_CELLS = [(3, 1, 3), (3, 1, 4), (4, 1, 3), (4, 2, 2)]

EXPECTED_SHAPES = {
    3: {
        "toroid": ((1, 1, 2, 2), (3, 4, 4)),
        "halved": ((1, 1, 1, 3), (3, 3, 4)),
        "double_halved": ((2, 2, 2, 2), (3, 3, 3, 3)),
    },
    4: {
        "toroid": ((1, 1, 2, 2, 2), (3, 3, 4, 4)),
        "halved": ((1, 1, 1, 2, 3), (3, 3, 3, 4)),
        "double_halved": ((1, 1, 1, 1, 4), (3, 3, 3, 3)),
    },
}


@pytest.fixture(scope="module")
def family_reports():
    return {cell: toroids.verify_family(toroids.ToroidParams(*cell),
                                        depth=2)
            for cell in FAMILY_CELLS}


def test_family_diagram_shapes(family_reports):
    for (n, k, s), report in family_reports.items():
        assert report["ok"], (n, k, s)
        for stage, shape in EXPECTED_SHAPES[n].items():
            data = report["stages"][stage]
            assert data["diagram_shape"] == shape, (n, k, s, stage)
            assert data["diagram_matches"] is True, (n, k, s, stage)


def test_family_double_halving_is_always_bipartite(family_reports):
    for (n, k, s), report in family_reports.items():
        assert report["stages"]["double_halved"]["bp_branch"] is True, \
            (n, k, s)


# sha256 of outputs that must stay byte-identical while the internals
# are refactored: the P and BP halvings of the toroid groups that HLT
# enumerates (the route of build coset), a DOT diagram and the
# verify_family reports
GOLDEN_DIGESTS = {
    "halve_313": "f2bb8073e44b65a311390095f9142b78"
                 "92b1bf63ff8b91747ee8001a2e2530e8",
    "halve_314": "030de6821749b55fd62c8896f56f59e4"
                 "45b4a1deb7fe5796c8fb9db4fcea75fe",
    "dot_313": "53e744f29c1480d4e8dc3c3ebb6c235b"
               "b1b4fe541b5f0c78ab7e418b9f7bdc2a",
    (3, 1, 3): "4dd76a830b287134a33f6239a2305b99"
               "0cfc5352aa1d7cfb1b9b65d01b43521f",
    (3, 1, 4): "9e6fdc470c1cfa66099a11e6d01e9a77"
               "e2a749da6e73a90a458cc2ba29b73512",
    (4, 1, 3): "3a38dcfe84d52eedf6bbe9e9b316cbe2"
               "e5739ccca28f84110070db59e545059a",
    (4, 2, 2): "2011084e765d03a01e48b5bab758d42c"
               "85f47bcdf5b6ccc4648a7f638f8d15e5",
}


# sha256 of more halvings of HLT's toroid groups, taken before H(Gamma)
# was built on the incidence arrays: the P rule on (3,3,3), the BP rule
# on (4,2,2), and the second halvings, at (n,n-1), of (3,1,3) and (3,1,4)
HALVING_DIGESTS = {
    ((3, 3, 3), "P"): "3084ff0448d425bb66a942d5f504c9c7"
                      "8f2c04f318cc7df9757405217115d0dc",
    ((4, 2, 2), "BP"): "7e67d670eddeab372c112d65780b73e9"
                       "db4ff2bc22af22251523efa757185ba6",
    ((3, 1, 3), "P", "BP"): "5bd285850100f62baf08a080e16d51e0"
                            "e0104e24963f3722f2c5ff86cffdd1c2",
    ((3, 1, 4), "BP", "BP"): "a471139e296db2f28d05d4824f8c42be"
                             "3249e2979660314dc93d5a4ffbb19892",
}


# the same halvings of the closed-form toroid groups of
# build_cubic_toroid, whose points are numbered otherwise
CLOSED_FORM_DIGESTS = {
    ((3, 1, 3), "P"): "7a73a552e635f7e7cfd19feecc1b3aee"
                      "6ea250680f0a87c7f25f1600811c7b22",
    ((3, 1, 4), "BP"): "7e46703026f03936ae0181e526e5b17d"
                       "89e8620aa089caa7068c65b9f1e16e14",
    ((3, 3, 3), "P"): "faae4feb776841c25df2c73f8563d829"
                      "5e447c620dafc14b70561fbd6a0d89db",
    ((4, 2, 2), "BP"): "88ed3ee9d070785afab09f9a17c4ca89"
                       "2233ade5e14f750ce417e3bd47550687",
    ((3, 1, 3), "P", "BP"): "51c20910dafb188ccbbb516e8def58e3"
                            "2b80a36b26f169f83dc707f13b798a85",
    ((3, 1, 4), "BP", "BP"): "e7984b2f0c02701e17d39f6ae9188c09"
                             "39a908567f6a282453c5d90901b09f15",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def halving_digests(toroid, keys):
    """sha256 of each halving named by keys, (cell, kind of the (0,1)
    halving[, kind of the (n,n-1) halving of that]), on the toroid
    geometries that toroid(cell) gives."""
    got = {}
    for key in keys:
        params, kinds = key[0], key[1:]
        h = toroid(params)
        # the kinds the halvings at (0,1), then (n,n-1), must take
        for leaf, kind in zip(((0, 1), (params[0], params[0] - 1)), kinds):
            h = cons.halving_geometry(h, leaf)
            assert h.construction.kind == kind, key
        got[key] = _digest(geo.to_json(h))
    return got


def test_halving_digests():
    assert halving_digests(hlt_toroid_geometry, HALVING_DIGESTS) \
        == HALVING_DIGESTS


def test_closed_form_halving_digests():
    def toroid(cell):
        return toroids.build_cubic_toroid(toroids.ToroidParams(*cell))[1]
    assert halving_digests(toroid, CLOSED_FORM_DIGESTS) \
        == CLOSED_FORM_DIGESTS


def test_golden_output_digests(toroid_313, family_reports):
    _, g313 = toroid_313
    got = {
        "halve_313": _digest(geo.to_json(cons.halving_geometry(
            hlt_toroid_geometry((3, 1, 3)), (0, 1)))),
        "halve_314": _digest(geo.to_json(cons.halving_geometry(
            hlt_toroid_geometry((3, 1, 4)), (0, 1)))),
        "dot_313": _digest(dot.diagram_to_dot(g313)),
    }
    for cell, report in family_reports.items():
        got[cell] = _digest(json.dumps(report, sort_keys=True, default=str))
    assert got == GOLDEN_DIGESTS
