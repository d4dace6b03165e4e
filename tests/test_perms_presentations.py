import os
import subprocess
import sys
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperforge
from hyperforge import errors
from hyperforge import presentations as pres
from hyperforge.perms import (
    perm_mul, perm_order, orbit, subgroup_mask, parabolic_table,
    coxeter_matrix, intersection_property, PermGroup, bfs_tree, label_pairs,
    orbit_labels,
)
from hyperforge.toddcox import todd_coxeter, perm_image


def test_perm_mul_applies_left_first():
    a = np.array([1, 0, 2])
    b = np.array([0, 2, 1])
    # 0 -a-> 1 -b-> 2
    assert list(perm_mul(a, b)) == [2, 0, 1]


def test_perm_order():
    assert perm_order(np.array([0, 1, 2])) == 1
    assert perm_order(np.array([1, 0, 2])) == 2
    assert perm_order(np.array([1, 2, 0, 4, 3])) == 6


def test_orbit():
    cycle = np.array([1, 2, 3, 0, 5, 4])
    assert list(orbit(0, [cycle])) == [0, 1, 2, 3]
    assert list(orbit(4, [cycle])) == [4, 5]


def cycle_walk_order(p):
    """Order of a permutation by walking each of its cycles."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = int(p[x])
            length += 1
        if length:
            order = lcm(order, length)
    return order


@given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
@example(list(range(1)))
@example(list(range(60)))
@settings(max_examples=200, deadline=None)
def test_perm_order_against_cycle_walk(perm):
    p = np.array(perm, dtype=np.int64)
    assert perm_order(p) == cycle_walk_order(p)


@given(st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 9), min_size=n, max_size=n),
    st.lists(st.integers(0, 30), min_size=n, max_size=n))))
@settings(max_examples=200, deadline=None)
def test_label_pairs_against_row_unique(labellings):
    a, b = (np.array(x, dtype=np.int64) for x in labellings)
    pa, pb = label_pairs(a, b)
    rows = np.unique(np.stack([a, b], 1), axis=0)
    assert np.array_equal(pa, rows[:, 0])
    assert np.array_equal(pb, rows[:, 1])


@pytest.mark.parametrize("size", [0, 1, 1000, 10 ** 5])
def test_label_pairs_matches_np_unique(size):
    rng = np.random.default_rng(size)
    a = rng.integers(0, 50, size)
    b = rng.integers(0, 1 + size // 10, size)
    m = int(b.max()) + 1 if size else 1
    codes = np.unique(a * m + b)
    pa, pb = label_pairs(a, b)
    for got, want in ((pa, codes // m), (pb, codes % m)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def check_bfs_tree(gens, degree):
    reached = [0]
    for p, y, q in bfs_tree(gens, degree):
        # each edge leaves a point reached on an earlier level
        assert set(p.tolist()) <= set(reached)
        assert q.tolist() == [int(gens[k][v]) for k, v in zip(y, p)]
        reached.extend(q.tolist())
    assert len(reached) == len(set(reached))
    assert sorted(reached) == orbit(0, gens).tolist()


def test_bfs_tree_edge_cases():
    check_bfs_tree([], 5)
    # not transitive: the orbit of 0 is {0, 1, 2, 3}
    check_bfs_tree([np.array([1, 2, 3, 0, 5, 4])], 6)
    check_bfs_tree([np.array([1, 0, 2, 3]), np.array([0, 2, 1, 3])], 4)


@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.permutations(range(n)), max_size=3)), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_bfs_tree_against_orbit(perms, n):
    degree = len(perms[0]) if perms else n
    check_bfs_tree([np.array(p, dtype=np.int64) for p in perms], degree)


def first_occurrence_labels(gens, degree):
    """Orbit labels from orbit, numbered in order of first occurrence."""
    labels = np.full(degree, -1, dtype=np.int64)
    count = 0
    for x in range(degree):
        if labels[x] < 0:
            labels[orbit(x, gens)] = count
            count += 1
    return labels, count


def check_orbit_labels(gens, degree):
    labels, count = orbit_labels(gens, degree)
    want, want_count = first_occurrence_labels(gens, degree)
    assert labels.dtype == np.int64
    assert count == want_count
    assert np.array_equal(labels, want)


def test_orbit_labels_edge_cases():
    check_orbit_labels([], 0)
    check_orbit_labels([np.zeros(0, dtype=np.int64)], 0)
    check_orbit_labels([], 5)
    check_orbit_labels([np.array([1, 2, 3, 0, 5, 4])], 6)


def test_orbit_labels_on_long_orbits():
    # long orbits in shuffled order, which take hooking many rounds: one
    # cycle, and a path given by two involutions (a dihedral action)
    n = 10 ** 5
    rng = np.random.default_rng(7)
    walk = rng.permutation(n)
    cycle = np.empty(n, dtype=np.int64)
    cycle[walk] = np.roll(walk, -1)
    labels, count = orbit_labels([cycle], n)
    assert count == 1 and not labels.any()
    flips = []
    for start in (0, 1):
        s = np.arange(n)
        a, b = walk[start:n - 1:2], walk[start + 1:n:2]
        s[a], s[b] = b, a
        flips.append(s)
    labels, count = orbit_labels(flips, n)
    assert count == 1 and not labels.any()
    # without the second flip the path falls apart into its pairs
    labels, count = orbit_labels(flips[:1], n)
    assert count == n // 2
    assert np.array_equal(labels, first_occurrence_labels(flips[:1], n)[0])


@given(st.integers(1, 60).flatmap(lambda n: st.lists(
    st.permutations(range(n)), max_size=3)), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_orbit_labels_against_orbit(perms, n):
    degree = len(perms[0]) if perms else n
    check_orbit_labels([np.array(p, dtype=np.int64) for p in perms], degree)


def mulclose(gens, limit):
    """All products of the generators, as a set of tuples: the group
    closure, the reference for groups that are not given regularly."""
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            ax = np.asarray(x, dtype=np.int64)
            for g in gens:
                y = tuple(int(v) for v in np.asarray(g)[ax])
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > limit:
                        raise errors.SizeLimitExceeded(
                            "group closure exceeds %d" % limit)
        frontier = new
    return seen


def closure_intersection_property(pg):
    """intersection_property read off the element sets that mulclose
    builds, with the group taken as not regular."""
    n = pg.ngens
    sets = [frozenset(mulclose([pg.gens[i] for i in range(n) if s >> i & 1]
                               or [np.arange(pg.degree)], 10 ** 5))
            for s in range(1 << n)]
    return all(sets[a] & sets[b] == sets[a & b]
               for a in range(1 << n) for b in range(a + 1, 1 << n))


def regular_representation(perms):
    """The regular PermGroup of the group the perms generate, its
    points the elements in breadth-first order from the identity."""
    ident = tuple(range(len(perms[0])))
    elems, index = [ident], {ident: 0}
    for e in elems:  # grows while it is read
        for g in perms:
            y = tuple(g[x] for x in e)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    gens = [[index[tuple(g[x] for x in e)] for e in elems] for g in perms]
    return PermGroup(len(elems), gens, regular=True)


def test_intersection_property_on_random_groups():
    # 1 to 4 random permutations of 4 points, involutions or not, the
    # identity and repeats included
    rng = np.random.default_rng(22)
    verdicts = []
    for _ in range(1200):
        perms = [rng.permutation(4).tolist()
                 for _ in range(rng.integers(1, 5))]
        pg = regular_representation(perms)
        got = intersection_property(pg)
        assert got == closure_intersection_property(pg), perms
        verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


def test_mulclose_s3():
    gens = [np.array([1, 0, 2]), np.array([0, 2, 1])]
    assert len(mulclose(gens, 100)) == 6
    with pytest.raises(errors.SizeLimitExceeded):
        mulclose(gens, 3)


def test_import_pulls_in_no_scipy():
    # a fresh interpreter that finds the package where this one did
    src = os.path.dirname(os.path.dirname(hyperforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hyperforge; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


A3_MATRIX = ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def a3_group():
    return perm_image(todd_coxeter(pres.coxeter_presentation(A3_MATRIX)))


def test_regular_group_orders():
    pg = a3_group()
    assert pg.regular
    assert pg.order() == 24
    assert np.count_nonzero(subgroup_mask(pg, [0, 1])) == 6
    assert np.count_nonzero(subgroup_mask(pg, [0, 2])) == 4
    assert np.count_nonzero(subgroup_mask(pg, [1])) == 2
    assert np.count_nonzero(subgroup_mask(pg, [])) == 1


def test_parabolic_table_against_the_masks():
    pg = a3_group()
    code, order = parabolic_table(pg)
    assert parabolic_table(pg)[0] is code  # memoised on the group
    assert code.dtype == np.uint8
    for s in range(8):
        mask = subgroup_mask(pg, [i for i in range(3) if s >> i & 1])
        assert order[s] == np.count_nonzero(mask)
        if bin(s).count("1") == 2:
            j = (7 ^ s).bit_length() - 1
            assert np.array_equal(code >> j & 1 == 1, mask)


def test_coxeter_matrix_recovered():
    assert coxeter_matrix(a3_group()) == A3_MATRIX


def cyclic_group(m, shifts):
    """Regular representation of Z_m: point a is a, and the generator
    of shift c maps a to a + c; shift 1 comes first."""
    points = np.arange(m)
    return PermGroup(m, [(points + c) % m for c in [1, *shifts]],
                     regular=True)


def dihedral_group(m, elements):
    """Regular representation of D_m: point 2a + b is r^a s^b, and the
    generator (c, d) multiplies on the right by r^c s^d, which maps
    r^a s^b to r^(a + (-1)^b c) s^(b + d); r and s come first."""
    a, b = np.divmod(np.arange(2 * m), 2)
    return PermGroup(2 * m, [2 * ((a + (1 - 2 * b) * c) % m) + (b + d) % 2
                             for c, d in [(1, 0), (0, 1), *elements]],
                     regular=True)


@given(st.integers(1, 40), st.lists(st.tuples(st.integers(0, 39),
                                              st.integers(0, 1)),
                                    max_size=3))
@settings(max_examples=100, deadline=None)
def test_coxeter_matrix_of_regular_groups_against_perm_order(m, elements):
    # most generators are not involutions; the oracle reads every
    # product's order off all of its cycles, as for a group that is
    # not regular
    for pg in (cyclic_group(m, [c for c, _ in elements]),
               dihedral_group(m, elements)):
        oracle = PermGroup(pg.degree, pg.gens)
        assert coxeter_matrix(pg) == coxeter_matrix(oracle)


def test_coxeter_matrix_of_a_group_that_is_not_regular():
    # the first product, (1 2), fixes point 0 but has order 2
    swap = np.array([0, 2, 1, 3])
    four = np.array([1, 2, 3, 0])
    pg = PermGroup(4, [swap, np.arange(4), four])
    assert coxeter_matrix(pg) == ((1, 2, 3), (2, 1, 4), (3, 4, 1))


def test_intersection_property_holds_for_coxeter_group():
    assert intersection_property(a3_group())


def test_intersection_property_fails():
    # rotations of a square: <r, r> with redundant generators such
    # that <g0> and <g1> share the half-turn but <> is trivial
    # <r> acts regularly on its four points, with 0 as the identity
    r = np.array([1, 2, 3, 0])
    half = perm_mul(r, r)
    pg = PermGroup(4, [r, half], regular=True)
    assert not intersection_property(pg)
    assert not closure_intersection_property(pg)


def test_nonregular_group_order():
    # without a given order, a group that is not regular has none to report
    pg = PermGroup(3, [np.array([1, 0, 2]), np.array([0, 2, 1])])
    with pytest.raises(errors.IncompleteTable):
        pg.order()
    with pytest.raises(errors.IncompleteTable):
        subgroup_mask(pg, [0])
    with pytest.raises(errors.IncompleteTable):
        intersection_property(pg)
    assert PermGroup(3, pg.gens, order=6).order() == 6


def test_subgroup_points_needs_a_regular_group():
    pg = PermGroup(3, [np.array([1, 0, 2]), np.array([0, 2, 1])])
    with pytest.raises(errors.IncompleteTable):
        subgroup_mask(pg, [0])
    with pytest.raises(errors.IncompleteTable):
        parabolic_table(pg)


def test_coxeter_relators():
    rels = pres.coxeter_relators(((1, 3), (3, 1)))
    assert rels == [(0, 1, 0, 1, 0, 1)]
    with pytest.raises(errors.InvalidParams):
        pres.coxeter_relators(((2, 3), (3, 1)))
    with pytest.raises(errors.InvalidParams):
        pres.coxeter_relators(((1, 1), (1, 1)))


def test_presentation_validation():
    with pytest.raises(errors.InvalidParams):
        pres.GroupPresentation(2, [()])
    with pytest.raises(errors.InvalidParams):
        pres.GroupPresentation(2, [(0, 5)])
    assert pres.GroupPresentation(pres.MAX_NGENS, []).ngens \
        == pres.MAX_NGENS
    with pytest.raises(errors.InvalidParams):
        pres.GroupPresentation(pres.MAX_NGENS + 1, [])


def test_relator_parity():
    p = pres.GroupPresentation(2, [(0, 1, 0, 1), (1, 1)])
    assert pres.relator_parity_bipartite(p, 0)
    q = pres.GroupPresentation(2, [(0, 1, 1)])
    assert not pres.relator_parity_bipartite(q, 0)


def test_presentation_json_roundtrip():
    p = pres.GroupPresentation(3, [(0, 1, 0, 1), (1, 2)])
    assert pres.from_json(pres.to_json(p)) == p


@given(st.lists(st.lists(st.integers(min_value=0, max_value=2),
                         min_size=1, max_size=8),
                min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_relator_parity_matches_count(words):
    p = pres.GroupPresentation(3, words)
    for g in range(3):
        expect = all(w.count(g) % 2 == 0 for w in words)
        assert pres.relator_parity_bipartite(p, g) == expect
