"""Cubic toroid factory and the halved/double-halved presentations.

The toroids are the quotients of the cubic tessellation of n-space by
the translation lattice generated by (s^k, 0^(n-k)) with k in {1,2,n}.
Their symmetry groups, presented by one extra relator on top of the
linear Coxeter diagram 4-3-...-3-4, are built in closed form and proven
equal to the presented group by the index of a finite parabolic
(_closed_form_group); the halving subgroups have closed-form
presentations on Y- and cycle-shaped diagrams, which verify_family
checks against direct subgroup computation by the same index.

Every stage is certified a regular hypertope on the group side, by
the same argument at every size: a C-group whose coset geometry
satisfies Tits' flag-transitivity condition (see _certify).
"""

import logging
import math
import time
from itertools import permutations, product

import numpy as np

from .errors import InvalidParams, UnsupportedCase, PropertyViolation, \
    MismatchReport, Overflow, IncompleteTable
from .presentations import GroupPresentation, coxeter_presentation, \
    relator_parity_bipartite
from .toddcox import todd_coxeter, perm_image, coset_limit, check_relators
from .geometry import diagram_shape
from .perms import PermGroup, coxeter_matrix, intersection_property, \
    involutions, orbit_labels
from . import engine
from . import constructions as cons

log = logging.getLogger("hyperforge")


class ToroidParams:
    """Parameters (n, k, s) of the toroid {4,3^(n-2),4}_(s^k,0^(n-k))."""

    def __init__(self, n, k, s):
        if n < 3:
            raise InvalidParams("n must be at least 3")
        if k not in (1, 2, n):
            raise InvalidParams("k must be 1, 2 or n")
        if s < 2:
            raise InvalidParams("s must be at least 2")
        self.n = n
        self.k = k
        self.s = s

    def __repr__(self):
        return "ToroidParams(n=%d, k=%d, s=%d)" % (self.n, self.k, self.s)


def diagram_matrix(rank, edges):
    """Coxeter matrix from a diagram given as {(i,j): label}; missing
    pairs commute."""
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1
    for (i, j), label in edges.items():
        m[i][j] = label
        m[j][i] = label
    return tuple(tuple(row) for row in m)


def linear_matrix(n):
    """The linear diagram 4-3-...-3-4 on n+1 nodes."""
    edges = {(t, t + 1): 3 for t in range(n)}
    edges[(0, 1)] = 4
    edges[(n - 1, n)] = 4
    return diagram_matrix(n + 1, edges)


def halved_matrix(n):
    """Y diagram: node 2 forked to 0 and 1 by 3-edges, then a 3-chain
    ending in a 4-edge at the far end."""
    edges = {(0, 2): 3, (1, 2): 3}
    for t in range(2, n - 1):
        edges[(t, t + 1)] = 3
    edges[(n - 1, n)] = 4
    return diagram_matrix(n + 1, edges)


def double_halved_matrix(n):
    """Diagram after halving both ends: a 4-cycle for n=3, a fork at
    each end of a 3-chain for n >= 4."""
    if n == 3:
        edges = {(0, 2): 3, (1, 2): 3, (1, 3): 3, (0, 3): 3}
    else:
        edges = {(0, 2): 3, (1, 2): 3, (n - 2, n): 3}
        for t in range(2, n - 1):
            edges[(t, t + 1)] = 3
    return diagram_matrix(n + 1, edges)


def _word(*parts):
    out = []
    for part in parts:
        out.extend(part)
    return tuple(out)


def _up(a, b):
    return list(range(a, b + 1))


def _down(a, b):
    return list(range(a, b - 1, -1))


def cubic_toroid_presentation(p):
    """Linear Coxeter relators plus (r0 r1 ... rn r(n-1) ... rk)^(ks)."""
    n, k, s = p.n, p.k, p.s
    base = _word(_up(0, n), _down(n - 1, k))
    return coxeter_presentation(linear_matrix(n), extra=(base * (k * s),))


def predict_truncation_bipartite(p):
    """The vertex-edge graph is bipartite unless k and s are both odd."""
    return not (p.k % 2 == 1 and p.s % 2 == 1)


def predict_degenerate_leaf(p):
    """The (0,1) leaf collapses exactly for (k, s) = (1, 2)."""
    return p.k == 1 and p.s == 2


def _substitute(relators, repl):
    """Replace generator 0 by the word repl inside each relator that
    mentions it; other relators are dropped (already implied)."""
    return [_word(*(repl if x == 0 else (x,) for x in w))
            for w in relators if 0 in w]


def _halving_closure(p, w):
    """Extra relators pinning the non-bipartite halved presentation,
    given the halved word w of its extra relator.

    When the vertex-edge graph is non-bipartite the halving subgroup
    is the whole group, so the old generator is itself a word in the
    new ones; substituting that word back into every old relator (and
    adding the definition of the replaced generator) yields a
    complete presentation.
    """
    n, k, s = p.n, p.k, p.s
    if k == 1:
        old0 = _word(_up(1, n), _down(n - 1, 1), w * (s - 1))
    else:  # k == n
        old0 = _word(_up(1, n), w * ((n * s - 1) // 2))
    closure = _substitute(cubic_toroid_presentation(p).relators, old0)
    # the new generator really is old0 conjugating rho_1
    closure.append(tuple(_word([0], old0, [1], old0[::-1])))
    return tuple(closure)


def _extra_power(p):
    """Exponent of the extra relator of both halved presentations."""
    n, k, s = p.n, p.k, p.s
    if k == 1:
        return 2 * s if s % 2 == 1 else s
    if k == 2:
        return s
    return n * s if s % 2 == 1 and n % 2 == 1 else n * s // 2


def halved_presentation(p):
    """Presentation of the subgroup <r0 r1 r0, r1, ..., rn> on the Y
    diagram: the closed-form extra relator per parity case of (k, s),
    plus closure relators for the non-bipartite cases."""
    n, k = p.n, p.k
    if predict_degenerate_leaf(p):
        raise UnsupportedCase("degenerate leaf for (k,s)=(1,2)")
    if k == 1:
        w = _word([0], _up(2, n), _down(n - 1, 2), [1])
    elif k == 2:
        w = _word([0], _up(2, n), _down(n - 1, 2), [1],
                  _up(2, n), _down(n - 1, 2))
    else:
        w = _word([0], _up(2, n), [1], _up(2, n))
    extra = (w * _extra_power(p),)
    if not predict_truncation_bipartite(p):
        extra = extra + _halving_closure(p, w)
    return coxeter_presentation(halved_matrix(n), extra=extra)


def _rewrite_even_subgroup(relators, m, j):
    """Index-2 rewriting: relators of the subgroup of words with an
    even count of generator m, on generators that keep their index
    except that index m becomes the conjugate (m j m).

    Standard two-coset Reidemeister-Schreier: scan each relator from
    both cosets, dropping the letters m (they switch cosets) and
    replacing a letter x seen in the far coset by its conjugate,
    which is the new generator for x = j and equals x otherwise
    (since x and m commute)."""
    out = []
    for w in relators:
        for start in (0, 1):
            c = start
            word = []
            for x in w:
                if x == m:
                    c ^= 1
                elif c == 0:
                    word.append(x)
                else:
                    word.append(m if x == j else x)
            if c != start:
                raise UnsupportedCase(
                    "relator has odd count of generator %d" % m)
            if word:
                out.append(tuple(word))
    return tuple(dict.fromkeys(out))


def double_halved_presentation(p):
    """Presentation of the subgroup after halving both leafs, with
    r~0 = r0 r1 r0 at index 0 and r~n = rn r(n-1) rn at index n: the
    closed-form extra relator per case, plus the rewriting of the
    halved presentation into the index-2 subgroup (the second
    truncation is always bipartite)."""
    n, k, s = p.n, p.k, p.s
    if (k, s) in ((1, 2), (2, 2)):
        raise UnsupportedCase("excluded case (k,s)=(%d,%d)" % (k, s))
    if k == 1:
        w = _word([0], _up(2, n), _down(n - 2, 2), [1])
    elif (n, k) == (3, 2):
        # the general k = 2 word, (0, 2, 3, 1, 2, 3), presents the same
        # group; this one keeps the presentation's JSON stable
        w = (0, 2, 1, 3, 1, 2)
    elif k == 2:
        w = _word([0], _up(2, n), _down(n - 2, 2), [1],
                  _up(2, n), _down(n - 2, 2))
    else:
        w = _word([0], _up(2, n - 1), [1], _up(2, n - 2), [n])
    closure = _rewrite_even_subgroup(halved_presentation(p).relators,
                                     n, n - 1)
    return coxeter_presentation(double_halved_matrix(n),
                                extra=(w * _extra_power(p),) + closure)


def matrix_shape(m):
    """(sorted node degrees, sorted labels) of the diagram edges with
    label above 2."""
    rank = len(m)
    return diagram_shape(rank, {(i, j): m[i][j] for i in range(rank)
                                for j in range(i + 1, rank) if m[i][j] > 2})


def _certify(g, context):
    """Certify that the coset geometry g of a regular group pg is a
    thin, residually connected, flag-transitive regular hypertope.

    pg is a C-group when its generators are involutions and it has the
    intersection property; Tits' condition on the coset labels of g
    then decides flag-transitivity (engine.tits_condition), and the
    coset geometry of a C-group that is flag-transitive is a regular
    hypertope (Fernandes-Leemans-Weiss, "Highly symmetric hypertopes",
    2016, Thm 4.6).  Both read the group's perms.parabolic_table, as
    the coset diagram does.  Raises PropertyViolation naming the step.
    """
    start = time.perf_counter()
    pg = g.coset_data.pg
    if not involutions(pg):
        raise PropertyViolation("%s: generators are not involutions"
                                % context)
    if not intersection_property(pg):
        raise PropertyViolation("%s: intersection property fails"
                                % context)
    if not engine.tits_condition(g):
        raise PropertyViolation("%s: not flag-transitive" % context)
    log.debug("%s: C-group + Tits, order %d, %.3f s", context, pg.order(),
              time.perf_counter() - start)


def _diagram_fields(g, expected):
    """The diagram fields of a verify_family stage: the shape of the
    Buekenhout diagram of the certified coset geometry g, read from
    one residue per type pair, against that of the Coxeter matrix
    expected."""
    shape = engine.coset_diagram(g).shape()
    want = matrix_shape(expected)
    return {"diagram_shape": shape, "diagram_expected": want,
            "diagram_matches": shape == want}


def _class_radix(p):
    """Radices of the classes of Z^n/L, for L = sZ^n (k = 1), s D_n
    (k = 2) or s(2Z^n + Z(1, ..., 1)) (k = n): class t has the least
    representative with coordinates t // prod(radix[:i]) % radix[i]."""
    n, k, s = p.n, p.k, p.s
    return [2 * s if (k == 2 and i == 0) or (k == n and i > 0) else s
            for i in range(n)]


def toroid_factors(p):
    """(sigma, tau) of the toroid group, that of the tessellation's maps
    v -> Av + b modulo L (McMullen-Schulte, Abstract Regular Polytopes,
    2002, 6D): rho_0: x_1 -> 1 - x_1, rho_j: x_j <-> x_(j+1), rho_n:
    x_n -> -x_n.  w -> rho_x w sends (A, b) to (A_x A, A_x b + b_x), so
    sigma[x] acts on the signed permutations A, numbered by A(1, ..., n)
    identity first, and tau[x] on the classes b (_class_radix)."""
    n, k, s = p.n, p.k, p.s
    a = (np.array(list(permutations(range(1, n + 1))))[:, None]
         * np.array(list(product((1, -1), repeat=n)))).reshape(-1, n)
    code = (2 * n + 1) ** np.arange(n)
    keys = (a + n) @ code
    order = np.argsort(keys)
    radix = _class_radix(p)
    place = np.cumprod([1] + radix[:-1])
    b = np.arange(math.prod(radix))[:, None] // place % radix
    sigma, tau = [], []
    for x in range(n + 1):
        cols, sign = np.arange(n), np.ones(n, dtype=np.int64)
        if 0 < x < n:
            cols[x - 1:x + 1] = x, x - 1
        else:
            sign[max(x - 1, 0)] = -1
        keyed = (a[:, cols] * sign + n) @ code
        sigma.append(order[np.searchsorted(keys, keyed, sorter=order)])
        v = b[:, cols] * sign + (x == 0) * (cols == 0)
        if k == 2:  # less s(q_1, ..., q_n): q_i = v_i // s, even sum
            v[:, 0] += s * (v[:, 1:] // s).sum(axis=1)
        elif k == n:  # less s(1, ..., 1) v_1 // s
            v -= s * (v[:, :1] // s)
        tau.append(v % radix @ place)
    return np.array(sigma), np.array(tau)


def _parabolic_orders(pres, order, max_cosets):
    """([P : K], |P_K|), within max_cosets and order cosets, for the
    group P that pres presents, K = <x_1, ..., x_n> and P_K the group
    that the relators without x_0 present.  K satisfies those, so
    |P| <= [P : K] |P_K| (Holt-Eick-O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 5).  Raises Overflow."""
    sub = GroupPresentation(pres.ngens - 1, [
        tuple(x - 1 for x in w) for w in pres.relators if 0 not in w])
    order_k = todd_coxeter(sub, max_cosets=order).ncosets
    index = todd_coxeter(pres, subgens=[(x,) for x in range(
        1, pres.ngens)], max_cosets=max_cosets).ncosets
    return index, order_k


def _closed_form_group(pres, sigma, tau, max_cosets, context):
    """The group Q on the M * N pairs (a, t), numbered a * N + t, whose
    generator x acts as sigma[x] on a and tau[x] on t, proven regular
    and isomorphic by x -> x to the group P that pres presents:
      (a) there is one sigma[x] and tau[x] per generator of pres, each
          an involution, and every relator closes on each factor, hence
          on the pairs: P maps onto Q and |Q| <= |P|;
      (b) tau[x] fixes 0 for x >= 1, <tau> is transitive on the N
          classes and <sigma[1:]> on the M values of a, so the orbit of
          (0, 0) holds every (a, 0), and then every (a, t): Q is
          transitive and |Q| >= M * N;
      (c) [P : K] |P_K| = M * N, so |P| <= M * N (_parabolic_orders).
    Then M * N <= |Q| <= |P| <= M * N.  Raises PropertyViolation naming
    the failed step, or Overflow."""
    start = time.perf_counter()
    m, nc = sigma.shape[1], tau.shape[1]
    union = list(np.hstack([sigma, tau + m]))  # of the two factors
    try:
        if len(union) != pres.ngens:
            raise IncompleteTable("%d generators" % len(union))
        check_relators(union, pres.relators)
    except IncompleteTable as exc:
        raise PropertyViolation("%s: step (a) fails: %s" % (context, exc))
    if tau[1:, 0].any() or orbit_labels(list(tau), nc)[1] != 1 or \
            orbit_labels(list(sigma[1:]), m)[1] != 1:
        raise PropertyViolation("%s: step (b) fails: the factors are not"
                                " transitive" % context)
    index, order_k = _parabolic_orders(pres, m * nc, max_cosets)
    if index * order_k != m * nc:
        raise PropertyViolation("%s: step (c) fails: index %d times |P_K|"
                                " %d is not %d" % (context, index, order_k,
                                                   m * nc))
    gens = (sigma[:, :, None] * nc + tau[:, None, :]).reshape(len(sigma), -1)
    log.debug("%s: closed form certified by parabolic index, index %d, "
              "|P_K| %d, order %d, %.3f s", context, index, order_k, m * nc,
              time.perf_counter() - start)
    return PermGroup(m * nc, gens, order=m * nc, regular=True)


def build_cubic_toroid(p, max_cosets=None):
    """The toroid group in closed form (_closed_form_group; Overflow past
    max_cosets, before any array is built) and its coset geometry, with
    the hypertope certificate and the linear diagram 4-3-...-3-4."""
    max_cosets = coset_limit(max_cosets)
    if 2 ** p.n * math.factorial(p.n) * math.prod(_class_radix(p)) \
            > max_cosets:
        raise Overflow(max_cosets)
    pg = _closed_form_group(cubic_toroid_presentation(p), *toroid_factors(p),
                            max_cosets, "toroid %r" % (p,))
    g = engine.coset_geometry(pg)
    _certify(g, "toroid %r" % (p,))
    if coxeter_matrix(pg) != linear_matrix(p.n):
        raise PropertyViolation("toroid %r: diagram is not linear"
                                " 4-3-...-3-4" % (p,))
    return pg, g


def _parabolic_index(pres, hg, max_cosets):
    """(index, |P_K|) of the parabolic index certificate of _agreement,
    or (None, None) when step 1 fails or an enumeration overflows."""
    ident = np.arange(hg.degree)
    if not (hg.regular and pres.ngens == hg.ngens >= 2 and all(
            np.array_equal(g[g], ident) for g in hg.gens)):
        return None, None
    for w in pres.relators:
        c = 0
        for x in w:
            c = int(hg.gens[x][c])
        if c != 0:
            return None, None
    try:
        return _parabolic_orders(pres, hg.order(), max_cosets)
    except Overflow:
        return None, None


def _full_agreement(pres, hg, context, diffs, max_cosets=None):
    """Presentation group vs directly computed subgroup, by enumerating
    the presentation whole: order, Coxeter matrix, coset geometry
    isomorphism (on the groups: engine.generator_isomorphism)."""
    qg = perm_image(todd_coxeter(pres, max_cosets=max_cosets))
    entry = {"order_presentation": qg.order(), "order_subgroup": hg.order()}
    if qg.order() != hg.order():
        diffs.append((context, "order", qg.order(), hg.order()))
        return entry
    cm_p, cm_h = coxeter_matrix(qg), coxeter_matrix(hg)
    entry["coxeter_matrix_equal"] = cm_p == cm_h
    if cm_p != cm_h:
        diffs.append((context, "coxeter_matrix", cm_p, cm_h))
    entry["coset_geometry_isomorphic"] = engine.generator_isomorphism(
        qg, hg, list(range(qg.ngens))) is not None
    if not entry["coset_geometry_isomorphic"]:
        diffs.append((context, "coset_geometry_iso", True, False))
    return entry


def _agreement(pres, hg, context, diffs, max_cosets=None):
    """Presentation group G vs directly computed subgroup hg: order,
    Coxeter matrix, coset geometry isomorphism.  Returns the entry.

    First a proof that x_i -> hg.gens[i] is an isomorphism G -> hg,
    which makes every field agree:
      1. hg is regular, its generators square to 1 (the implicit
         square relators of pres) and every relator of pres sends
         point 0 to 0, hence is trivial in hg.  So the map is a
         homomorphism, onto since the gens generate hg: |G| >= |hg|.
      2. If index * |P_K| = |hg|, with K = <x_1, ..., x_n> and P_K as
         in _parabolic_orders (within |hg| cosets), then |G| <= |hg|,
         so the map is a bijection.
    When a step fails or overflows, the presentation is
    enumerated whole and compared field by field (_full_agreement).
    Logs which of the two certificates decided.
    """
    start = time.perf_counter()
    index, order_k = _parabolic_index(pres, hg, max_cosets)
    if index is not None and index * order_k == hg.order():
        how = "parabolic index"
        order = hg.order()
        entry = {"order_presentation": order, "order_subgroup": order,
                 "coxeter_matrix_equal": True,
                 "coset_geometry_isomorphic": True}
    else:
        how = "full enumeration"
        entry = _full_agreement(pres, hg, context, diffs, max_cosets)
    log.debug("%s: presentation agreement by %s, index %s, |P_K| %s, "
              "order %d, %.3f s", context, how, index, order_k, hg.order(),
              time.perf_counter() - start)
    return entry


def _halving_stage(p, name, group, leaf, order, presentation, expected,
                   diffs, max_cosets):
    """One halving stage of verify_family: the halving group of group
    at leaf, its order against order, its agreement with the
    closed-form presentation of p where there is one, then the
    certificate and the diagram fields of its coset geometry.

    Returns (halving group, coset geometry or None, stage fields); the
    geometry is built here, unless the presented order disagrees."""
    h = engine.halving_group(group, leaf)
    stage = {"order": h.order()}
    if h.order() != order:
        diffs.append((name, "order", order, h.order()))
    try:
        stage.update(_agreement(presentation(p), h, name, diffs,
                                max_cosets=max_cosets))
    except UnsupportedCase as exc:
        stage["presentation"] = "unsupported: %s" % exc
    if stage.get("order_presentation", h.order()) != h.order():
        return h, None, stage
    gh = engine.coset_geometry(h)
    _certify(gh, "%s %r" % (name.replace("_", " "), p))
    stage.update(_diagram_fields(gh, expected))
    return h, gh, stage


def verify_family(p, depth=0, max_cosets=None):
    """Cross-check one (n, k, s) cell: build the toroid (depth 0),
    halve at (0,1) (depth 1), halve again at (n,n-1) (depth 2),
    comparing each stage against its closed-form presentation and its
    expected diagram shape.  Raises MismatchReport when a structural
    check fails; diagram comparisons are reported as data.
    """
    if depth not in (0, 1, 2):
        raise InvalidParams("depth must be 0, 1 or 2")
    n = p.n
    diffs = []
    report = {"params": {"n": p.n, "k": p.k, "s": p.s}, "depth": depth,
              "stages": {}}

    pg, g = build_cubic_toroid(p, max_cosets=max_cosets)
    stage = _diagram_fields(g, linear_matrix(n))
    stage.update({"order": pg.order(),
                  "type_counts": list(g.type_counts()),
                  "bipartite_predicted": predict_truncation_bipartite(p),
                  "degenerate_predicted": predict_degenerate_leaf(p)})
    pres = cubic_toroid_presentation(p)
    stage["bipartite_relators"] = relator_parity_bipartite(pres, 0)
    trunc = cons._graphs(g, (0, 1))
    stage["bipartite_truncation"] = cons._sides(trunc)[1]
    for key in ("bipartite_relators", "bipartite_truncation"):
        if stage[key] != stage["bipartite_predicted"]:
            diffs.append(("toroid", key, stage["bipartite_predicted"],
                          stage[key]))
    stage["b1"] = cons._b1(trunc)
    if stage["b1"] != (not stage["degenerate_predicted"]):
        diffs.append(("toroid", "b1_vs_degeneracy",
                      not stage["degenerate_predicted"], stage["b1"]))
    # self-duality under reversing the generator order
    rev = [n - t for t in range(n + 1)]
    stage["self_dual"] = engine.generator_isomorphism(pg, pg, rev) \
        is not None
    if not stage["self_dual"]:
        diffs.append(("toroid", "self_dual", True, False))
    report["stages"]["toroid"] = stage

    if depth >= 1 and not diffs:
        order = pg.order() // 2 if predict_truncation_bipartite(p) \
            else pg.order()
        hg, gh, stage = _halving_stage(p, "halved", pg, (0, 1), order,
                                       halved_presentation,
                                       halved_matrix(n), diffs, max_cosets)
        if gh is not None:
            trunc = cons._graphs(gh, (n, n - 1))
            stage["b1_next_leaf"] = cons._b1(trunc)
            stage["b2_next_leaf"] = cons.check_B2(gh, (n, n - 1))
            if not (stage["b1_next_leaf"] and stage["b2_next_leaf"]):
                diffs.append(("halved", "next_leaf_nondegenerate", True,
                              (stage["b1_next_leaf"],
                               stage["b2_next_leaf"])))
        report["stages"]["halved"] = stage

    if depth >= 2 and not diffs:
        bp_branch = cons._sides(trunc)[1]
        if not bp_branch:
            diffs.append(("double_halved", "bp_branch", True, False))
        _, _, stage = _halving_stage(p, "double_halved", hg, (n, n - 1),
                                     hg.order() // 2,
                                     double_halved_presentation,
                                     double_halved_matrix(n), diffs,
                                     max_cosets)
        stage["bp_branch"] = bp_branch
        # halving at the other leaf gives the dual of halving at (0,1)
        stage["dual_of_first_halving"] = engine.generator_isomorphism(
            hg, engine.halving_group(pg, (n, n - 1)), rev) is not None
        if not stage["dual_of_first_halving"]:
            diffs.append(("double_halved", "dual_of_first_halving",
                          True, False))
        report["stages"]["double_halved"] = stage

    report["ok"] = not diffs
    if diffs:
        raise MismatchReport(diffs, report)
    return report
