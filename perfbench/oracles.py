"""Expected results of the cubic toroid family, computed without hyperforge.

Every function here derives its answer from the parameters (n, k, s)
alone, by the closed formulas of the toroid family, or compares data
the program produced against such an answer.  Nothing is imported from
the package, so a fault in the package cannot hide in its own oracle.

Checks return a list of problems; an empty list means the result passed.
"""

from math import comb, factorial


def lattice_factor(n, k):
    """Index of the lattice spanned by the (s^k, 0^(n-k)) images in the
    lattice s Z^n: 1 for k = 1, 2 for k = 2, 2^(n-1) for k = n."""
    if k == 1:
        return 1
    if k == 2:
        return 2
    if k == n:
        return 2 ** (n - 1)
    raise ValueError("k must be 1, 2 or n")


def lattice_index(n, k, s):
    """N = number of vertices of the toroid = index of its lattice."""
    return s ** n * lattice_factor(n, k)


def group_order(n, k, s):
    """|G| = N times the order 2^n n! of the cube's symmetry group,
    which is 48 s^3 (n=3) and 384 s^4 (n=4) for k = 1."""
    return 2 ** n * factorial(n) * lattice_index(n, k, s)


def type_counts(n, k, s):
    """(N, nN, ..., N): a cube has C(n, i) faces of dimension i per
    vertex-cell incidence class, so the i-faces number C(n, i) N."""
    big_n = lattice_index(n, k, s)
    return tuple(comb(n, i) * big_n for i in range(n + 1))


def truncation_bipartite(k, s):
    """The vertex-edge graph is bipartite unless k and s are both odd."""
    return not (k % 2 == 1 and s % 2 == 1)


def halving_index(k, s):
    """Index of the (0,1) halving subgroup in the toroid group."""
    return 2 if truncation_bipartite(k, s) else 1


def _matrix(rank, edges):
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1
    for (i, j), label in edges.items():
        m[i][j] = m[j][i] = label
    return m


def linear_coxeter(n):
    """4-3-...-3-4 on the nodes 0..n."""
    edges = {(t, t + 1): 3 for t in range(1, n - 1)}
    edges[(0, 1)] = 4
    edges[(n - 1, n)] = 4
    return _matrix(n + 1, edges)


def y_coxeter(n):
    """Nodes 0 and 1 both joined to 2, a 3-chain 2..n-1, then 4 to n."""
    edges = {(0, 2): 3, (1, 2): 3}
    for t in range(2, n - 1):
        edges[(t, t + 1)] = 3
    edges[(n - 1, n)] = 4
    return _matrix(n + 1, edges)


def double_halved_coxeter(n):
    """The 4-cycle 0-2-1-3-0 for n = 3; a fork at both ends of the
    3-chain 2..n-2 for n >= 4 (0,1 on node 2 and n-1,n on node n-2)."""
    if n == 3:
        return _matrix(4, {(0, 2): 3, (1, 2): 3, (1, 3): 3, (0, 3): 3})
    edges = {(0, 2): 3, (1, 2): 3, (n - 2, n - 1): 3, (n - 2, n): 3}
    for t in range(2, n - 2):
        edges[(t, t + 1)] = 3
    return _matrix(n + 1, edges)


def diagram_shape(matrix):
    """[sorted node degrees, sorted labels] over the entries above 2."""
    rank = len(matrix)
    degrees = [0] * rank
    labels = []
    for i in range(rank):
        for j in range(i + 1, rank):
            if matrix[i][j] > 2:
                degrees[i] += 1
                degrees[j] += 1
                labels.append(matrix[i][j])
    return [sorted(degrees), sorted(labels)]


def _as_lists(x):
    if isinstance(x, (list, tuple)):
        return [_as_lists(v) for v in x]
    return x


def _expect(problems, where, got, want):
    if _as_lists(got) != _as_lists(want):
        problems.append("%s: got %r, expected %r" % (where, got, want))


def check_type_counts(n, k, s, counts):
    """Element counts per type of the toroid's geometry."""
    problems = []
    _expect(problems, "toroid type counts", counts, type_counts(n, k, s))
    return problems


def check_toroid(n, k, s, order, counts):
    """Order and type counts of the toroid's coset geometry."""
    problems = check_type_counts(n, k, s, counts)
    _expect(problems, "toroid order", order, group_order(n, k, s))
    return problems


def check_halvings(n, k, s, halved_order, double_order):
    """Index of the (0,1) halving and of the second, (n,n-1), halving."""
    problems = []
    _expect(problems, "halving order", halved_order,
            group_order(n, k, s) // halving_index(k, s))
    _expect(problems, "double halving order", double_order,
            group_order(n, k, s) // halving_index(k, s) // 2)
    return problems


STAGE_FLAGS = {
    "toroid": ("b1", "self_dual", "diagram_matches"),
    "halved": ("coxeter_matrix_equal", "coset_geometry_isomorphic",
               "b1_next_leaf", "b2_next_leaf", "diagram_matches"),
    "double_halved": ("bp_branch", "coxeter_matrix_equal",
                      "coset_geometry_isomorphic", "diagram_matches",
                      "dual_of_first_halving"),
}

EXPECTED_SHAPE = {
    "toroid": linear_coxeter,
    "halved": y_coxeter,
    "double_halved": double_halved_coxeter,
}


def presentation_supported(stage, k, s):
    """Whether the closed-form presentation exists for the stage: the
    double-halved one excludes (k, s) = (2, 2)."""
    return not (stage == "double_halved" and (k, s) == (2, 2))


def check_family_report(n, k, s, report):
    """A depth-2 verify_family report of cell (n, k, s)."""
    problems = []
    if report.get("ok") is not True:
        problems.append("report not ok")
    stages = report.get("stages", {})
    for name in ("toroid", "halved", "double_halved"):
        if name not in stages:
            problems.append("stage %s missing" % name)
    if problems:
        return problems
    tor, hal, dbl = stages["toroid"], stages["halved"], stages["double_halved"]
    problems += check_toroid(n, k, s, tor.get("order"),
                             tor.get("type_counts"))
    problems += check_halvings(n, k, s, hal.get("order"), dbl.get("order"))
    bip = truncation_bipartite(k, s)
    for key in ("bipartite_predicted", "bipartite_relators",
                "bipartite_truncation"):
        _expect(problems, "toroid %s" % key, tor.get(key), bip)
    for name, stage in stages.items():
        for flag in STAGE_FLAGS[name]:
            if flag in ("coxeter_matrix_equal", "coset_geometry_isomorphic") \
                    and not presentation_supported(name, k, s):
                continue
            _expect(problems, "%s %s" % (name, flag), stage.get(flag), True)
        if presentation_supported(name, k, s) and name != "toroid":
            _expect(problems, "%s presentation order" % name,
                    stage.get("order_presentation"), stage.get("order"))
        _expect(problems, "%s diagram shape" % name,
                stage.get("diagram_shape"),
                diagram_shape(EXPECTED_SHAPE[name](n)))
    return problems
