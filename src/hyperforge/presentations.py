"""Group presentations over involutory generators.

Words are sequences of generator indices; no inverse symbols exist
since every generator squares to the identity.  The square relators
are implicit and never stored.
"""

import json

from .errors import InvalidParams

# A coset table row is ngens entries wide and the kernels allocate rows
# before the coset limit trips (the compiled one 1024 up front); at 1024
# generators that first block is 4 MB.  A rank-r geometry needs r.
MAX_NGENS = 1024


class GroupPresentation:

    def __init__(self, ngens, relators):
        # the enumeration kernels size every table row by ngens
        if isinstance(ngens, bool) or not isinstance(ngens, int) \
                or not 1 <= ngens <= MAX_NGENS:
            raise InvalidParams("ngens must be an integer in 1..%d, not %r"
                                % (MAX_NGENS, ngens))
        self.ngens = ngens
        rels = []
        for w in relators:
            w = tuple(int(x) for x in w)
            if not w:
                raise InvalidParams("empty relator")
            if any(x < 0 or x >= ngens for x in w):
                raise InvalidParams("relator letter out of range: %r" % (w,))
            rels.append(w)
        self.relators = tuple(rels)

    def __eq__(self, other):
        if not isinstance(other, GroupPresentation):
            return NotImplemented
        return (self.ngens, self.relators) == (other.ngens, other.relators)

    def __repr__(self):
        return "GroupPresentation(ngens=%d, relators=%r)" % (
            self.ngens, self.relators)


def coxeter_relators(matrix):
    """Relators (rho_i rho_j)^{p_ij} from a symmetric Coxeter matrix."""
    n = len(matrix)
    rels = []
    for i in range(n):
        if matrix[i][i] != 1:
            raise InvalidParams("diagonal must be 1")
        for j in range(i + 1, n):
            p = matrix[i][j]
            if p != matrix[j][i] or p < 2:
                raise InvalidParams("bad entry p[%d][%d]=%r" % (i, j, p))
            rels.append((i, j) * p)
    return rels


def coxeter_presentation(matrix, extra=()):
    return GroupPresentation(len(matrix),
                             list(coxeter_relators(matrix)) + list(extra))


def relator_parity_bipartite(p, gen):
    """True when every relator uses the generator an even number of times."""
    return all(w.count(gen) % 2 == 0 for w in p.relators)


def to_json(p):
    data = {"ngens": p.ngens, "relators": [list(w) for w in p.relators]}
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def from_json(text):
    """Inverse of to_json; malformed input raises InvalidParams."""
    try:
        data = json.loads(text)
        ngens = data["ngens"]
        relators = [list(w) for w in data["relators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams("malformed presentation JSON: %r" % (exc,))
    # exact type test: a float or a bool (an int subclass) is refused,
    # not truncated to a generator index
    for value in [ngens] + [x for w in relators for x in w]:
        if type(value) is not int:
            raise InvalidParams("malformed presentation JSON: %r is not an"
                                " integer" % (value,))
    return GroupPresentation(ngens, relators)
