"""Per-value JSON reading and per-cotype orbit labelling, the reference
for geometry.from_json and geometry.is_residually_connected.

from_json as geometry.py wrote it before it read the parsed lists in
bulk: every element id, type and incidence end goes through _json_int
in document order, so the first offender raises.  cotype_orbits is
the residual connectedness loop before the orbits were joined: one
orbit_labels call per cotype J on all of <sigma_i : i in J>.
tests/test_geometry_reference.py compares both with the package.
"""

import itertools
import json

from hyperforge import geometry as geo
from hyperforge.errors import InvalidParams, UnknownElement
from hyperforge.perms import orbit_labels


def _json_int(value, what):
    """value when it is an int (bool is not), else InvalidParams."""
    if type(value) is not int:
        raise InvalidParams("malformed geometry JSON: %s %r is not an"
                            " integer" % (what, value))
    return value


def from_json(text):
    """Inverse of to_json; malformed input raises InvalidParams."""
    try:
        data = json.loads(text)
        rank = _json_int(data["rank"], "rank")
        elems = [(_json_int(d["id"], "element id"),
                  _json_int(d["type"], "type id")) for d in data["elements"]]
        elems.sort()
        if [e for e, _ in elems] != list(range(len(elems))):
            raise UnknownElement("element ids must be dense 0..m-1")
        if not 0 <= rank <= len(elems):
            raise InvalidParams("malformed geometry JSON: rank %d with %d"
                                " elements" % (rank, len(elems)))
        types = [t for _, t in elems]
        pairs = [(_json_int(x, "incidence end"),
                  _json_int(y, "incidence end"))
                 for x, y in data["incidences"]]
        return geo.build_geometry(rank, types, pairs,
                                  provenance=data.get("provenance"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams("malformed geometry JSON: %r" % (exc,))


def cotype_orbits(g):
    """(J, number of orbits of <sigma_i : i in J>) for every cotype J
    with |J| >= 2 of the geometry g, by size and then in
    itertools.combinations order, each labelled from scratch."""
    chambers = geo._require_geometry(g).chambers
    n, rank = chambers.shape
    sigma = [geo._adjacency(chambers, i)[0] for i in range(rank)]
    return [(J, orbit_labels([sigma[i] for i in J], n)[1])
            for size in range(2, rank + 1)
            for J in itertools.combinations(range(rank), size)]


def is_residually_connected(g):
    """Every cotype's orbits number its flags (see geometry)."""
    by_types = geo._require_geometry(g).by_types
    full = (1 << g.rank) - 1
    return all(norbits == by_types[full & ~sum(1 << i for i in J)]
               for J, norbits in cotype_orbits(g))
