"""Type-preserving isomorphism and automorphism search.

Backtracking over a colour refinement where the initial colour of an
element is its type and refinement signatures are multisets of
neighbour colours.  Deterministic: ties are broken by smallest id.
"""

from .errors import SizeLimitExceeded, NotAnAction
from . import geometry as geo
from .perms import PermGroup

# the most elements a search accepts; read at each call, like
# geometry.MAX_FLAGS
DEFAULT_MAX_ELEMENTS = 5000


def _refine(adjs, colors_list):
    """Jointly refine colourings of several graphs until stable.

    colors_list[k][e] is the colour of element e in graph k.  Returns
    the refined colourings with colours renamed canonically, the same
    renaming across all graphs.
    """
    ncolors = len({c for colors in colors_list for c in colors})
    while True:
        sigs = []
        for adj, colors in zip(adjs, colors_list):
            sigs.append([
                (colors[e], tuple(sorted(colors[y] for y in adj[e])))
                for e in range(len(colors))])
        names = {}
        for sig in sorted(s for graph in sigs for s in graph):
            if sig not in names:
                names[sig] = len(names)
        new = [[names[s] for s in graph] for graph in sigs]
        if len(names) == ncolors:
            return new
        ncolors = len(names)
        colors_list = new


def _histogram(colors):
    h = {}
    for c in colors:
        h[c] = h.get(c, 0) + 1
    return h


def _target_cell(colors):
    """Smallest colour class of size > 1, ties by colour value."""
    h = _histogram(colors)
    best = None
    for c, n in sorted(h.items()):
        if n > 1 and (best is None or n < h[best]):
            best = c
    return best


def _extract_map(colors1, colors2):
    pos = {}
    for e, c in enumerate(colors2):
        pos[c] = e
    return [pos[c] for c in colors1]


def _search(g1, g2, colors1, colors2, collect_all):
    """Backtracking isomorphism search; yields verified maps."""
    colors1, colors2 = _refine([g1.adj, g2.adj], [colors1, colors2])
    if _histogram(colors1) != _histogram(colors2):
        return
    cell = _target_cell(colors1)
    if cell is None:
        mapping = _extract_map(colors1, colors2)
        if geo.preserves_incidence(g1, g2, mapping, range(g1.rank)):
            yield mapping
        return
    fresh = max(max(colors1), max(colors2)) + 1
    a = colors1.index(cell)
    c1 = list(colors1)
    c1[a] = fresh
    for b in range(len(colors2)):
        if colors2[b] != cell:
            continue
        c2 = list(colors2)
        c2[b] = fresh
        yielded = False
        for mapping in _search(g1, g2, c1, c2, collect_all):
            yielded = True
            yield mapping
            if not collect_all:
                return
        if yielded and not collect_all:
            return


def _check_size(g, max_elements):
    """SizeLimitExceeded when g has more than max_elements elements
    (DEFAULT_MAX_ELEMENTS when None)."""
    if max_elements is None:
        max_elements = DEFAULT_MAX_ELEMENTS
    if g.nelements > max_elements:
        raise SizeLimitExceeded("%d elements, more than %d"
                                % (g.nelements, max_elements))


def find_isomorphism(g1, g2, max_elements=None):
    """A type-preserving isomorphism g1 -> g2 as an id list, or None."""
    if g1.rank != g2.rank or g1.nelements != g2.nelements:
        return None
    _check_size(g1, max_elements)
    if g1.type_counts() != g2.type_counts():
        return None
    for mapping in _search(g1, g2, list(g1.type_of), list(g2.type_of), False):
        return mapping
    return None


def isomorphic(g1, g2, max_elements=None):
    return find_isomorphism(g1, g2, max_elements) is not None


def automorphism_group(g, max_elements=None):
    """All type-preserving automorphisms of g as a PermGroup."""
    _check_size(g, max_elements)
    maps = list(_search(g, g, list(g.type_of), list(g.type_of), True))
    maps.sort()
    identity = list(range(g.nelements))
    gens = [m for m in maps if m != identity]
    return PermGroup(g.nelements, gens, order=len(maps))


def validate_action(g, action):
    """Check that a PermGroup on element ids preserves types and incidence."""
    if action.degree != g.nelements:
        raise NotAnAction("degree %d != %d elements"
                          % (action.degree, g.nelements))
    for x, p in enumerate(action.gens):
        if not geo.preserves_incidence(g, g, p.tolist(), range(g.rank)):
            raise NotAnAction("generator %d does not preserve types"
                              " and incidence" % x)


def is_flag_transitive(g, action=None, max_elements=None):
    """Transitivity on chambers of the given action (or of Aut(g))."""
    if action is None:
        action = automorphism_group(g, max_elements)
    else:
        validate_action(g, action)
    chambers = geo.enumerate_chambers(g)
    if not chambers:
        return True
    chamber_set = set(chambers)
    orbit = {chambers[0]}
    todo = [chambers[0]]
    while todo:
        ch = todo.pop()
        for p in action.gens:
            img = tuple(sorted(int(p[x]) for x in ch))
            if img not in orbit:
                if img not in chamber_set:
                    raise NotAnAction("chamber image is not a chamber")
                orbit.add(img)
                todo.append(img)
    return len(orbit) == len(chambers)
