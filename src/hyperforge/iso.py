"""Type-preserving isomorphism and automorphism search.

Backtracking over a colour refinement where the initial colour of an
element is its type and refinement signatures are multisets of
neighbour colours.  Deterministic: ties are broken by smallest id.

Flag transitivity of Aut(g) needs no group.  Chamber 0's targets are
its neighbours (chambers differing from it in one type) and one
chamber of each other component of the neighbour graph; one search
per target, with chamber 0's and the target's type-t elements coloured
rank + t, must find a map.  An alpha sending chamber 0 to d sends 0's
neighbours onto d's, so the orbit of chamber 0 is closed under
adjacency and meets every component, in any incidence system.
"""

import collections
import logging
import time

import numpy as np

from .errors import SizeLimitExceeded, NotAnAction
from . import geometry as geo
from .perms import PermGroup, orbit_labels

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


def _target_cell(colors):
    """Smallest colour class of size > 1, ties by colour value."""
    h = collections.Counter(colors)
    best = None
    for c, n in sorted(h.items()):
        if n > 1 and (best is None or n < h[best]):
            best = c
    return best


def _extract_map(colors1, colors2):
    pos = {c: e for e, c in enumerate(colors2)}
    return [pos[c] for c in colors1]


def _search(g1, g2, colors1, colors2):
    """Backtracking isomorphism search; lazily yields every verified map."""
    colors1, colors2 = _refine([g1.adj, g2.adj], [colors1, colors2])
    if collections.Counter(colors1) != collections.Counter(colors2):
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
        if colors2[b] == cell:
            c2 = list(colors2)
            c2[b] = fresh
            yield from _search(g1, g2, c1, c2)


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
    return next(_search(g1, g2, list(g1.type_of), list(g2.type_of)), None)


def isomorphic(g1, g2, max_elements=None):
    return find_isomorphism(g1, g2, max_elements) is not None


def automorphism_group(g, max_elements=None):
    """All type-preserving automorphisms of g as a PermGroup."""
    _check_size(g, max_elements)
    maps = sorted(_search(g, g, list(g.type_of), list(g.type_of)))
    identity = list(range(g.nelements))
    gens = [m for m in maps if m != identity]
    return PermGroup(g.nelements, gens, order=len(maps))


def validate_action(g, action):
    """Check that a PermGroup on element ids preserves types and incidence."""
    if action.degree != g.nelements:
        raise NotAnAction("degree %d != %d elements"
                          % (action.degree, g.nelements))
    for x, p in enumerate(action.gens):
        if not geo.preserves_incidence(g, g, p, range(g.rank)):
            raise NotAnAction("generator %d does not preserve types"
                              " and incidence" % x)


def is_flag_transitive(g, action=None, max_elements=None):
    """Transitivity on chambers of the given action, by its chamber
    orbits, or of Aut(g), by the searches of the module docstring."""
    start = time.perf_counter()
    if action is None:
        _check_size(g, max_elements)
        how = "Aut: pinned searches from chamber 0"
    else:
        validate_action(g, action)
        how = "given action: chamber orbits"
    chambers = geo._scan_geometry(g).chambers
    n = len(chambers)
    searched = 0
    failure = ""
    if action is not None:
        index = {row: c for c, row in enumerate(map(tuple, chambers.tolist()))}
        perms = [[index.get(row) for row in map(tuple, p[chambers].tolist())]
                 for p in action.gens]
        if any(None in images for images in perms):
            raise NotAnAction("chamber image is not a chamber")
        norbits = orbit_labels(perms, n)[1]
        if norbits > 1:
            failure = ", %d chamber orbits" % norbits
    elif n:
        near = (chambers == chambers[0]).sum(axis=1) >= g.rank - 1
        sigma = [geo._adjacency(chambers, i) for i in range(g.rank)]
        labels, _ = orbit_labels(sigma, n)
        firsts = np.unique(labels, return_index=True)[1]
        # chamber 0 heads both lists and needs no search
        targets = sorted(set(np.flatnonzero(near)) | set(firsts))[1:]
        for searched, c in enumerate(targets, 1):
            # type-t elements of chambers 0 and c recoloured rank + t
            pins = np.array([g.type_of, g.type_of])
            pins[0, chambers[0]] += g.rank
            pins[1, chambers[c]] += g.rank
            if next(_search(g, g, *pins.tolist()), None) is None:
                failure = ", no automorphism to chamber %d" % c
                break
    logging.getLogger("hyperforge").debug(
        "flag transitivity (%s): %d chambers, %d targets searched, %s%s,"
        " %.3f s", how, n, searched, not failure, failure,
        time.perf_counter() - start)
    return not failure
