import importlib.util
import itertools
import pathlib
import shlex
import shutil
import subprocess
import sysconfig

import numpy as np
import pytest

from hyperforge import geometry as geo
from hyperforge import engine, toddcox, toroids
from hyperforge.presentations import coxeter_presentation
from hyperforge.toddcox import todd_coxeter, perm_image


def make_cube():
    """Vertices are bit-vectors 0..7; edges flip one bit; faces fix
    one bit."""
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            w = v ^ b
            if v < w:
                edges.append((v, w))
    faces = [(b, val) for b in (1, 2, 4) for val in (0, b)]
    types = [0] * 8 + [1] * 12 + [2] * 6
    pairs = []
    for ei, (v, w) in enumerate(edges):
        pairs.append((v, 8 + ei))
        pairs.append((w, 8 + ei))
    for fi, (b, val) in enumerate(faces):
        f = 20 + fi
        for v in range(8):
            if v & b == val:
                pairs.append((v, f))
        for ei, (v, w) in enumerate(edges):
            if v & b == val and w & b == val:
                pairs.append((8 + ei, f))
    return geo.build_geometry(3, types, pairs)


def make_tetrahedron():
    """Face system of the 3-simplex: containment on subsets of size
    1, 2, 3 of four vertices."""
    subsets = []
    for size in (1, 2, 3):
        for c in itertools.combinations(range(4), size):
            subsets.append(frozenset(c))
    types = [len(s) - 1 for s in subsets]
    pairs = []
    for a in range(len(subsets)):
        for b in range(a + 1, len(subsets)):
            sa, sb = subsets[a], subsets[b]
            if len(sa) != len(sb) and (sa <= sb or sb <= sa):
                pairs.append((a, b))
    return geo.build_geometry(3, types, pairs)


def make_triangle():
    """Three points, three lines, every point on two lines."""
    pairs = [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]
    return geo.build_geometry(2, [0, 0, 0, 1, 1, 1], pairs)


def make_polygon(m):
    """The m-gon: points 0..m-1, lines m..2m-1, line i joins i and
    i+1."""
    pairs = [(i, m + i) for i in range(m)] + \
        [((i + 1) % m, m + i) for i in range(m)]
    return geo.build_geometry(2, [0] * m + [1] * m, pairs)


def make_square_pyramid():
    """Face lattice of the square pyramid: base square 0-1-2-3 and
    apex 4."""
    verts = list(range(5))
    edges = [(0, 1), (1, 2), (2, 3), (0, 3),
             (0, 4), (1, 4), (2, 4), (3, 4)]
    faces = [(0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
    types = [0] * 5 + [1] * 8 + [2] * 5
    pairs = []
    for ei, e in enumerate(edges):
        for v in e:
            pairs.append((v, 5 + ei))
    for fi, f in enumerate(faces):
        for v in f:
            pairs.append((v, 13 + fi))
        for ei, e in enumerate(edges):
            if set(e) <= set(f):
                pairs.append((5 + ei, 13 + fi))
    return geo.build_geometry(3, types, pairs)


def relabel_types(g, tmap):
    """New geometry with type t renamed to tmap[t] (a permutation of
    types)."""
    types = [tmap[t] for t in g.type_of]
    return geo.build_geometry(g.rank, types, g.incidence_pairs(),
                              labels=g.labels)


def make_two_cubes():
    """Two cubes glued at vertex 0 (the second cube's vertex 0 is the
    first one's): a thin connected geometry whose residue at the shared
    vertex is two disjoint hexagons."""
    cube = make_cube()
    m = cube.nelements
    ids = [0] + list(range(m, 2 * m - 1))  # second cube's ids
    types = list(cube.type_of) + list(cube.type_of[1:])
    pairs = cube.incidence_pairs() + [(ids[x], ids[y])
                                      for x, y in cube.incidence_pairs()]
    return geo.build_geometry(3, types, pairs)


def standard_order(pg):
    """The generators of a transitive group renumbered in the standard
    coset-table order, as an (ngens, degree) array: a row scan from
    point 0 numbers each new image in the order of (its parent's new
    number, generator) (Sims, Computation with Finitely Presented
    Groups, 1994).  Two regular groups on the same generators are equal
    exactly when these arrays are.  The scan is breadth-first: a level
    lists its points by first occurrence among the images of the last
    level, parent by parent and generator by generator."""
    new = np.full(pg.degree, -1, dtype=np.int64)
    new[0] = 0
    level, count = np.zeros(1, dtype=np.int64), 1
    while level.size:
        images = np.stack([g[level] for g in pg.gens], axis=1).ravel()
        images = images[new[images] < 0]
        _, first = np.unique(images, return_index=True)
        level = images[np.sort(first)]
        new[level] = np.arange(count, count + level.size)
        count += level.size
    assert count == pg.degree
    out = np.empty((pg.ngens, pg.degree), dtype=np.int64)
    for x, g in enumerate(pg.gens):
        out[x, new] = new[g]
    return out


def closed_form_group(cell):
    """The closed-form toroid group of the cell, certified, without its
    coset geometry."""
    p = toroids.ToroidParams(*cell)
    return toroids._closed_form_group(
        toroids.cubic_toroid_presentation(p), *toroids.toroid_factors(p),
        toddcox.coset_limit(), "toroid %r" % (p,))


def hlt_toroid_geometry(cell):
    """The coset geometry of the cell's toroid group enumerated by HLT,
    the route of build coset."""
    pres = toroids.cubic_toroid_presentation(toroids.ToroidParams(*cell))
    return engine.coset_geometry(perm_image(todd_coxeter(pres)))


def hemicube_group():
    m = ((1, 4, 2), (4, 1, 3), (2, 3, 1))
    pres = coxeter_presentation(m, extra=(tuple([0, 1, 2] * 3),))
    return perm_image(todd_coxeter(pres))


@pytest.fixture(scope="session")
def cube():
    return make_cube()


@pytest.fixture(scope="session")
def tetrahedron():
    return make_tetrahedron()


@pytest.fixture(scope="session")
def triangle():
    return make_triangle()


@pytest.fixture(scope="session")
def square_pyramid():
    return make_square_pyramid()


@pytest.fixture(scope="session")
def two_cubes():
    return make_two_cubes()


@pytest.fixture(scope="session")
def toroid_313():
    p = toroids.ToroidParams(3, 1, 3)
    pg, g = toroids.build_cubic_toroid(p)
    return pg, g


@pytest.fixture(scope="session")
def toroid_314():
    p = toroids.ToroidParams(3, 1, 4)
    pg, g = toroids.build_cubic_toroid(p)
    return pg, g


@pytest.fixture(scope="session")
def hemicube():
    pg = hemicube_group()
    return pg, engine.coset_geometry(pg)


TCCORE_C = (pathlib.Path(__file__).resolve().parents[1]
            / "src" / "hyperforge" / "_tccore.c")


@pytest.fixture(scope="session")
def tccore_module(tmp_path_factory):
    """hyperforge._tccore compiled from _tccore.c with the interpreter's
    C compiler into a temporary directory, every warning an error; skips
    when there is no compiler."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    out = (tmp_path_factory.mktemp("tccore")
           / ("_tccore" + sysconfig.get_config_var("EXT_SUFFIX")))
    subprocess.run(cc + ["-shared", "-fPIC", "-O2", "-Wall", "-Werror",
                         "-I", sysconfig.get_paths()["include"],
                         str(TCCORE_C), "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("hyperforge._tccore", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def compiled_kernel(tccore_module, monkeypatch):
    """The compiled kernel, seen by toddcox as its _tccore."""
    monkeypatch.setattr(toddcox, "_tccore", tccore_module)
    return tccore_module
