"""geometry.from_json and geometry.is_residually_connected against the
per-value reader and the per-cotype loop of geometry_reference."""

import collections
import copy
import json
import random

from hyperforge import constructions as cons
from hyperforge import errors, perms
from hyperforge import geometry as geo

from conftest import make_cube, make_polygon, make_tetrahedron, \
    make_triangle, make_two_cubes
import geometry_reference as ref
from test_cli import MALFORMED_GEOMETRIES
from test_constructions import random_geometry
from test_geometry import glued_controls, random_incidence_system

# values that are not element ids, types or incidence ends, or are
# ends past int64
ODD_VALUES = [True, False, 1.5, 0.0, "0", "ab", None, [], {}, [0, 1],
              {"a": 0, "b": 1}, 2 ** 63, -2 ** 70, 10 ** 30, -1]

# documents whose first fault comes before a later one of another kind
ORDERED_FAULTS = [
    {"rank": 2, "elements": [{"id": 1.5, "type": 0}, {"id": 1}],
     "incidences": []},
    {"rank": 2, "elements": [{"id": 0, "type": 0}, {"id": 1, "type": 1}],
     "incidences": [[0, 1.5], [0]]},
    {"rank": 2, "elements": [{"id": 0, "type": 0}, {"id": 1, "type": 1}],
     "incidences": [[True, 1], 5]},
    {"rank": 2, "elements": [{"id": 0, "type": 0}, {"id": 1, "type": 1}],
     "incidences": [[0, 1], [0, 1, 2], [0, "1"]]},
    {"rank": 2, "elements": [{"id": 0, "type": 0}, {"id": 1, "type": 1}],
     "incidences": [[0, 1], "ab", {"a": 0, "b": 1}]},
    {"rank": 0, "elements": [], "incidences": {}},
    {"rank": 0, "elements": {}, "incidences": ""},
]


def read_back(read, text):
    """read(text) as its to_json, or its error's type and message."""
    try:
        g = read(text)
    except errors.HyperforgeError as exc:
        return type(exc).__name__, str(exc)
    return "ok", geo.to_json(g)


def mutated(rng, doc):
    """doc with one to three random faults or harmless reorderings."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        elems, pairs = doc.get("elements"), doc.get("incidences")
        m = len(elems) if isinstance(elems, list) else 0
        kind = rng.randrange(11)
        value = rng.choice(ODD_VALUES + [rng.randint(-1, m + 1)])
        if kind == 0:
            doc["rank"] = rng.choice([value, m + 1, -1, 10 ** 12])
        elif kind == 1 and m and isinstance(elems[0], dict):
            rng.choice(elems)[rng.choice(["id", "type"])] = value
        elif kind == 2:
            victim = doc if rng.random() < 0.3 or not m else rng.choice(elems)
            if isinstance(victim, dict) and victim:
                del victim[rng.choice(sorted(victim))]
        elif kind == 3 and isinstance(pairs, list) and pairs:
            k = rng.randrange(len(pairs))
            pair = pairs[k]
            if rng.random() < 0.3 or not isinstance(pair, list):
                pairs[k] = value
            elif rng.random() < 0.5 and pair:
                pair[rng.randrange(len(pair))] = value
            elif rng.random() < 0.5:
                pair.append(rng.randint(0, m))
            elif pair:
                pair.pop()
        elif kind == 4 and m:
            elems.append(copy.deepcopy(rng.choice(elems)))
        elif kind == 5 and m and isinstance(elems[0], dict):
            rng.choice(elems)["id"] = m + 5
        elif kind == 6 and m:
            rng.shuffle(elems)
        elif kind == 7:
            doc[rng.choice(["elements", "incidences"])] = value
        elif kind == 8 and isinstance(pairs, list) and pairs:
            rng.shuffle(pairs)
            pair = rng.choice(pairs)
            if isinstance(pair, list):
                pair.reverse()
        elif kind == 9 and isinstance(pairs, list) and m:
            pairs.append([rng.randrange(m), rng.randrange(m)])
        elif kind == 10:
            doc["provenance"] = value
    return doc


def fault(outcome):
    """The kind of an outcome of read_back: "ok", the error's type, or
    for a malformed document the exception or value its message names
    first."""
    name, text = outcome
    if name != "InvalidParams":
        return name
    return text.split(": ", 1)[1].split("(")[0].split()[0]


def test_from_json_matches_the_per_value_reader():
    rng = random.Random(20261020)
    bases = [make_cube(), make_triangle(), make_polygon(5),
             cons.halving_geometry(make_tetrahedron(), (0, 1))] \
        + [random_incidence_system(rng) for _ in range(20)]
    texts = [geo.to_json(g) for g in bases]
    docs = [doc for doc, _ in MALFORMED_GEOMETRIES] + ORDERED_FAULTS \
        + [mutated(rng, json.loads(rng.choice(texts))) for _ in range(1500)]
    seen = collections.Counter()
    for text in texts + [json.dumps(doc) for doc in docs]:
        got = read_back(geo.from_json, text)
        assert got == read_back(ref.from_json, text), text
        seen[fault(got)] += 1
    for doc, err in MALFORMED_GEOMETRIES:
        assert read_back(geo.from_json, json.dumps(doc))[1] == err
    assert all(seen[kind] >= 5 for kind in (
        "ok", "KeyError", "TypeError", "ValueError", "element", "type",
        "incidence", "rank", "UnknownElement", "SelfIncidence",
        "SameTypeIncidence")), seen


def test_rc_matches_the_per_cotype_loop(monkeypatch, toroid_313):
    # the orbit counts of every cotype, not only the verdict, with no
    # orbit_labels call (the reference holds its own)
    calls = []
    monkeypatch.setattr(perms, "orbit_labels",
                        lambda *args: calls.append(args))
    assert not hasattr(geo, "orbit_labels")
    rng = random.Random(20261021)
    systems = [random_incidence_system(rng) for _ in range(1500)] \
        + [random_geometry(rng) for _ in range(500)] \
        + [g for g, _ in glued_controls(toroid_313[1])] \
        + [make_cube(), make_two_cubes(), toroid_313[1]]
    seen = collections.Counter()
    for g in systems:
        if not geo.is_geometry(g):
            continue
        chambers = geo._scan_geometry(g).chambers
        rc = geo.is_residually_connected(g)
        assert list(geo._cotype_orbits(chambers)) == ref.cotype_orbits(g)
        assert rc == ref.is_residually_connected(g), geo.to_json(g)
        seen[g.rank, rc] += 1
    assert calls == []
    assert all(seen[rank, rc] for rank in (2, 3, 4) for rc in (True, False))
