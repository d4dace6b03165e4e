import hashlib
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hyperforge import cli
from hyperforge import geometry as geo
from hyperforge import presentations as pres
from hyperforge.toroids import ToroidParams, cubic_toroid_presentation, \
    verify_family

from conftest import make_polygon


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def toroid_file(tmp_path):
    out = tmp_path / "toroid.json"
    code = run(["build", "toroid", "--n", "3", "--k", "2", "--s", "2",
                "-o", str(out)])
    assert code == 0
    return out


def test_build_toroid(toroid_file):
    g = geo.from_json(toroid_file.read_text())
    assert g.rank == 4
    assert g.type_counts() == (16, 48, 48, 16)


def test_build_is_deterministic(tmp_path, toroid_file):
    again = tmp_path / "again.json"
    assert run(["build", "toroid", "--n", "3", "--k", "2", "--s", "2",
                "-o", str(again)]) == 0
    assert again.read_bytes() == toroid_file.read_bytes()


def test_build_missing_args():
    assert run(["build", "toroid", "--n", "3"]) == 2


def test_build_bad_params():
    assert run(["build", "toroid", "--n", "3", "--k", "3", "--s", "1"]) == 2


def test_build_overflow():
    assert run(["--max-cosets", "10", "build", "toroid",
                "--n", "3", "--k", "2", "--s", "2"]) == 3


def test_build_from_presentation(tmp_path):
    pfile = tmp_path / "pres.json"
    pfile.write_text(pres.to_json(cubic_toroid_presentation(
        ToroidParams(3, 2, 2))))
    out = tmp_path / "geom.json"
    assert run(["build", "coset", "--presentation", str(pfile),
                "-o", str(out)]) == 0
    g = geo.from_json(out.read_text())
    assert g.type_counts() == (16, 48, 48, 16)


def test_build_file_roundtrip(tmp_path, toroid_file):
    out = tmp_path / "copy.json"
    assert run(["build", "file", "--input", str(toroid_file),
                "-o", str(out)]) == 0
    assert geo.from_json(out.read_text()) \
        == geo.from_json(toroid_file.read_text())


def test_build_missing_file():
    assert run(["build", "file", "--input", "/nonexistent.json"]) == 2


def test_check_passing(tmp_path, toroid_file):
    out = tmp_path / "report.json"
    assert run(["check", str(toroid_file),
                "--props", "geom,conn,thin,rc,b1:0:1,b2:0:1",
                "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(report.values())
    assert set(report) == {"geom", "conn", "thin", "rc", "b1:0:1",
                           "b2:0:1"}


def test_check_failing(tmp_path, toroid_file):
    # the (2,1) pair is not a simple-graph leaf of the toroid
    assert run(["check", str(toroid_file), "--props", "b1:2:1"]) == 1


def test_check_not_residually_connected(tmp_path, two_cubes):
    src = tmp_path / "two_cubes.json"
    src.write_text(geo.to_json(two_cubes))
    out = tmp_path / "report.json"
    assert run(["check", str(src), "--props", "rc", "-o", str(out)]) == 1
    assert json.loads(out.read_text()) == {"rc": False}


def test_check_unknown_property(toroid_file):
    assert run(["check", str(toroid_file), "--props", "sparkly"]) == 2


def test_halve(tmp_path, toroid_file):
    out = tmp_path / "halved.json"
    assert run(["halve", str(toroid_file), "--leaf", "0,1",
                "-o", str(out)]) == 0
    h = geo.from_json(out.read_text())
    assert h.rank == 4
    assert sum(h.type_counts()) > 0


def test_halve_bad_leaf(toroid_file):
    assert run(["halve", str(toroid_file), "--leaf", "zero"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "{}", "--props", "b1:0:9"],
    ["check", "{}", "--props", "b2:0:9"],
    ["check", "{}", "--props", "b1:-1:0"],
    ["check", "{}", "--props", "b1:0:0"],
    ["halve", "{}", "--leaf", "0,9"],
    ["halve", "{}", "--leaf", "0,0"],
    ["halve", "{}", "--leaf", "0,0", "--force"],
], ids=["b1-0-9", "b2-0-9", "b1-neg", "b1-0-0", "halve-0-9", "halve-0-0",
        "halve-0-0-force"])
def test_leaf_out_of_range(toroid_file, capsys, argv):
    assert run([arg.format(toroid_file) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_enumerate(tmp_path):
    pfile = tmp_path / "pres.json"
    pfile.write_text(pres.to_json(pres.coxeter_presentation(
        ((1, 3, 2), (3, 1, 3), (2, 3, 1)))))
    out = tmp_path / "cosets.csv"
    assert run(["enumerate", "--presentation", str(pfile),
                "--subgroup", "1, 2", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "0,1,2"
    assert len(lines) == 5  # header + 4 cosets


def test_diagram(tmp_path, toroid_file):
    out1 = tmp_path / "d1.dot"
    out2 = tmp_path / "d2.dot"
    assert run(["diagram", str(toroid_file), "-o", str(out1)]) == 0
    assert run(["diagram", str(toroid_file), "-o", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    assert text.startswith("graph")
    assert 'label="4"' in text


def test_verify_family(tmp_path, capsys):
    out = tmp_path / "family.json"
    assert run(["verify-family", "--n", "3", "--k", "2", "--s", "2",
                "--depth", "1", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["stages"]["halved"]["order_presentation"] == 384
    shown = capsys.readouterr().out
    assert "ok" in shown


# sha256 of the CLI's own bytes for one depth-2 cell: the report file
# (indent=1, default=str) and the stdout table, which the library
# report digests of test_acceptance.py do not cover
CLI_DIGESTS = {
    "file": "1ce7d05c41490b41c41bf9dc7a48617a"
            "298904735190e21af3a7fc599aeeb75a",
    "stdout": "517062b4c3e8d249302326e6f91e6eaf"
              "babe5e8bb0a57d3c4b5a8027d11a9dae",
}


def test_verify_family_output_digests(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify-family", "--n", "3", "--k", "1", "--s", "3",
                "--depth", "2", "-o", str(out)]) == 0
    got = {"file": hashlib.sha256(out.read_bytes()).hexdigest(),
           "stdout": hashlib.sha256(
               capsys.readouterr().out.encode()).hexdigest()}
    assert got == CLI_DIGESTS


def test_verify_family_bad_params():
    assert run(["verify-family", "--n", "2", "--k", "1", "--s", "3"]) == 2


def test_check_geometry_without_elements(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "incidences": []}))
    assert run(["check", str(bad), "--props", "geom"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("doc", [
    {"ngens": 3},
    {"ngens": 0, "relators": []},
    {"ngens": -1, "relators": []},
    {"ngens": 1.5, "relators": [[0, 0]]},
    {"ngens": True, "relators": [[0, 0]]},
    {"ngens": 2, "relators": [[0, 1.7]]},
    {"ngens": 2, "relators": [[True, 1]]},
    # letter MAX_NGENS is out of range at the bound and in range above
    # it, where the bound alone refuses the document
    {"ngens": pres.MAX_NGENS, "relators": [[pres.MAX_NGENS]]},
    {"ngens": pres.MAX_NGENS + 1, "relators": [[pres.MAX_NGENS]]},
], ids=["no-relators", "zero-gens", "negative-gens", "float-gens",
        "bool-gens", "float-letter", "bool-letter", "max-gens",
        "too-many-gens"])
def test_enumerate_presentation_without_relators(tmp_path, capsys, doc):
    pfile = tmp_path / "pres.json"
    pfile.write_text(json.dumps(doc))
    assert run(["enumerate", "--presentation", str(pfile)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_enumerate_bad_subgroup_word(tmp_path, capsys):
    pfile = tmp_path / "pres.json"
    pfile.write_text(pres.to_json(pres.coxeter_presentation(
        ((1, 3, 2), (3, 1, 3), (2, 3, 1)))))
    assert run(["enumerate", "--presentation", str(pfile),
                "--subgroup", "x"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_automorphism_search_limit_names_itself(tmp_path, capsys):
    # a 2501-gon: 5002 elements, two above the automorphism search's limit
    src = tmp_path / "polygon.json"
    src.write_text(geo.to_json(make_polygon(2501)))
    assert run(["check", str(src), "--props", "ft"]) == 3
    assert capsys.readouterr().err \
        == "limit exceeded: 5002 elements, more than 5000\n"


@pytest.mark.parametrize("cell, leaf", [
    ((3, 1, 3), None), ((3, 1, 3), "0,1"), ((4, 2, 2), None),
], ids=["313", "313-halved", "422"])
def test_check_flag_transitive_toroids(tmp_path, cell, leaf):
    src = tmp_path / "toroid.json"
    n, k, s = cell
    assert run(["build", "toroid", "--n", str(n), "--k", str(k),
                "--s", str(s), "-o", str(src)]) == 0
    if leaf is not None:
        toroid, src = src, tmp_path / "halved.json"
        assert run(["halve", str(toroid), "--leaf", leaf,
                    "-o", str(src)]) == 0
    out = tmp_path / "report.json"
    assert run(["check", str(src), "--props", "thin,rc,ft",
                "-o", str(out)]) == 0
    assert json.loads(out.read_text()) == {"thin": True, "rc": True,
                                           "ft": True}


def test_check_flag_transitive_without_chambers(tmp_path):
    # a point and a line that are not incident: no chamber to move
    src = tmp_path / "apart.json"
    src.write_text(json.dumps({"rank": 2, "elements": [
        {"id": 0, "type": 0}, {"id": 1, "type": 1}], "incidences": []}))
    out = tmp_path / "report.json"
    assert run(["check", str(src), "--props", "ft", "-o", str(out)]) == 0
    assert json.loads(out.read_text()) == {"ft": True}


def test_check_bad_leaf_index(tmp_path, capsys, triangle):
    tri = tmp_path / "triangle.json"
    tri.write_text(geo.to_json(triangle))
    assert run(["check", str(tri), "--props", "b1:0:x"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_bad_max_cosets_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPERFORGE_MAX_COSETS", "abc")
    assert run(["build", "toroid", "--n", "3", "--k", "2", "--s", "2",
                "-o", str(tmp_path / "unused.json")]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_check_geometry_with_float_type_id(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 1, "elements": [{"id": 0,
                                                        "type": 0.0}],
                               "incidences": []}))
    assert run(["check", str(bad), "--props", "geom"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


EDGE = [{"id": 0, "type": 0}, {"id": 1, "type": 1}]
THREE = [{"id": 0, "type": 0}, {"id": 1, "type": 0}, {"id": 2, "type": 1}]


# the first bad pair in input order is named, however large its ends
@pytest.mark.parametrize("doc,err", [
    ({"rank": 1, "elements": [{"id": 0, "type": 0}, {"id": 0, "type": 0}],
      "incidences": []}, "element ids must be dense 0..m-1"),
    ({"rank": 2, "elements": EDGE, "incidences": [[0, 0]]},
     "element 0 incident to itself"),
    ({"rank": 2, "elements": THREE, "incidences": [[0, 1]]},
     "elements 0,1 share type 0"),
    ({"rank": 2, "elements": EDGE, "incidences": [[0, 5]]},
     "incidence (0,5)"),
    ({"rank": 1, "elements": [{"id": 0, "type": 3}], "incidences": []},
     "type 3 out of range"),
    ({"rank": 2, "elements": EDGE, "incidences": [[0, 1], [0, 10 ** 30]]},
     "incidence (0,1000000000000000000000000000000)"),
    ({"rank": 2, "elements": EDGE, "incidences": [[-2 ** 70, 1]]},
     "incidence (-1180591620717411303424,1)"),
    # numpy alone would read these ends as floats
    ({"rank": 2, "elements": EDGE, "incidences": [[0, 1], [2 ** 63, 0]]},
     "incidence (9223372036854775808,0)"),
    ({"rank": 2, "elements": THREE,
      "incidences": [[0, 2], [0, 1], [2, 10 ** 30]]},
     "elements 0,1 share type 0"),
], ids=["duplicate-id", "self-incidence", "same-type-incidence",
        "incidence-out-of-range", "type-out-of-range", "end-past-int64",
        "end-below-int64", "end-past-int64-among-small",
        "same-type-before-out-of-range"])
def test_check_malformed_geometry(tmp_path, capsys, doc, err):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["check", str(bad), "--props", "geom"]) == 2
    assert capsys.readouterr().err == "usage error: %s\n" % err


@pytest.fixture()
def a2_file(tmp_path):
    pfile = tmp_path / "pres.json"
    pfile.write_text(pres.to_json(pres.coxeter_presentation(
        ((1, 3), (3, 1)))))
    return pfile


def test_max_cosets_above_int32(a2_file, capsys):
    assert run(["--max-cosets", "2147483648", "enumerate",
                "--presentation", str(a2_file)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_max_cosets_environment_above_int32(a2_file, monkeypatch, capsys):
    monkeypatch.setenv("HYPERFORGE_MAX_COSETS", "2147483648")
    assert run(["enumerate", "--presentation", str(a2_file)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


# Small ints only, except for a presentation's ngens, which is also
# drawn past its bound: it sets the width of every coset table row;
# and incidence ends, drawn unbounded: the geometry builder works on
# int64 arrays and must still name an end past int64.
SCALARS = (st.none() | st.booleans() | st.integers(-2, 6)
           | st.floats(allow_nan=False) | st.text(max_size=3))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner,
                                      max_size=3), max_leaves=8)
GEOMETRIES = st.fixed_dictionaries(
    {"rank": JSON | st.integers(),
     "elements": st.lists(st.fixed_dictionaries({"id": JSON,
                                                 "type": JSON}) | JSON,
                          max_size=4) | JSON,
     "incidences": st.lists(st.lists(JSON | st.integers(), max_size=3),
                            max_size=4) | JSON},
    optional={"provenance": JSON})
PRESENTATIONS = st.fixed_dictionaries(
    {"ngens": JSON | st.integers(pres.MAX_NGENS - 2, 2 ** 40),
     "relators": st.lists(st.lists(JSON, max_size=4), max_size=3) | JSON})
COMMANDS = [
    ["check", "{}", "--props", "geom"],
    ["--max-cosets", "64", "enumerate", "--presentation", "{}"],
    ["build", "file", "--input", "{}"],
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=JSON | GEOMETRIES | PRESENTATIONS,
       command=st.sampled_from(COMMANDS))
@example(doc={"ngens": 0, "relators": []}, command=COMMANDS[1])
@example(doc={"ngens": -1, "relators": []}, command=COMMANDS[1])
@example(doc={"ngens": 1.5, "relators": [[0, 0]]}, command=COMMANDS[1])
@example(doc={"ngens": 10 ** 8, "relators": []}, command=COMMANDS[1])
@example(doc={"rank": 10 ** 12, "elements": [], "incidences": []},
         command=COMMANDS[0])
@example(doc={"rank": 2, "elements": EDGE, "incidences": [[0, 10 ** 30]]},
         command=COMMANDS[0])
def test_loaders_exit_with_a_code_on_any_json(tmp_path, capsys, doc,
                                               command):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = run([arg.format(path) for arg in command])
    assert code in (0, 1, 2, 3)
    capsys.readouterr()


def test_pipeline_reads_only_the_incidence_arrays(tmp_path, monkeypatch):
    """verify_family and the JSON commands on the (3,1,3) toroid never
    build the adj tuple view; ft, residue, shadow and truncation_graph
    with a non-empty flag are its only readers."""
    def refuse(g):
        raise AssertionError("adj read")

    monkeypatch.setattr(geo.IncidenceGeometry, "adj", property(refuse))
    assert verify_family(ToroidParams(3, 1, 3), depth=2)["ok"]
    toroid, half = tmp_path / "toroid.json", tmp_path / "half.json"
    assert run(["build", "toroid", "--n", "3", "--k", "1", "--s", "3",
                "-o", str(toroid)]) == 0
    assert run(["halve", str(toroid), "--leaf", "0,1",
                "-o", str(half)]) == 0
    assert run(["diagram", str(toroid)]) == 0
    assert run(["check", str(toroid), "--props",
                "geom,conn,thin,rc,b1:0:1,b2:0:1"]) == 0
