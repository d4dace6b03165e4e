"""The three workloads: family, envelope and cli.

A workload is a list of chains.  A chain is a list of operations that
run in order and share a state dict (the envelope's group passed from
stage to stage, the cli session's files); chains are independent of
each other, so the seed may reorder them, and where a workload sets
interleave, alternate the steps of different chains.  Each operation
has a run step, which is timed, and a check step, which is not: the
check compares the result with oracles.py, which does not use
hyperforge.  A check that allocates much memory of its own (the cli
isomorphism check) keeps the output and leaves the comparison to the
operation's final step, which runs after the measured rounds.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil

from hyperforge import cli, constructions, engine, iso, perms, toddcox, \
    toroids
from hyperforge import geometry as geo

import oracles


class Op:
    """One timed call into the program plus the check of its result.

    fault names the program fault a malformed-input operation runs
    into today; such an operation passes once the command exits 2
    with a usage error, and fails the run if it fails any other way.
    output is the file a cli command writes, and kept is the copy of
    it that check keeps for final.  final, if set, returns the problems
    of that copy; it runs once per label, after peak RSS has been read.
    """

    def __init__(self, label, run, check, fault=None, final=None):
        self.label = label
        self.run = run
        self.check = check
        self.fault = fault
        self.final = final
        self.output = None
        self.kept = None


def _params(cell):
    return toroids.ToroidParams(*cell)


def _cell_name(cell):
    return "(%d,%d,%d)" % cell


def _digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- family

FAMILY_CELLS = [(3, k, s) for k in (1, 2, 3) for s in (2, 3, 4)
                if (k, s) != (1, 2)] + [(4, 2, 2)]


class Family:
    """verify_family(p, depth=2) on each cell, checked stage by stage."""

    interleave = False

    def __init__(self, workdir, cells=FAMILY_CELLS):
        self.params = {cell: _params(cell) for cell in cells}

    def chains(self):
        return [[self._op(cell)] for cell in self.params]

    def _op(self, cell):
        def run(state):
            return toroids.verify_family(self.params[cell], depth=2)

        def check(report, state):
            problems = oracles.check_family_report(*cell, report)
            return problems, _digest(json.dumps(report, sort_keys=True,
                                                default=str))
        return Op("verify_family %s" % _cell_name(cell), run, check)


# -------------------------------------------------------------- envelope

# (cell, whether its halvings are also checked against their closed-form
# presentations, which enumerates those presentations)
ENVELOPE_CELLS = [((4, 1, 3), True), ((4, 1, 4), False)]


def _halving_entry(hg, pres):
    """Order and Coxeter matrix of a halving computed on the group side;
    with a closed-form presentation, also the presentation's group and
    the geometry map that the generator correspondence induces."""
    out = {"order_subgroup": hg.order(),
           "matrix_subgroup": perms.coxeter_matrix(hg)}
    if pres is None:
        return out
    qg = toddcox.perm_image(toddcox.todd_coxeter(pres))
    out["order_presentation"] = qg.order()
    out["matrix_presentation"] = perms.coxeter_matrix(qg)
    gq = engine.coset_geometry(qg)
    gh = engine.coset_geometry(hg)
    ident = list(range(qg.ngens))
    out["geometry_map"] = engine.induced_geometry_map(gq, gh, ident,
                                                      ident) is not None
    return out


def _check_halving(where, entry, order, matrix):
    problems = []
    for key in ("order_subgroup", "order_presentation"):
        if key in entry and entry[key] != order:
            problems.append("%s %s: got %d, expected %d"
                            % (where, key, entry[key], order))
    for key in ("matrix_subgroup", "matrix_presentation"):
        if key in entry and [list(r) for r in entry[key]] != matrix:
            problems.append("%s %s: got %r" % (where, key, entry[key]))
    if entry.get("geometry_map") is False:
        problems.append("%s: no induced geometry isomorphism" % where)
    return problems


class Envelope:
    """Group side of the acceptance envelope: enumerate, coset geometry,
    truncation parity, then the (0,1) halving and the (n,n-1) halving of
    that; on the cells that ask for it, each halving is also checked
    against its closed-form presentation."""

    # each cell's chain runs whole, so that one cell's groups are alive
    # at a time and peak RSS does not depend on the seed
    interleave = False

    def __init__(self, workdir, cells=ENVELOPE_CELLS):
        self.cells = [cell for cell, _ in cells]
        self.pres = {}
        for cell, closed_form in cells:
            p = _params(cell)
            self.pres[cell] = (toroids.cubic_toroid_presentation(p),
                               toroids.halved_presentation(p)
                               if closed_form else None,
                               toroids.double_halved_presentation(p)
                               if closed_form else None)

    def chains(self):
        return [self._chain(cell) for cell in self.cells]

    def _chain(self, cell):
        n, k, s = cell
        pres, hpres, dpres = self.pres[cell]
        name = _cell_name(cell)

        def toroid(state):
            pg = toddcox.perm_image(toddcox.todd_coxeter(pres))
            g = engine.coset_geometry(pg)
            adj, _ = constructions.truncation_graph(g, (0, 1))
            state["pg"] = pg
            return {"order": pg.order(), "counts": g.type_counts(),
                    "bipartite": constructions.parity_classes(adj).bipartite,
                    "matrix": perms.coxeter_matrix(pg)}

        def check_toroid(r, state):
            problems = oracles.check_toroid(n, k, s, r["order"], r["counts"])
            if r["bipartite"] != oracles.truncation_bipartite(k, s):
                problems.append("truncation parity %r" % r["bipartite"])
            if [list(row) for row in r["matrix"]] != \
                    oracles.linear_coxeter(n):
                problems.append("toroid Coxeter matrix %r" % (r["matrix"],))
            return problems, _digest(repr(sorted(r.items())))

        def halved(state):
            hg = engine.halving_group(state.pop("pg"), (0, 1))
            state["hg"] = hg
            return _halving_entry(hg, hpres)

        def check_halved(r, state):
            order = oracles.group_order(n, k, s) // oracles.halving_index(k, s)
            problems = _check_halving("halved", r, order,
                                      oracles.y_coxeter(n))
            return problems, _digest(repr(sorted(r.items())))

        def double(state):
            h2 = engine.halving_group(state.pop("hg"), (n, n - 1))
            return _halving_entry(h2, dpres)

        def check_double(r, state):
            order = oracles.group_order(n, k, s) \
                // oracles.halving_index(k, s) // 2
            problems = _check_halving("double halved", r, order,
                                      oracles.double_halved_coxeter(n))
            return problems, _digest(repr(sorted(r.items())))

        return [Op("toroid %s" % name, toroid, check_toroid),
                Op("halved %s" % name, halved, check_halved),
                Op("double_halved %s" % name, double, check_double)]


# ------------------------------------------------------------------- cli

# full sessions on a P-branch cell (k and s odd) and a BP-branch cell;
# the flag says whether the session draws the halving's diagram
CLI_SESSIONS = [((4, 1, 3), False), ((4, 2, 2), True)]
# flag-transitivity runs on the halvings of cells this small
CLI_FT = [(3, 2, 2)]

# a geometry without "elements", a two-generator presentation and a
# triangle (three points, three lines): the malformed commands' inputs
BAD_GEOMETRY = {"rank": 2, "incidences": [[0, 3]]}
SMALL_PRESENTATION = {"ngens": 2, "relators": [[0, 1, 0, 1, 0, 1]]}
TRIANGLE = {"rank": 2,
            "elements": [{"id": e, "type": 0 if e < 3 else 1}
                         for e in range(6)],
            "incidences": [[0, 3], [0, 4], [1, 3], [1, 5], [2, 4], [2, 5]]}


def _main(argv, env=None):
    """cli.main in process; returns (exit code, stderr text)."""
    err = io.StringIO()
    saved = {key: os.environ.get(key) for key in (env or {})}
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    return code, err.getvalue()


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def _type_counts(doc):
    counts = [0] * doc["rank"]
    for e in doc["elements"]:
        counts[e["type"]] += 1
    return counts


def _dot_shape(text, rank):
    """Diagram shape read back from DOT: unlabelled edges are 3s."""
    degrees = [0] * rank
    labels = []
    for line in text.splitlines():
        line = line.strip()
        if " -- " not in line:
            continue
        ends, _, attrs = line.rstrip(";").partition(" [")
        i, j = (int(t.strip()[1:]) for t in ends.split(" -- "))
        degrees[i] += 1
        degrees[j] += 1
        label = 3
        for attr in attrs.rstrip("]").split(", "):
            if attr.startswith("label="):
                label = int(attr[len("label="):].strip('"'))
        labels.append(label)
    return [sorted(degrees), sorted(labels)]


class Cli:
    """In-process cli.main sessions over JSON files, plus the four
    malformed-input commands of the known faults."""

    interleave = True

    def __init__(self, workdir, sessions=CLI_SESSIONS, ft=CLI_FT):
        self.workdir = workdir
        self.sessions = list(sessions)
        self.ft = list(ft)
        self.group_side = {}
        self.inputs = {}
        for name, doc in (("bad_geometry", BAD_GEOMETRY),
                          ("presentation", SMALL_PRESENTATION),
                          ("triangle", TRIANGLE)):
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
            self.inputs[name] = path

    def _halvings(self, cell):
        """Coset geometries of the group-side halvings of the cell,
        computed once per run, in the final checks."""
        if cell not in self.group_side:
            n = cell[0]
            pres = toroids.cubic_toroid_presentation(_params(cell))
            pg = toddcox.perm_image(toddcox.todd_coxeter(pres))
            hg = engine.halving_group(pg, (0, 1))
            h2 = engine.halving_group(hg, (n, n - 1))
            self.group_side[cell] = (engine.coset_geometry(hg),
                                     engine.coset_geometry(h2))
        return self.group_side[cell]

    def chains(self):
        chains = [self._session(cell, diagram)
                  for cell, diagram in self.sessions]
        chains += [self._ft_chain(cell) for cell in self.ft]
        chains += [[op] for op in self._malformed()]
        return chains

    def _rel(self, path):
        return os.path.relpath(path, self.workdir)

    def _chain_dir(self, name):
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def _command(self, label, argv, output, check, final=None):
        """A well-formed command: it must exit 0, then check() looks at
        the file it wrote."""
        def run(state):
            return _main(argv)

        def checked(result, state):
            code, err = result
            if code != 0:
                return ["%s: exit %d: %s" % (label, code, err.strip())], None
            return check()
        op = Op(label, run, checked, final=final)
        op.output = output
        return op

    def _build(self, d, cell):
        n, k, s = cell
        out = os.path.join(d, "t.json")

        def check():
            text = _read(out)
            counts = _type_counts(json.loads(text))
            return oracles.check_type_counts(n, k, s, counts), _digest(text)
        return self._command(
            "build toroid %s" % self._rel(out),
            ["build", "toroid", "--n", str(n), "--k", str(k), "--s", str(s),
             "-o", out], out, check)

    def _halve(self, d, cell, src, dst, leaf):
        out = os.path.join(d, dst)
        kept = os.path.join(self._chain_dir("kept"),
                            self._rel(out).replace(os.sep, "_"))

        def check():
            # the first round's output is kept for final(); later rounds
            # must match it, which run.py checks by digest
            if not os.path.exists(kept):
                shutil.copyfile(out, kept)
            return [], _digest(_read(out))

        def final():
            want = self._halvings(cell)[0 if leaf == (0, 1) else 1]
            if iso.isomorphic(geo.from_json(_read(kept)), want,
                              max_elements=10 ** 5):
                return []
            return ["%s is not isomorphic to the group side" % out]
        op = self._command(
            "halve %s" % self._rel(out),
            ["halve", os.path.join(d, src), "--leaf", "%d,%d" % leaf,
             "-o", out], out, check, final)
        op.kept = kept
        return op

    def _check(self, d, src, props):
        out = os.path.join(d, "check_%s_%s.json" % (src, props[-1]))

        def check():
            text = _read(out)
            report = json.loads(text)
            bad = sorted(p for p in props if report.get(p) is not True)
            problems = ["%s: %s not true" % (out, ",".join(bad))] \
                if bad else []
            return problems, _digest(text)
        return self._command(
            "check %s" % self._rel(out),
            ["check", os.path.join(d, src), "--props", ",".join(props),
             "-o", out], out, check)

    def _session(self, cell, diagram):
        n = cell[0]
        last = (n, n - 1)
        d = self._chain_dir("%d%d%d" % cell)
        t_json = os.path.join(d, "t.json")
        dot = os.path.join(d, "h.dot")
        copy = os.path.join(d, "t_copy.json")
        props = ["geom", "conn", "thin", "rc"]

        def check_dot():
            text = _read(dot)
            want = oracles.diagram_shape(oracles.y_coxeter(n))
            got = _dot_shape(text, n + 1)
            problems = [] if got == want else \
                ["%s: shape %r, expected %r" % (dot, got, want)]
            return problems, _digest(text)

        def check_copy():
            same = _read(copy, "rb") == _read(t_json, "rb")
            return ([] if same else
                    ["%s differs from its input" % copy]), None
        chain = [
            self._build(d, cell),
            self._check(d, "t.json", props + ["b1:0:1", "b2:0:1"]),
            self._halve(d, cell, "t.json", "h.json", (0, 1)),
            self._check(d, "h.json", props + ["b1:%d:%d" % last,
                                              "b2:%d:%d" % last]),
            self._halve(d, cell, "h.json", "hh.json", last),
        ]
        if diagram:
            chain.append(self._command(
                "diagram %s" % self._rel(dot),
                ["diagram", os.path.join(d, "h.json"), "-o", dot], dot,
                check_dot))
        chain.append(self._command(
            "build file %s" % self._rel(copy),
            ["build", "file", "--input", t_json, "-o", copy], copy,
            check_copy))
        return chain

    def _ft_chain(self, cell):
        d = self._chain_dir("ft%d%d%d" % cell)
        return [self._build(d, cell),
                self._halve(d, cell, "t.json", "h.json", (0, 1)),
                self._check(d, "h.json", ["ft"])]

    def _malformed(self):
        tri = self.inputs["triangle"]
        cases = [
            ("check without elements", "KeyError",
             ["check", self.inputs["bad_geometry"], "--props", "geom"], None),
            ("enumerate --subgroup x", "ValueError",
             ["enumerate", "--presentation", self.inputs["presentation"],
              "--subgroup", "x"], None),
            ("check --props b1:0:x", "ValueError",
             ["check", tri, "--props", "b1:0:x"], None),
            ("HYPERFORGE_MAX_COSETS=abc", "ValueError",
             ["build", "toroid", "--n", "3", "--k", "2", "--s", "2",
              "-o", os.path.join(self.workdir, "unused.json")],
             {"HYPERFORGE_MAX_COSETS": "abc"}),
        ]
        ops = []
        for label, fault, argv, env in cases:
            ops.append(Op(label, _malformed_run(argv, env), _usage_error,
                          fault=fault))
        return ops


def _malformed_run(argv, env):
    def run(state):
        return _main(argv, env)
    return run


def _usage_error(result, state):
    code, err = result
    if code == 2 and err.startswith("usage error"):
        return [], None
    return ["exit %d, not a usage error: %s" % (code, err.strip())], None


WORKLOADS = {"family": Family, "envelope": Envelope, "cli": Cli}
