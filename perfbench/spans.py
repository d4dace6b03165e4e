"""Spans around hyperforge's public functions, for the traced run only.

install() replaces each traced function, in every hyperforge module
that holds it, by a wrapper that records a span (name, start, end,
parent, operation id) while the tracer is active.  Modules that import
a function by value (toddcox.todd_coxeter in toroids and cli,
perms.orbit in engine, ...) hold the same object, so they are patched
too and their calls keep their spans.  uninstall() restores every
attribute.  Nothing under src is edited.
"""

import functools
import importlib
import sys
import time

# (module, attribute, span name, counter) for every traced function.
# A counter is (name, function of the call's result giving the amount).
TARGETS = [
    ("hyperforge.toddcox", "todd_coxeter", "toddcox.todd_coxeter",
     ("cosets", lambda r: r.ncosets)),
    ("hyperforge.toddcox", "_verify", "toddcox.verify", None),
    ("hyperforge.toddcox", "perm_image", "toddcox.perm_image", None),
    ("hyperforge._tcpure", "enumerate_cosets", "toddcox.kernel", None),
    ("hyperforge._tccore", "enumerate_cosets", "toddcox.kernel", None),
    ("hyperforge.engine", "coset_geometry", "engine.coset_geometry",
     ("elements", lambda r: r.nelements)),
    ("hyperforge.engine", "halving_group", "engine.halving_group", None),
    ("hyperforge.engine", "induced_geometry_map",
     "engine.induced_geometry_map", None),
    ("hyperforge.engine", "natural_action", "engine.natural_action", None),
    ("hyperforge.engine", "left_mult_gens", "engine.left_mult_gens", None),
    ("hyperforge.engine", "orbit_labels", "engine.orbit_labels", None),
    ("hyperforge.perms", "coxeter_matrix", "perms.coxeter_matrix", None),
    ("hyperforge.perms", "intersection_property",
     "perms.intersection_property", None),
    ("hyperforge.perms", "orbit", "perms.orbit", None),
    ("hyperforge.geometry", "is_geometry", "geometry.is_geometry", None),
    ("hyperforge.geometry", "is_thin", "geometry.is_thin", None),
    ("hyperforge.geometry", "is_residually_connected",
     "geometry.is_residually_connected", None),
    ("hyperforge.geometry", "enumerate_chambers",
     "geometry.enumerate_chambers", ("chambers", len)),
    ("hyperforge.geometry", "buekenhout_diagram",
     "geometry.buekenhout_diagram", None),
    ("hyperforge.geometry", "build_geometry", "geometry.build_geometry",
     ("elements", lambda r: r.nelements)),
    ("hyperforge.geometry", "to_json", "geometry.to_json",
     ("bytes", len)),
    ("hyperforge.geometry", "from_json", "geometry.from_json", None),
    ("hyperforge.constructions", "halving_geometry",
     "constructions.halving_geometry", None),
    ("hyperforge.constructions", "p_construction",
     "constructions.p_construction", None),
    ("hyperforge.constructions", "bp_construction",
     "constructions.bp_construction", None),
    ("hyperforge.constructions", "truncation_graph",
     "constructions.truncation_graph", None),
    ("hyperforge.constructions", "parity_classes",
     "constructions.parity_classes", None),
    ("hyperforge.constructions", "check_B1", "constructions.check_B1", None),
    ("hyperforge.constructions", "check_B2", "constructions.check_B2", None),
    ("hyperforge.iso", "automorphism_group", "iso.automorphism_group",
     ("maps", lambda r: r.order())),
    ("hyperforge.iso", "is_flag_transitive", "iso.is_flag_transitive", None),
    ("hyperforge.iso", "validate_action", "iso.validate_action", None),
    ("hyperforge.iso", "isomorphic", "iso.isomorphic", None),
    ("hyperforge.toroids", "verify_family", "toroids.verify_family", None),
    ("hyperforge.toroids", "build_cubic_toroid",
     "toroids.build_cubic_toroid", None),
    ("hyperforge.cli", "cmd_build", "cli.build", None),
    ("hyperforge.cli", "cmd_check", "cli.check", None),
    ("hyperforge.cli", "cmd_halve", "cli.halve", None),
    ("hyperforge.cli", "cmd_diagram", "cli.diagram", None),
    ("hyperforge.cli", "cmd_enumerate", "cli.enumerate", None),
    ("hyperforge.dot", "diagram_to_dot", "dot.diagram_to_dot", None),
]

# span name -> name of its counter
COUNTERS = {name: counter[0]
            for _, _, name, counter in TARGETS if counter is not None}

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in TARGETS))

OP_SPAN = "op"


class Tracer:
    """In-memory span store.  A span is [name, start, end, parent, op]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.active = False
        self._stack = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id
        self._stack = [self._open(OP_SPAN)]
        self.active = True

    def end_op(self):
        self.active = False
        self._close(self._stack.pop())

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()

    def wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(sid)
            if counter is not None:
                key = "%s.%s" % (name, counter[0])
                tracer.counts[key] = tracer.counts.get(key, 0) + \
                    counter[1](result)
            return result
        return traced

    def self_times(self):
        """{span name: (summed self seconds, calls)}; self time is the
        span minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[sid], calls + 1)
        return out


def install(tracer):
    """Patch every traced function; returns the undo list."""
    found = {}
    for modname, _, _, _ in TARGETS:
        try:
            found[modname] = importlib.import_module(modname)
        except ImportError:  # the compiled kernel is optional
            pass
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hyperforge"
                                  or name.startswith("hyperforge."))]
    undo = []
    for modname, attr, name, counter in TARGETS:
        if modname not in found:
            continue
        orig = getattr(found[modname], attr)
        wrapper = tracer.wrap(name, orig, counter)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, key, orig))
                    setattr(m, key, wrapper)
    return undo


def uninstall(undo):
    for m, key, orig in reversed(undo):
        setattr(m, key, orig)
