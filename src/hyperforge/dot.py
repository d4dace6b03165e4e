"""Deterministic DOT rendering of Buekenhout diagrams.

Edges labelled 3 are drawn plain (the label is omitted, as usual for
diagrams); label 4 is drawn as a doubled stroke via penwidth while
keeping an explicit label attribute so the value stays machine
readable.  Output is byte-stable for a given geometry.
"""

from . import geometry as geo


def _edge_attrs(label, mults):
    attrs = []
    if label == 4:
        attrs.append('label="4"')
        attrs.append("penwidth=3")
    elif label != 3:
        attrs.append('label="%s"' % label)
    if mults:
        attrs.append('tooltip="%s"' % mults)
    return attrs


def diagram_to_dot(g):
    """DOT source for the diagram of a geometry (digon edges omitted)."""
    d = geo.buekenhout_diagram(g)
    lines = ["graph diagram {"]
    for t in range(g.rank):
        lines.append('  t%d [shape=circle, label="%d"];' % (t, t))
    for (i, j) in sorted(d.entries):
        if d.is_digon(i, j):
            continue
        if d.is_uniform(i, j):
            label = d.label(i, j)[0]
            mults = ""
        else:
            labs = d.entries[(i, j)]
            label = "/".join(str(lab[0]) for lab, _ in labs)
            mults = " ".join("%sx%d" % (lab, m) for lab, m in labs)
        attrs = _edge_attrs(label, mults)
        suffix = " [%s]" % ", ".join(attrs) if attrs else ""
        lines.append("  t%d -- t%d%s;" % (i, j, suffix))
    lines.append("}")
    return "\n".join(lines) + "\n"
