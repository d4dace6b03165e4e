"""Coset enumeration front end.

Picks the compiled kernel (_tccore.c, a C extension built when a C
compiler is present) when it is importable, otherwise the pure-Python
one (_tcpure.py).  Both make the same sequence of definitions,
deductions, merges, lookaheads and compactions, so their tables are
bit-identical.  Both skip the relator scans that cannot change the
table: a relator is not scanned again from a coset on a cycle that it,
or a rotation or reversal of it, already traces closed (a mark per
coset and relator), and a lookahead starts at the HLT scan pointer,
below which every relator traces closed.  The skips are no-ops since a
closed trace stays closed: deductions only fill undefined entries and
coincidence processing leaves every live row's entries defined.
Each kernel hands its finished table over as one bytearray of native
int32, row-major; CosetTable.table is an int32 view of that buffer,
with no copy.  Completed tables are verified by replaying every relator
from every coset and every subgroup word from coset 0.
"""

import logging
import os
import time

import numpy as np

from .errors import Overflow, IncompleteTable, InvalidParams
from .perms import PermGroup
from . import _tcpure

try:
    from . import _tccore
except ImportError:  # pragma: no cover
    _tccore = None

DEFAULT_MAX_COSETS = 5 * 10 ** 6
# the compiled kernel numbers cosets with C ints; both backends keep
# this bound so that they accept the same limits
MAX_COSETS_BOUND = 2 ** 31 - 1


def default_max_cosets():
    env = os.environ.get("HYPERFORGE_MAX_COSETS")
    if not env:
        return DEFAULT_MAX_COSETS
    try:
        return int(env)
    except ValueError:
        raise InvalidParams("HYPERFORGE_MAX_COSETS=%r is not an integer"
                            % env)


def backend_name():
    return "compiled" if _tccore is not None else "pure"


class CosetTable:
    """Complete table: table[c][x] = coset c.gen_x; row 0 = subgroup.

    table is an (ncosets, ngens) int32 array; from todd_coxeter it is a
    view of the kernel's buffer."""

    def __init__(self, ngens, table, subgens):
        self.ngens = ngens
        self.table = np.asarray(table, dtype=np.int32)
        self.subgens = tuple(tuple(w) for w in subgens)

    @property
    def ncosets(self):
        return self.table.shape[0]

    def to_csv(self):
        lines = [",".join(str(x) for x in range(self.ngens))]
        for row in self.table:
            lines.append(",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def _verify(t, relators):
    idx = np.arange(t.ncosets)
    cols = [t.table[:, x] for x in range(t.ngens)]
    for word in relators:
        cur = idx
        for x in word:
            cur = cols[x][cur]
        if not np.array_equal(cur, idx):
            raise IncompleteTable("relator %r does not close" % (word,))
    for word in t.subgens:
        c = 0
        for x in word:
            c = int(cols[x][c])
        if c != 0:
            raise IncompleteTable("subgroup word %r leaves coset 0" % (word,))
    for x, col in enumerate(cols):
        if not np.array_equal(col[col], idx):
            raise IncompleteTable("generator %d is not an involution" % x)


def todd_coxeter(p, subgens=(), max_cosets=None, backend=None):
    """Enumerate cosets of <subgens> in the presented group."""
    if max_cosets is None:
        max_cosets = default_max_cosets()
    if max_cosets < 1:
        raise InvalidParams("max_cosets must be positive")
    if max_cosets > MAX_COSETS_BOUND:
        raise InvalidParams("max_cosets must be at most %d"
                            % MAX_COSETS_BOUND)
    subgens = [tuple(int(x) for x in w) for w in subgens]
    for w in subgens:
        if any(x < 0 or x >= p.ngens for x in w):
            raise InvalidParams("subgroup word letter out of range")
    if backend is None:
        backend = backend_name()
    if backend == "compiled":
        if _tccore is None:
            raise InvalidParams("compiled kernel not available")
        kernel = _tccore
    elif backend == "pure":
        kernel = _tcpure
    else:
        raise InvalidParams("unknown backend %r" % (backend,))
    t0 = time.perf_counter()
    buf = kernel.enumerate_cosets(p.ngens, list(p.relators), subgens,
                                  max_cosets)
    table = None if buf is None else \
        np.frombuffer(buf, np.int32).reshape(-1, p.ngens)
    logging.getLogger("hyperforge").debug(
        "enumeration on the %s kernel: %d generators, %d relators, "
        "%s cosets, %.3f s", backend, p.ngens, len(p.relators),
        ">%d" % max_cosets if table is None else len(table),
        time.perf_counter() - t0)
    if table is None:
        raise Overflow(max_cosets)
    t = CosetTable(p.ngens, table, subgens)
    _verify(t, p.relators)
    return t


def perm_image(t):
    """Right action of the generators on cosets, as a PermGroup; its
    int64 generator arrays are the only copy of the table."""
    gens = [t.table[:, x].astype(np.int64) for x in range(t.ngens)]
    regular = not t.subgens
    return PermGroup(t.ncosets, gens, regular=regular,
                     order=t.ncosets if regular else None)
