"""Pure-Python HLT coset enumeration kernel with lookahead.

All generators are involutions, so a generator is its own inverse and
the coset table doubles as its own inverse table.  It is held one list
per generator (cols[x][c] is coset c.gen_x), and a word is scanned as
the tuple of its letters' lists.  Coincidences are resolved in place
with a union-find over coset indices.  When the table grows well past
the live coset count, a lookahead pass scans the relators from the
live cosets without defining anything, then the table is compacted in
first-definition order; the surviving numbering is deterministic.

Two rules skip the relator scans that cannot change the table:

1. Closed-cycle marks.  Once relator w traces closed from coset c,
   every rotation of w, read forwards or backwards (the generators are
   involutions), traces closed from each coset c.w[:k] on that cycle.
   Such a pair (coset, relator) is marked, and a marked relator is not
   scanned from that coset again.
2. The lookahead starts at the HLT scan pointer: every live coset below
   it has been processed, so every relator traces closed from it.

Both skips are no-ops because a closed trace stays closed: deductions
only fill undefined entries, coincidence processing leaves every live
row's entries defined and pointing at live rows, dead rows are never
scanned, and compact() renumbers the marks together with the rows.

The finished table is handed over as one bytearray of native int32,
row-major, filled one column at a time from the lists.

The compiled kernel, the C extension _tccore.c, makes the same sequence
of definitions, deductions, merges, lookaheads and compactions, so the
two return byte-identical tables; tests/test_toddcox.py checks this.
"""

from bisect import bisect_left
from operator import itemgetter

import numpy as np

UNDEF = -1

# lookahead once the table holds this many more rows than live cosets
LOOKAHEAD_SLACK = 1 << 16

# rows added to the columns and marks at a time
GROW = 4096


def _cycle_marks(words):
    """For each w in the set (or dict) words, the pairs (k, u), k
    increasing, with u in words equal to w[k:] + w[:k] or to
    reversed(w[:k]) + reversed(w[k:]): the words that trace closed from
    c.w[:k] once w traces closed from c."""
    return {w: [(k, u) for k in range(len(w))
                for u in {w[k:] + w[:k], w[:k][::-1] + w[k:][::-1]}
                if u in words]
            for w in words}


def _gather(seq, indices):
    """[seq[i] for i in indices], for a non-empty indices, at C speed."""
    if len(indices) == 1:
        return [seq[indices[0]]]
    return itemgetter(*indices)(seq)


class _State:

    def __init__(self, ngens, relators, max_cosets):
        self.max_cosets = max_cosets
        self.cols = [[UNDEF] for _ in range(ngens)]
        self.rep = [0]
        self.nlive = 1
        self.pending = []
        # rows held by cols and marks; those from len(rep) on are unused
        self.cap = 1
        # marks[w][c] is set once relator w is known to close from c;
        # equal relators share their marks
        words = [tuple(w) for w in relators]
        marks = {w: bytearray(1) for w in words}
        self.marks = list(marks.values())
        walks = {}
        for w, cycle in _cycle_marks(marks).items():
            # walk: the mark of u to set at c.w[:k], then the columns to
            # the next k in the cycle
            ks = [k for k, _ in cycle]
            walks[w] = tuple((marks[u], tuple(self.cols[x] for x in w[k:end]))
                             for (k, u), end in zip(cycle, ks[1:] + ks[-1:]))
        # each relator as its columns, and reversed for the lookahead
        cols = {w: tuple(self.cols[x] for x in w) for w in marks}
        self.relators = [(cols[w], cols[w][::-1], marks[w], walks[w])
                         for w in words]

    def find(self, c):
        rep = self.rep
        root = c
        while rep[root] != root:
            root = rep[root]
        while rep[c] != root:
            rep[c], c = root, rep[c]
        return root

    def define(self, c, col):
        if self.nlive >= self.max_cosets:
            return UNDEF
        n = len(self.rep)
        if n == self.cap:
            for other in self.cols:
                other.extend([UNDEF] * GROW)
            for mark in self.marks:
                mark.extend(bytes(GROW))
            self.cap += GROW
        self.rep.append(n)
        self.nlive += 1
        col[c] = n
        col[n] = c
        return n

    def merge(self, a, b):
        a = self.find(a)
        b = self.find(b)
        if a != b:
            if b < a:
                a, b = b, a
            self.rep[b] = a
            self.nlive -= 1
            self.pending.append(b)

    def coincidence(self, a, b):
        find = self.find
        merge = self.merge
        merge(a, b)
        while self.pending:
            gamma = self.pending.pop()
            for col in self.cols:
                delta = col[gamma]
                if delta == UNDEF:
                    continue
                col[delta] = UNDEF
                mu = find(gamma)
                nu = find(delta)
                if col[mu] != UNDEF:
                    merge(nu, col[mu])
                elif col[nu] != UNDEF:
                    merge(mu, col[nu])
                else:
                    col[mu] = nu
                    col[nu] = mu

    def deduce(self, f, col, b):
        """Close the one-letter gap f.col = b."""
        if col[f] != UNDEF:
            self.coincidence(col[f], b)
        elif col[b] != UNDEF:
            self.coincidence(col[b], f)
        else:
            col[f] = b
            col[b] = f

    def scan(self, c, word):
        """Scan word (a tuple of columns) from c, filling gaps.

        Returns False only when a needed definition hits max_cosets.
        """
        f = b = c
        i = 0
        j = len(word) - 1
        while True:
            while i <= j and word[i][f] != UNDEF:
                f = word[i][f]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return True
            while j >= i and word[j][b] != UNDEF:
                b = word[j][b]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return True
            if i == j:
                self.deduce(f, word[i], b)
                return True
            if self.define(f, word[i]) == UNDEF:
                return False

    @staticmethod
    def mark_cycle(c, walk):
        """A relator traces closed from c: along its cycle, mark each
        relator equal to one of its rotations, read forwards or
        backwards, at the coset where that rotation starts."""
        for mark, cols in walk:
            mark[c] = 1
            for col in cols:
                c = col[c]

    def scan_relators(self, c):
        """scan() each relator not marked at c until c dies, and mark
        the cycle of each trace that closes; False as scan()."""
        rep = self.rep
        for word, _, mark, walk in self.relators:
            if mark[c]:
                continue
            f = c
            for col in word:
                f = col[f]
                if f == UNDEF:
                    break
            if f != c:
                if not self.scan(c, word):
                    return False
                if rep[c] != c:
                    break
            self.mark_cycle(c, walk)
        return True

    def lookahead(self, start):
        """From each live coset from start on, scan each relator not
        marked there without defining: as scan(), but a gap of two
        letters or more is left open.  Mark each trace that closes."""
        rep = self.rep
        for c in range(start, len(rep)):
            if rep[c] != c:
                continue
            for word, back, mark, walk in self.relators:
                if mark[c]:
                    continue
                f = b = c
                i, j = 0, len(word) - 1
                for col in word:
                    if col[f] == UNDEF:
                        break
                    f = col[f]
                    i += 1
                if i > j:
                    if f != b:
                        self.coincidence(f, b)
                else:
                    for col in back:
                        if j < i or col[b] == UNDEF:
                            break
                        b = col[b]
                        j -= 1
                    if j > i:
                        continue
                    if j < i:
                        self.coincidence(f, b)
                    else:
                        self.deduce(f, word[i], b)
                if rep[c] != c:
                    break
                d = c
                for m, cols in walk:
                    m[d] = 1
                    for col in cols:
                        d = col[d]

    def compact(self, position):
        """Drop dead rows and renumber in definition order, in place so
        that the word tuples keep their columns and marks.  Returns the
        new scan position for a loop that had processed all cosets
        below it."""
        rep = self.rep
        live = [c for c, r in enumerate(rep) if r == c]
        # live rows point only at live rows; renum[UNDEF] is UNDEF
        renum = [UNDEF] * (len(rep) + 1)
        for n, c in enumerate(live):
            renum[c] = n
        for col in self.cols:
            col[:] = _gather(renum, _gather(col, live))
        position = bisect_left(live, position)
        # no row below the scan position is scanned again: their marks
        # stay; the view gathering the others is gone before they shrink
        rows = np.array(live[position:], dtype=np.intp)
        for mark in self.marks:
            mark[position:] = np.frombuffer(mark, np.uint8)[rows].tobytes()
        rep[:] = range(len(live))
        self.cap = len(live)
        return position


def enumerate_cosets(ngens, relators, subgens, max_cosets):
    """Run HLT over the given relators and subgroup generator words.

    Returns the table as a bytearray of native int32, row-major (live
    cosets only, renumbered in first-definition order), or None when
    max_cosets live cosets are exceeded.
    """
    st = _State(ngens, relators, max_cosets)
    cols = st.cols
    rep = st.rep
    for word in subgens:
        if not st.scan(0, tuple(cols[x] for x in word)):
            return None

    def process(c):
        """Fill every relator trace and row entry of live coset c."""
        if not st.scan_relators(c):
            return False
        for col in cols:
            if rep[c] != c:
                return True
            if col[c] == UNDEF:
                if st.define(c, col) == UNDEF:
                    return False
        return True

    next_la = LOOKAHEAD_SLACK
    c = 0
    while c < len(rep):
        if len(rep) >= next_la:
            st.lookahead(c)
            c = st.compact(c)
            next_la = len(rep) + max(st.nlive, LOOKAHEAD_SLACK)
            continue
        if rep[c] != c:
            c += 1
            continue
        if not process(c):
            # out of room: a lookahead may free cosets, retry once
            st.lookahead(c)
            c = st.compact(c)
            next_la = len(rep) + max(st.nlive, LOOKAHEAD_SLACK)
            # every row is live after compact(); c is past the last one
            # when the lookahead merged away c and all cosets after it
            if c < len(rep) and not process(c):
                return None
        c += 1

    st.compact(c)
    buf = bytearray(4 * len(rep) * ngens)
    table = np.frombuffer(buf, np.int32).reshape(len(rep), ngens)
    for x, col in enumerate(cols):
        table[:, x] = col
    return buf
