"""Pure-Python HLT coset enumeration kernel with lookahead.

All generators are involutions, so a generator is its own inverse and
the coset table doubles as its own inverse table.  It is held one list
per generator (cols[x][c] is coset c.gen_x), and a word is scanned as
the tuple of its letters' lists.  Coincidences are resolved in place
with a union-find over coset indices.  When the table grows well past
the live coset count, a lookahead pass scans every relator from every
live coset without defining anything, then the table is compacted in
first-definition order; the surviving numbering is deterministic.

The compiled kernel, the C extension _tccore.c, makes the same sequence
of definitions, deductions, merges, lookaheads and compactions, so the
two return bit-identical tables; tests/test_toddcox.py checks this.
"""

from bisect import bisect_left
from itertools import chain

UNDEF = -1

# lookahead once the table holds this many more rows than live cosets
LOOKAHEAD_SLACK = 1 << 16


class _State:

    def __init__(self, ngens, max_cosets):
        self.max_cosets = max_cosets
        self.cols = [[UNDEF] for _ in range(ngens)]
        self.rep = [0]
        self.nlive = 1
        self.pending = []

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
        for other in self.cols:
            other.append(UNDEF)
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

    def scan(self, c, word, fill):
        """Scan word (a tuple of columns) from c; fill gaps if fill is set.

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
                # deduction closes the gap
                col = word[i]
                if col[f] != UNDEF:
                    self.coincidence(col[f], b)
                elif col[b] != UNDEF:
                    self.coincidence(col[b], f)
                else:
                    col[f] = b
                    col[b] = f
                return True
            if not fill:
                return True
            if self.define(f, word[i]) == UNDEF:
                return False

    def scan_relators(self, c, relators, fill):
        """scan() each relator from c until c dies; False as scan()."""
        rep = self.rep
        for word in relators:
            # a trace that closes at c changes nothing
            f = c
            for col in word:
                f = col[f]
                if f == UNDEF:
                    break
            if f == c:
                continue
            if not self.scan(c, word, fill):
                return False
            if rep[c] != c:
                break
        return True

    def lookahead(self, relators):
        rep = self.rep
        for c in range(len(rep)):
            if rep[c] == c:
                self.scan_relators(c, relators, False)

    def compact(self, position):
        """Drop dead rows and renumber in definition order, in place so
        that the word tuples keep their columns.  Returns the new scan
        position for a loop that had processed all cosets below it."""
        rep = self.rep
        # parents precede rows: one pass suffices; renum[UNDEF] is UNDEF
        renum = [UNDEF] * (len(rep) + 1)
        live = []
        for c, r in enumerate(rep):
            if r == c:
                renum[c] = len(live)
                live.append(c)
            else:
                renum[c] = renum[r]
        for col in self.cols:
            col[:] = [renum[col[c]] for c in live]
        rep[:] = range(len(live))
        return bisect_left(live, position)


def enumerate_cosets(ngens, relators, subgens, max_cosets):
    """Run HLT over the given relators and subgroup generator words.

    Returns a flat row-major table (live cosets only, renumbered in
    first-definition order) or None when max_cosets live cosets are
    exceeded.
    """
    st = _State(ngens, max_cosets)
    cols = st.cols
    rep = st.rep
    relators = [tuple(cols[x] for x in word) for word in relators]
    for word in subgens:
        if not st.scan(0, tuple(cols[x] for x in word), True):
            return None

    def process(c):
        """Fill every relator trace and row entry of live coset c."""
        if not st.scan_relators(c, relators, True):
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
            st.lookahead(relators)
            c = st.compact(c)
            next_la = len(rep) + max(st.nlive, LOOKAHEAD_SLACK)
            continue
        if rep[c] != c:
            c += 1
            continue
        if not process(c):
            # out of room: a lookahead may free cosets, retry once
            st.lookahead(relators)
            c = st.compact(c)
            next_la = len(rep) + max(st.nlive, LOOKAHEAD_SLACK)
            # every row is live after compact(); c is past the last one
            # when the lookahead merged away c and all cosets after it
            if c < len(rep) and not process(c):
                return None
        c += 1

    st.compact(0)
    return list(chain.from_iterable(zip(*cols)))
