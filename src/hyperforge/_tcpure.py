"""Pure-Python HLT coset enumeration kernel with lookahead.

All generators are involutions, so a generator is its own inverse and
the coset table doubles as its own inverse table.  Coincidences are
resolved in place with a union-find over coset indices.  When the
table grows well past the live coset count, a lookahead pass scans
every relator from every live coset without defining anything, then
the table is compacted in first-definition order; the surviving
numbering is therefore deterministic.

The compiled kernel, the hand-written C extension _tccore.c, mirrors
this file statement for statement; keep the two in sync.
"""

UNDEF = -1

# lookahead once the table holds this many more rows than live cosets
LOOKAHEAD_SLACK = 1 << 16


class _State:

    def __init__(self, ngens, max_cosets):
        self.ngens = ngens
        self.max_cosets = max_cosets
        self.table = [UNDEF] * ngens
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

    def define(self, c, x):
        if self.nlive >= self.max_cosets:
            return UNDEF
        n = len(self.rep)
        self.table.extend([UNDEF] * self.ngens)
        self.rep.append(n)
        self.nlive += 1
        self.table[c * self.ngens + x] = n
        self.table[n * self.ngens + x] = c
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
        table = self.table
        ngens = self.ngens
        self.merge(a, b)
        while self.pending:
            gamma = self.pending.pop()
            base = gamma * ngens
            for x in range(ngens):
                delta = table[base + x]
                if delta == UNDEF:
                    continue
                table[delta * ngens + x] = UNDEF
                mu = self.find(gamma)
                nu = self.find(delta)
                if table[mu * ngens + x] != UNDEF:
                    self.merge(nu, table[mu * ngens + x])
                elif table[nu * ngens + x] != UNDEF:
                    self.merge(mu, table[nu * ngens + x])
                else:
                    table[mu * ngens + x] = nu
                    table[nu * ngens + x] = mu

    def scan(self, c, word, fill):
        """Scan word from coset c; fill gaps when fill is set.

        Returns False only when a needed definition hits max_cosets.
        """
        table = self.table
        ngens = self.ngens
        f = c
        i = 0
        b = c
        j = len(word) - 1
        while True:
            while i <= j and table[f * ngens + word[i]] != UNDEF:
                f = table[f * ngens + word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return True
            while j >= i and table[b * ngens + word[j]] != UNDEF:
                b = table[b * ngens + word[j]]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return True
            if i == j:
                # deduction closes the gap
                x = word[i]
                if table[f * ngens + x] != UNDEF:
                    self.coincidence(table[f * ngens + x], b)
                elif table[b * ngens + x] != UNDEF:
                    self.coincidence(table[b * ngens + x], f)
                else:
                    table[f * ngens + x] = b
                    table[b * ngens + x] = f
                return True
            if not fill:
                return True
            if self.define(f, word[i]) == UNDEF:
                return False

    def lookahead(self, relators):
        for c in range(len(self.rep)):
            if self.rep[c] != c:
                continue
            for word in relators:
                self.scan(c, word, False)
                if self.rep[c] != c:
                    break

    def compact(self, position):
        """Drop dead rows, renumber in definition order.

        Returns the new scan position for a loop that had processed
        all cosets below position.
        """
        ngens = self.ngens
        renum = [UNDEF] * len(self.rep)
        n = 0
        for c in range(len(self.rep)):
            if self.rep[c] == c:
                renum[c] = n
                n += 1
        new_table = [UNDEF] * (n * ngens)
        for c in range(len(self.rep)):
            if self.rep[c] != c:
                continue
            for x in range(ngens):
                v = self.table[c * ngens + x]
                if v != UNDEF:
                    new_table[renum[c] * ngens + x] = renum[self.find(v)]
        self.table = new_table
        self.rep = list(range(n))
        new_position = 0
        for c in range(min(position, len(renum))):
            if renum[c] != UNDEF:
                new_position += 1
        return new_position


def enumerate_cosets(ngens, relators, subgens, max_cosets):
    """Run HLT over the given relators and subgroup generator words.

    Returns a flat row-major table (live cosets only, renumbered in
    first-definition order) or None when max_cosets live cosets are
    exceeded.
    """
    st = _State(ngens, max_cosets)
    for word in subgens:
        if not st.scan(0, word, True):
            return None

    def process(c):
        """Fill every relator trace and row entry of live coset c."""
        for word in relators:
            if not st.scan(c, word, True):
                return False
            if st.rep[c] != c:
                return True
        for x in range(ngens):
            if st.rep[c] != c:
                return True
            if st.table[c * ngens + x] == UNDEF:
                if st.define(c, x) == UNDEF:
                    return False
        return True

    next_la = LOOKAHEAD_SLACK
    c = 0
    while c < len(st.rep):
        if len(st.rep) >= next_la:
            st.lookahead(relators)
            c = st.compact(c)
            next_la = len(st.rep) + max(st.nlive, LOOKAHEAD_SLACK)
            continue
        if st.rep[c] != c:
            c += 1
            continue
        if not process(c):
            # out of room: a lookahead may free cosets, retry once
            st.lookahead(relators)
            c = st.compact(c)
            next_la = len(st.rep) + max(st.nlive, LOOKAHEAD_SLACK)
            # every row is live after compact(); c is past the last one
            # when the lookahead merged away c and all cosets after it
            if c < len(st.rep) and not process(c):
                return None
        c += 1

    st.compact(0)
    return st.table
