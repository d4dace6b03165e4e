/* Compiled HLT coset enumeration kernel with lookahead.
 *
 * Makes the same sequence of definitions, deductions, merges, lookaheads
 * and compactions as _tcpure.py, so the two return byte-identical tables;
 * the kernel-agreement tests in tests/test_toddcox.py check this.
 * The finished table is handed over as one bytearray of native int32,
 * row-major: a single copy of st.table, with no Python int per entry.
 * It skips the same relator scans, those that cannot change the table:
 * (1) once relator w traces closed from coset c, every rotation of w,
 * read forwards or backwards (the generators are involutions), traces
 * closed from each coset c.w[:k]; those (coset, relator) pairs get a
 * mark bit and are not scanned again; (2) the lookahead starts at the
 * HLT scan pointer, since every relator traces closed from each live
 * coset below it.  Both skips are no-ops because a closed trace stays
 * closed: deductions only fill undefined entries, coincidence processing
 * leaves every live row's entries defined and pointing at live rows,
 * dead rows are never scanned, and compact() keeps the marks with the
 * rows.
 * Coset ids are C ints (toddcox.MAX_COSETS_BOUND), counters are longs.
 * When an allocation fails, grow() and compact() set st->nomem and
 * return as though the coset limit were hit; enumerate_cosets then
 * raises MemoryError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define UNDEF (-1)
/* the table is handed over as int32; toddcox reads it so */
_Static_assert(sizeof(int) == 4, "coset ids must be 32-bit ints");
/* lookahead once the table holds this many more rows than live cosets */
#define LOOKAHEAD_SLACK (1L << 16)

/* table entry of coset c under generator x; needs a local ngens */
#define T(c, x) (st->table[(long)(c) * ngens + (x)])

typedef struct {
    int ngens;
    int nomem;
    long max_cosets;
    int *table;    /* nrows rows of ngens coset ids; cap rows allocated */
    int *rep;      /* union-find parent of each row */
    int *pending;  /* stack of merged-away rows, each pushed once */
    /* mwidth bytes a row; bit v is set once relator v closes there */
    unsigned char *marks;
    long nrows, cap, nlive, npending, mwidth;
} State;

#define MARKED(c, v) \
    (st->marks[(long)(c) * st->mwidth + ((v) >> 3)] & (1 << ((v) & 7)))
#define MARK(c, v) \
    (st->marks[(long)(c) * st->mwidth + ((v) >> 3)] |= 1 << ((v) & 7))

typedef struct {  /* word r is letters[start[r] .. start[r + 1]) */
    Py_ssize_t count, *start;
    int *letters;
} Words;

#define WORD(w, r) \
    (w)->letters + (w)->start[r], (int)((w)->start[(r) + 1] - (w)->start[r])
#define WLEN(w, r) ((w)->start[(r) + 1] - (w)->start[r])

/* What a closed trace of relator w = r from c marks: for each e in
 * [first[r], first[r + 1]), the relators us[ustart[e] .. ustart[e + 1])
 * at c.w[:pos[e]], with pos increasing in e. */
typedef struct {
    Py_ssize_t *first, *pos, *ustart;
    Py_ssize_t *us;
} Cycles;

static long find(State *st, long c)
{
    long root = c, tmp;
    while (st->rep[root] != root)
        root = st->rep[root];
    while (st->rep[c] != root) {
        tmp = st->rep[c];
        st->rep[c] = (int)root;
        c = tmp;
    }
    return root;
}

/* Double the row capacity; 0 (with st->nomem set) when that fails. */
static int grow(State *st)
{
    long cap = st->cap * 2;
    int *p;
    unsigned char *m;
    if (cap > INT_MAX)  /* coset ids must stay ints */
        goto fail;
    if ((p = realloc(st->table, cap * st->ngens * sizeof(int))) == NULL)
        goto fail;
    st->table = p;
    if ((p = realloc(st->rep, cap * sizeof(int))) == NULL)
        goto fail;
    st->rep = p;
    if ((p = realloc(st->pending, cap * sizeof(int))) == NULL)
        goto fail;
    st->pending = p;
    if ((m = realloc(st->marks, cap * st->mwidth)) == NULL)
        goto fail;
    st->marks = m;
    st->cap = cap;
    return 1;
fail:
    st->nomem = 1;
    return 0;
}

static long define(State *st, long c, int x)
{
    int ngens = st->ngens, k;
    long n;
    if (st->nlive >= st->max_cosets)
        return UNDEF;
    if (st->nrows >= st->cap && !grow(st))
        return UNDEF;
    n = st->nrows++;
    for (k = 0; k < ngens; k++)
        T(n, k) = UNDEF;
    memset(st->marks + n * st->mwidth, 0, st->mwidth);
    st->rep[n] = (int)n;
    st->nlive++;
    T(c, x) = (int)n;
    T(n, x) = (int)c;
    return n;
}

static void merge(State *st, long a, long b)
{
    long tmp;
    a = find(st, a);
    b = find(st, b);
    if (a != b) {
        if (b < a) {
            tmp = a;
            a = b;
            b = tmp;
        }
        st->rep[b] = (int)a;
        st->nlive--;
        /* b was a live row below nrows <= cap, so pending has room */
        st->pending[st->npending++] = (int)b;
    }
}

static void coincidence(State *st, long a, long b)
{
    int ngens = st->ngens, x;
    long gamma, delta, mu, nu;
    merge(st, a, b);
    while (st->npending > 0) {
        gamma = st->pending[--st->npending];
        for (x = 0; x < ngens; x++) {
            delta = T(gamma, x);
            if (delta == UNDEF)
                continue;
            T(delta, x) = UNDEF;
            mu = find(st, gamma);
            nu = find(st, delta);
            if (T(mu, x) != UNDEF)
                merge(st, nu, T(mu, x));
            else if (T(nu, x) != UNDEF)
                merge(st, mu, T(nu, x));
            else {
                T(mu, x) = (int)nu;
                T(nu, x) = (int)mu;
            }
        }
    }
}

/* Scan word from coset c; fill gaps when fill is set.
 * Returns 1 when the trace from c closes (or c died), 0 when a gap is
 * left: without fill, one of two letters or more; with fill, only when
 * a needed definition hits max_cosets. */
static int scan(State *st, long c, const int *word, int wlen, int fill)
{
    int ngens = st->ngens, i = 0, j = wlen - 1, x;
    long f = c, b = c;
    for (;;) {
        while (i <= j && T(f, word[i]) != UNDEF)
            f = T(f, word[i++]);
        if (i > j) {
            if (f != b)
                coincidence(st, f, b);
            return 1;
        }
        while (j >= i && T(b, word[j]) != UNDEF)
            b = T(b, word[j--]);
        if (j < i) {
            coincidence(st, f, b);
            return 1;
        }
        if (i == j) {
            /* deduction closes the gap */
            x = word[i];
            if (T(f, x) != UNDEF)
                coincidence(st, T(f, x), b);
            else if (T(b, x) != UNDEF)
                coincidence(st, T(b, x), f);
            else {
                T(f, x) = (int)b;
                T(b, x) = (int)f;
            }
            return 1;
        }
        if (!fill)
            return 0;
        if (define(st, f, word[i]) == UNDEF)
            return 0;
    }
}

/* Relator r traces closed from c: mark every rotation along its cycle. */
static void mark_cycle(State *st, long c, const Words *rels,
                       const Cycles *cy, Py_ssize_t r)
{
    int ngens = st->ngens;
    const int *word = rels->letters + rels->start[r];
    Py_ssize_t e, u, k = 0;
    for (e = cy->first[r]; e < cy->first[r + 1]; e++) {
        for (; k < cy->pos[e]; k++)
            c = T(c, word[k]);
        for (u = cy->ustart[e]; u < cy->ustart[e + 1]; u++)
            MARK(c, cy->us[u]);
    }
}

/* Scan each relator not marked at live coset c until c dies, and mark
 * the cycle of each trace that closes; 0 when a definition hits
 * max_cosets. */
static int scan_relators(State *st, long c, const Words *rels,
                         const Cycles *cy, int fill)
{
    Py_ssize_t r;
    for (r = 0; r < rels->count; r++) {
        if (MARKED(c, r))
            continue;
        if (!scan(st, c, WORD(rels, r), fill)) {
            if (fill)
                return 0;
            continue;
        }
        if (st->rep[c] != c)
            break;
        mark_cycle(st, c, rels, cy, r);
    }
    return 1;
}

/* Scan without defining from each live coset from start on. */
static void lookahead(State *st, const Words *rels, const Cycles *cy,
                      long start)
{
    long c;
    for (c = start; c < st->nrows; c++)
        if (st->rep[c] == c)
            scan_relators(st, c, rels, cy, 0);
}

/* Drop dead rows, renumber in definition order.
 * Returns the new scan position for a loop that had processed all
 * cosets below position. */
static long compact(State *st, long position)
{
    int ngens = st->ngens, x, v;
    long n = 0, c, new_position = 0;
    int *new_table;
    unsigned char *new_marks;
    long *renum = malloc(st->nrows * sizeof(long));
    if (renum == NULL) {
        st->nomem = 1;
        return position;
    }
    for (c = 0; c < st->nrows; c++)
        renum[c] = st->rep[c] == c ? n++ : UNDEF;
    /* coset 0 is never merged away, so n >= 1 */
    new_table = malloc(n * ngens * sizeof(int));
    new_marks = malloc(n * st->mwidth);
    if (new_table == NULL || new_marks == NULL) {
        free(new_table);
        free(new_marks);
        free(renum);
        st->nomem = 1;
        return position;
    }
    for (c = 0; c < st->nrows; c++) {
        if (renum[c] == UNDEF)
            continue;
        memcpy(new_marks + renum[c] * st->mwidth, st->marks + c * st->mwidth,
               st->mwidth);
        for (x = 0; x < ngens; x++) {
            v = T(c, x);
            new_table[renum[c] * ngens + x] =
                v == UNDEF ? UNDEF : (int)renum[find(st, v)];
        }
    }
    for (c = 0; c < position && c < st->nrows; c++)
        if (renum[c] != UNDEF)
            new_position++;
    free(renum);
    free(st->table);
    st->table = new_table;
    free(st->marks);
    st->marks = new_marks;
    st->cap = n;
    st->nrows = n;
    for (c = 0; c < n; c++)
        st->rep[c] = (int)c;
    return new_position;
}

/* Fill every relator trace and row entry of live coset c. */
static int process(State *st, long c, const Words *rels, const Cycles *cy)
{
    int ngens = st->ngens, x;
    if (!scan_relators(st, c, rels, cy, 1))
        return 0;
    for (x = 0; x < ngens; x++) {
        if (st->rep[c] != c)
            return 1;
        if (T(c, x) == UNDEF && define(st, c, x) == UNDEF)
            return 0;
    }
    return 1;
}

/* Lookahead from position, compact and set the next lookahead
 * threshold; returns the new scan position. */
static long relax(State *st, const Words *rels, const Cycles *cy,
                  long position, long *next_la)
{
    lookahead(st, rels, cy, position);
    position = compact(st, position);
    *next_la = st->nrows
        + (st->nlive > LOOKAHEAD_SLACK ? st->nlive : LOOKAHEAD_SLACK);
    return position;
}

/* Copy a sequence of words of generator indices into w. */
static int pack_words(PyObject *seq, int ngens, Words *w)
{
    PyObject *fast, *word;
    Py_ssize_t r, i, len, total = 0;
    int *letters;
    long x;
    if ((fast = PySequence_Fast(seq, "words must be a sequence")) == NULL)
        return -1;
    w->count = PySequence_Fast_GET_SIZE(fast);
    if ((w->start = PyMem_Malloc((w->count + 1) * sizeof(Py_ssize_t))) == NULL)
        goto nomem;
    w->start[0] = 0;
    for (r = 0; r < w->count; r++) {
        word = PySequence_Fast(PySequence_Fast_GET_ITEM(fast, r),
                               "a word must be a sequence");
        if (word == NULL)
            goto fail;
        len = PySequence_Fast_GET_SIZE(word);
        letters = PyMem_Realloc(w->letters, (total + len + 1) * sizeof(int));
        if (letters == NULL) {
            Py_DECREF(word);
            goto nomem;
        }
        w->letters = letters;
        for (i = 0; i < len; i++) {
            x = PyLong_AsLong(PySequence_Fast_GET_ITEM(word, i));
            if (x < 0 || x >= ngens) {  /* -1 also when not an int */
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError,
                                 "generator index %ld out of range", x);
                Py_DECREF(word);
                goto fail;
            }
            w->letters[total++] = (int)x;
        }
        Py_DECREF(word);
        w->start[r + 1] = total;
    }
    Py_DECREF(fast);
    return 0;
nomem:
    PyErr_NoMemory();
fail:
    Py_DECREF(fast);
    return -1;
}

/* Compare word r read cyclically from position k, forwards (dir 1) or
 * backwards from k - 1 (dir -1), with word v: by length, then letters. */
static int cmp_reading(const Words *w, Py_ssize_t r, Py_ssize_t k, int dir,
                       Py_ssize_t v)
{
    Py_ssize_t len = WLEN(w, r), i, p;
    int a, b;
    if (len != WLEN(w, v))
        return len < WLEN(w, v) ? -1 : 1;
    for (i = 0; i < len; i++) {
        p = dir > 0 ? (k + i) % len : ((k - 1 - i) % len + len) % len;
        a = w->letters[w->start[r] + p];
        b = w->letters[w->start[v] + i];
        if (a != b)
            return a < b ? -1 : 1;
    }
    return 0;
}

static const Words *sorted_words;  /* what cmp_words compares */

static int cmp_words(const void *a, const void *b)
{
    return cmp_reading(sorted_words, *(const Py_ssize_t *)a, 0, 1,
                       *(const Py_ssize_t *)b);
}

/* Fill cy from w: the relators equal to w[k:] + w[:k] or to
 * reversed(w[:k]) + reversed(w[k:]) for each relator w and k < len(w),
 * found by binary search among the relators sorted by cmp_words. */
static int build_cycles(const Words *w, Cycles *cy)
{
    Py_ssize_t n = w->count, *order, r, k, lo, hi, mid, first, ne = 0,
               nu = 0, ucap = 16, *p;
    int dir;
    order = PyMem_Malloc((n + 1) * sizeof(Py_ssize_t));
    cy->first = PyMem_Malloc((n + 1) * sizeof(Py_ssize_t));
    /* at most one entry per letter */
    cy->pos = PyMem_Malloc((w->start[n] + 1) * sizeof(Py_ssize_t));
    cy->ustart = PyMem_Malloc((w->start[n] + 1) * sizeof(Py_ssize_t));
    cy->us = PyMem_Malloc(ucap * sizeof(Py_ssize_t));
    if (order == NULL || cy->first == NULL || cy->pos == NULL
            || cy->ustart == NULL || cy->us == NULL)
        goto nomem;
    for (r = 0; r < n; r++)
        order[r] = r;
    sorted_words = w;
    qsort(order, n, sizeof(Py_ssize_t), cmp_words);
    cy->ustart[0] = 0;
    for (r = 0; r < n; r++) {
        cy->first[r] = ne;
        for (k = 0; k < WLEN(w, r); k++) {
            first = -1;
            for (dir = 1; dir >= -1; dir -= 2) {
                lo = 0;
                hi = n;
                while (lo < hi) {
                    mid = (lo + hi) / 2;
                    if (cmp_reading(w, r, k, dir, order[mid]) > 0)
                        lo = mid + 1;
                    else
                        hi = mid;
                }
                /* the backward reading has no match or is the forward
                 * one's word, already listed */
                if (lo == first)
                    break;
                for (hi = lo; hi < n
                         && cmp_reading(w, r, k, dir, order[hi]) == 0; hi++) {
                    if (nu == ucap) {
                        ucap *= 2;
                        p = PyMem_Realloc(cy->us, ucap * sizeof(Py_ssize_t));
                        if (p == NULL)
                            goto nomem;
                        cy->us = p;
                    }
                    cy->us[nu++] = order[hi];
                }
                if (hi > lo)
                    first = lo;
            }
            if (nu > cy->ustart[ne]) {
                cy->pos[ne++] = k;
                cy->ustart[ne] = nu;
            }
        }
    }
    cy->first[n] = ne;
    PyMem_Free(order);
    return 0;
nomem:
    PyMem_Free(order);
    PyErr_NoMemory();
    return -1;
}

static PyObject *enumerate_cosets(PyObject *self, PyObject *args)
{
    int ngens, ok = 1;
    long max_cosets, c, next_la;
    Py_ssize_t r;
    PyObject *relators, *subgens, *out = NULL;
    State st = {.cap = 1024, .nrows = 1, .nlive = 1};
    Words rels = {0}, subs = {0};
    Cycles cy = {0};

    if (!PyArg_ParseTuple(args, "iOOl", &ngens, &relators, &subgens,
                          &max_cosets))
        return NULL;
    if (ngens < 1 || max_cosets < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "ngens and max_cosets must be positive");
        return NULL;
    }
    if (pack_words(relators, ngens, &rels) < 0
            || pack_words(subgens, ngens, &subs) < 0
            || build_cycles(&rels, &cy) < 0)
        goto done;
    st.ngens = ngens;
    st.max_cosets = max_cosets;
    st.mwidth = rels.count / 8 + 1;
    st.table = malloc(st.cap * ngens * sizeof(int));
    st.rep = malloc(st.cap * sizeof(int));
    st.pending = malloc(st.cap * sizeof(int));
    st.marks = malloc(st.cap * st.mwidth);
    if (st.table == NULL || st.rep == NULL || st.pending == NULL
            || st.marks == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (r = 0; r < ngens; r++)
        st.table[r] = UNDEF;
    memset(st.marks, 0, st.mwidth);
    st.rep[0] = 0;

    for (r = 0; ok && r < subs.count; r++)
        ok = scan(&st, 0, WORD(&subs, r), 1);

    next_la = LOOKAHEAD_SLACK;
    c = 0;
    while (ok && !st.nomem && c < st.nrows) {
        if (st.nrows >= next_la) {
            c = relax(&st, &rels, &cy, c, &next_la);
            continue;
        }
        if (st.rep[c] != c) {
            c++;
            continue;
        }
        if (!process(&st, c, &rels, &cy)) {
            /* out of room: a lookahead may free cosets, retry once */
            c = relax(&st, &rels, &cy, c, &next_la);
            /* every row is live after compact(); c is past the last one
             * when the lookahead merged away c and all cosets after it */
            if (c < st.nrows && !process(&st, c, &rels, &cy))
                ok = 0;
        }
        c++;
    }

    if (ok && !st.nomem)
        compact(&st, 0);
    if (st.nomem)
        PyErr_NoMemory();
    else if (!ok)  /* max_cosets exceeded */
        out = Py_NewRef(Py_None);
    else
        out = PyByteArray_FromStringAndSize(
            (const char *)st.table,
            (Py_ssize_t)(st.nrows * ngens * sizeof(int)));
done:
    PyMem_Free(rels.start);
    PyMem_Free(rels.letters);
    PyMem_Free(subs.start);
    PyMem_Free(subs.letters);
    PyMem_Free(cy.first);
    PyMem_Free(cy.pos);
    PyMem_Free(cy.ustart);
    PyMem_Free(cy.us);
    free(st.table);
    free(st.rep);
    free(st.pending);
    free(st.marks);
    return out;
}

static PyMethodDef methods[] = {
    {"enumerate_cosets", enumerate_cosets, METH_VARARGS,
     "enumerate_cosets(ngens, relators, subgens, max_cosets)\n\n"
     "Run HLT over the given relators and subgroup generator words.\n"
     "Returns the table as a bytearray of native int32, row-major (live\n"
     "cosets only, renumbered in first-definition order), or None when\n"
     "max_cosets live cosets are exceeded."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_tccore",
    "Compiled HLT coset enumeration kernel with lookahead.", -1, methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__tccore(void)
{
    return PyModule_Create(&module);
}
