/* Compiled HLT coset enumeration kernel with lookahead.
 *
 * Makes the same sequence of definitions, deductions, merges, lookaheads
 * and compactions as _tcpure.py, so the two return bit-identical tables;
 * the kernel-agreement tests in tests/test_toddcox.py check this.
 * Coset ids are C ints (toddcox.MAX_COSETS_BOUND), counters are longs.
 * When an allocation fails, grow() and compact() set st->nomem and
 * return as though the coset limit were hit; enumerate_cosets then
 * raises MemoryError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define UNDEF (-1)
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
    long nrows, cap, nlive, npending;
} State;

typedef struct {  /* word r is letters[start[r] .. start[r + 1]) */
    Py_ssize_t count, *start;
    int *letters;
} Words;

#define WORD(w, r) \
    (w)->letters + (w)->start[r], (int)((w)->start[(r) + 1] - (w)->start[r])

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
 * Returns 0 only when a needed definition hits max_cosets, else 1. */
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
            return 1;
        if (define(st, f, word[i]) == UNDEF)
            return 0;
    }
}

static void lookahead(State *st, const Words *rels)
{
    long c;
    Py_ssize_t r;
    for (c = 0; c < st->nrows; c++) {
        if (st->rep[c] != c)
            continue;
        for (r = 0; r < rels->count; r++) {
            scan(st, c, WORD(rels, r), 0);
            if (st->rep[c] != c)
                break;
        }
    }
}

/* Drop dead rows, renumber in definition order.
 * Returns the new scan position for a loop that had processed all
 * cosets below position. */
static long compact(State *st, long position)
{
    int ngens = st->ngens, x, v;
    long n = 0, c, new_position = 0;
    int *new_table;
    long *renum = malloc(st->nrows * sizeof(long));
    if (renum == NULL) {
        st->nomem = 1;
        return position;
    }
    for (c = 0; c < st->nrows; c++)
        renum[c] = st->rep[c] == c ? n++ : UNDEF;
    /* coset 0 is never merged away, so n >= 1 */
    if ((new_table = malloc(n * ngens * sizeof(int))) == NULL) {
        free(renum);
        st->nomem = 1;
        return position;
    }
    for (c = 0; c < st->nrows; c++) {
        if (renum[c] == UNDEF)
            continue;
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
    st->cap = n;
    st->nrows = n;
    for (c = 0; c < n; c++)
        st->rep[c] = (int)c;
    return new_position;
}

/* Fill every relator trace and row entry of live coset c. */
static int process(State *st, long c, const Words *rels)
{
    int ngens = st->ngens, x;
    Py_ssize_t r;
    for (r = 0; r < rels->count; r++) {
        if (!scan(st, c, WORD(rels, r), 1))
            return 0;
        if (st->rep[c] != c)
            return 1;
    }
    for (x = 0; x < ngens; x++) {
        if (st->rep[c] != c)
            return 1;
        if (T(c, x) == UNDEF && define(st, c, x) == UNDEF)
            return 0;
    }
    return 1;
}

/* Lookahead, compact and set the next lookahead threshold; returns the
 * new scan position. */
static long relax(State *st, const Words *rels, long position, long *next_la)
{
    lookahead(st, rels);
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

static PyObject *enumerate_cosets(PyObject *self, PyObject *args)
{
    int ngens, ok = 1;
    long max_cosets, c, next_la;
    Py_ssize_t r;
    PyObject *relators, *subgens, *out = NULL, *v;
    State st = {.cap = 1024, .nrows = 1, .nlive = 1};
    Words rels = {0}, subs = {0};

    if (!PyArg_ParseTuple(args, "iOOl", &ngens, &relators, &subgens,
                          &max_cosets))
        return NULL;
    if (ngens < 1 || max_cosets < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "ngens and max_cosets must be positive");
        return NULL;
    }
    if (pack_words(relators, ngens, &rels) < 0
            || pack_words(subgens, ngens, &subs) < 0)
        goto done;
    st.ngens = ngens;
    st.max_cosets = max_cosets;
    st.table = malloc(st.cap * ngens * sizeof(int));
    st.rep = malloc(st.cap * sizeof(int));
    st.pending = malloc(st.cap * sizeof(int));
    if (st.table == NULL || st.rep == NULL || st.pending == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (r = 0; r < ngens; r++)
        st.table[r] = UNDEF;
    st.rep[0] = 0;

    for (r = 0; ok && r < subs.count; r++)
        ok = scan(&st, 0, WORD(&subs, r), 1);

    next_la = LOOKAHEAD_SLACK;
    c = 0;
    while (ok && !st.nomem && c < st.nrows) {
        if (st.nrows >= next_la) {
            c = relax(&st, &rels, c, &next_la);
            continue;
        }
        if (st.rep[c] != c) {
            c++;
            continue;
        }
        if (!process(&st, c, &rels)) {
            /* out of room: a lookahead may free cosets, retry once */
            c = relax(&st, &rels, c, &next_la);
            /* every row is live after compact(); c is past the last one
             * when the lookahead merged away c and all cosets after it */
            if (c < st.nrows && !process(&st, c, &rels))
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
    else if ((out = PyList_New(st.nrows * ngens)) != NULL) {
        for (c = 0; c < st.nrows * ngens; c++) {
            if ((v = PyLong_FromLong(st.table[c])) == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, c, v);
        }
    }
done:
    PyMem_Free(rels.start);
    PyMem_Free(rels.letters);
    PyMem_Free(subs.start);
    PyMem_Free(subs.letters);
    free(st.table);
    free(st.rep);
    free(st.pending);
    return out;
}

static PyMethodDef methods[] = {
    {"enumerate_cosets", enumerate_cosets, METH_VARARGS,
     "enumerate_cosets(ngens, relators, subgens, max_cosets)\n\n"
     "Run HLT over the given relators and subgroup generator words.\n"
     "Returns a flat row-major table (live cosets only, renumbered in\n"
     "first-definition order) or None when max_cosets live cosets are\n"
     "exceeded."},
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
