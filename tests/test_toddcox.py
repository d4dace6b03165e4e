import hashlib
import logging
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperforge import _tcpure, errors
from hyperforge.presentations import GroupPresentation, coxeter_presentation
from hyperforge.toddcox import (
    todd_coxeter, perm_image, default_max_cosets, DEFAULT_MAX_COSETS,
)
from hyperforge.toroids import (
    ToroidParams, cubic_toroid_presentation, double_halved_presentation,
    halved_presentation,
)

# _tcpure.py as it was before the kernels skipped relator scans, kept
# unchanged as the oracle for the numbering
import hlt_reference

A3 = coxeter_presentation(((1, 3, 2), (3, 1, 3), (2, 3, 1)))
B3 = coxeter_presentation(((1, 4, 2), (4, 1, 3), (2, 3, 1)))


def test_symmetric_group_order():
    t = todd_coxeter(A3)
    assert t.ncosets == 24


def test_cube_group_order():
    assert todd_coxeter(B3).ncosets == 48


def test_subgroup_cosets():
    # cosets of the vertex stabilizer <r1, r2> in S4: the 4 vertices
    t = todd_coxeter(A3, subgens=[(1,), (2,)])
    assert t.ncosets == 4
    # coset 0 is fixed by the subgroup generators
    assert int(t.table[0, 1]) == 0
    assert int(t.table[0, 2]) == 0


def test_perm_image_regular_only_for_trivial_subgroup():
    pg = perm_image(todd_coxeter(A3))
    assert pg.regular and pg.order() == 24
    pq = perm_image(todd_coxeter(A3, subgens=[(1,), (2,)]))
    assert not pq.regular


def test_generators_are_involutions():
    t = todd_coxeter(B3)
    for x in range(t.ngens):
        col = t.table[:, x]
        assert np.array_equal(col[col], np.arange(t.ncosets))


def test_overflow():
    with pytest.raises(errors.Overflow):
        todd_coxeter(B3, max_cosets=10)
    with pytest.raises(errors.InvalidParams):
        todd_coxeter(B3, max_cosets=0)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_max_cosets_bounded_by_int32(backend, request):
    if backend == "compiled":
        request.getfixturevalue("compiled_kernel")
    with pytest.raises(errors.InvalidParams, match="2147483647"):
        todd_coxeter(A3, max_cosets=2 ** 31, backend=backend)


def test_invalid_subgroup_word():
    with pytest.raises(errors.InvalidParams):
        todd_coxeter(A3, subgens=[(7,)])


def test_unknown_backend():
    with pytest.raises(errors.InvalidParams):
        todd_coxeter(A3, backend="fancy")


def test_default_max_cosets_env(monkeypatch):
    monkeypatch.delenv("HYPERFORGE_MAX_COSETS", raising=False)
    assert default_max_cosets() == DEFAULT_MAX_COSETS
    monkeypatch.setenv("HYPERFORGE_MAX_COSETS", "1234")
    assert default_max_cosets() == 1234


def test_csv_shape():
    t = todd_coxeter(A3, subgens=[(1,), (2,)])
    lines = t.to_csv().strip().split("\n")
    assert lines[0] == "0,1,2"
    assert len(lines) == 1 + t.ncosets


@pytest.mark.parametrize("pres", [
    A3,
    B3,
    cubic_toroid_presentation(ToroidParams(3, 2, 2)),
    cubic_toroid_presentation(ToroidParams(3, 1, 3)),
    # 65,544 rows: runs the periodic lookahead and compaction
    cubic_toroid_presentation(ToroidParams(4, 1, 3)),
    # closure relators: most definitions end in a coincidence
    halved_presentation(ToroidParams(3, 1, 3)),
    double_halved_presentation(ToroidParams(3, 1, 3)),
    # 85,685 rows: lookaheads that merge cosets, with long closure words
    halved_presentation(ToroidParams(4, 1, 3)),
    # 15,552 cosets: the P-branch closure words rewritten into the
    # double halving
    double_halved_presentation(ToroidParams(4, 1, 3)),
])
def test_backends_agree(pres, compiled_kernel, monkeypatch):
    pure_out = _recorded(monkeypatch, _tcpure)
    compiled_out = _recorded(monkeypatch, compiled_kernel)
    tp = todd_coxeter(pres, backend="pure")
    tc = todd_coxeter(pres, backend="compiled")
    assert np.array_equal(tp.table, tc.table)
    # the raw returns: one bytearray each, byte for byte equal
    assert [type(b) for b in pure_out + compiled_out] == [bytearray] * 2
    assert pure_out == compiled_out


def _recorded(monkeypatch, kernel):
    """The raw returns of kernel.enumerate_cosets from now on, in a
    list that grows with each call."""
    outs = []
    run = kernel.enumerate_cosets

    def recording(*args):
        outs.append(run(*args))
        return outs[-1]
    monkeypatch.setattr(kernel, "enumerate_cosets", recording)
    return outs


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_table_is_an_int32_view_of_the_kernel_buffer(backend, request,
                                                     monkeypatch):
    kernel = _tcpure
    if backend == "compiled":
        kernel = request.getfixturevalue("compiled_kernel")
    outs = _recorded(monkeypatch, kernel)
    t = todd_coxeter(B3, backend=backend)
    (buf,) = outs
    assert type(buf) is bytearray
    assert t.table.dtype == np.int32 and t.table.shape == (48, 3)
    assert np.shares_memory(t.table, np.frombuffer(buf, np.uint8))
    # perm_image copies the columns out to int64
    pg = perm_image(t)
    assert [g.dtype for g in pg.gens] == [np.int64] * 3
    assert not any(np.shares_memory(g, t.table) for g in pg.gens)


def test_handover_holds_no_python_int_list(monkeypatch):
    # traced from the pure kernel's return to the end of perm_image on
    # the (4,1,3) toroid group (31,104 cosets, 4 generators): 1.79 MB
    # with the int32 buffer (0.5 MB, the int64 generators, the verify
    # temporaries); 3.24 MB when the kernel returned a list of Python
    # ints and todd_coxeter copied it to int64
    run = _tcpure.enumerate_cosets

    def resetting(*args):
        out = run(*args)
        tracemalloc.reset_peak()
        return out
    monkeypatch.setattr(_tcpure, "enumerate_cosets", resetting)
    pres = cubic_toroid_presentation(ToroidParams(4, 1, 3))
    tracemalloc.start()
    try:
        pg = perm_image(todd_coxeter(pres, backend="pure"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pg.degree == 31104
    assert peak < 2.5 * 2 ** 20


@pytest.mark.parametrize("pres, digest", [
    (cubic_toroid_presentation(ToroidParams(4, 1, 3)),
     "448dadbbe72f077cfcacac9aabf6e2421be911da439785d99cb5a839df1ed2d6"),
    (halved_presentation(ToroidParams(3, 1, 3)),
     "3f162d159c5d2520128fd3753226fd4d1864e2a156ca466334e824518d2b1933"),
    (double_halved_presentation(ToroidParams(3, 1, 3)),
     "2972eb0077883c0d4b237a0beefdcab6d620b62c45b9171c67c56c2d3d0baf46"),
    # both run periodic lookaheads and compactions
    (cubic_toroid_presentation(ToroidParams(4, 1, 4)),
     "5cdde5eb75b2a53efa8fa3ce3b584212fbced4d31c82764493f4b9484f093dba"),
    (double_halved_presentation(ToroidParams(4, 1, 3)),
     "214e77c47bdafc96ba3492e7a855120a8d0b7aa51e5a06270d3094b702d6ffaa"),
])
def test_pure_kernel_numbering_is_pinned(pres, digest):
    # guards the numbering where no C compiler can build the other kernel
    table = todd_coxeter(pres, backend="pure").table
    assert hashlib.sha256(table.astype("<i8").tobytes()).hexdigest() == digest


def test_enumeration_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="hyperforge")
    todd_coxeter(A3, backend="pure")
    with pytest.raises(errors.Overflow):
        todd_coxeter(B3, max_cosets=10, backend="pure")
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 2
    assert re.fullmatch(r"enumeration on the pure kernel: 3 generators, "
                        r"3 relators, 24 cosets, \d+\.\d{3} s", lines[0])
    assert lines[1].startswith("enumeration on the pure kernel: 3 generators,"
                               " 3 relators, >10 cosets, ")


def test_compiled_kernel_checks_its_arguments(compiled_kernel):
    # todd_coxeter validates first; the C kernel still refuses input
    # that would index outside its table
    with pytest.raises(ValueError):
        compiled_kernel.enumerate_cosets(0, [], [], 10)
    with pytest.raises(ValueError):
        compiled_kernel.enumerate_cosets(2, [(0, 2)], [], 10)
    with pytest.raises(ValueError):
        compiled_kernel.enumerate_cosets(2, [], [(-1,)], 10)
    with pytest.raises(TypeError):
        compiled_kernel.enumerate_cosets(2, [(0, 1.5)], [], 10)


def test_backends_agree_with_subgroup(compiled_kernel):
    sub = [(1,), (2,)]
    tp = todd_coxeter(A3, subgens=sub, backend="pure")
    tc = todd_coxeter(A3, subgens=sub, backend="compiled")
    assert np.array_equal(tp.table, tc.table)


def _irreducible_order(m, comp):
    """|W| of the Coxeter group on the connected diagram comp, or None
    when it is infinite (rank <= 4, entries <= 5)."""
    edges = sorted(m[i][j] for i in comp for j in comp
                   if i < j and m[i][j] > 2)
    n = len(comp)
    if len(edges) != n - 1:
        return None  # the diagram has a cycle
    if n <= 2:
        return 2 * edges[0] if edges else 2  # I2(m) or A1
    if edges[:-1] != [3] * (n - 2):
        return None
    top = edges[-1]
    if n == 3:
        return {3: 24, 4: 48, 5: 120}[top]  # A3, B3, H3
    inner = [i for i in comp
             if sum(m[i][j] > 2 for j in comp if j != i) >= 2]
    if len(inner) == 1:
        return 192 if top == 3 else None  # D4
    middle = m[inner[0]][inner[1]]
    if top == 3:
        return 120  # A4
    if top == 4:
        return 1152 if middle == 4 else 384  # F4, B4
    return None if middle == 5 else 14400  # H4


def coxeter_order(m):
    """|W| for a Coxeter matrix of rank <= 4 with entries 2..5, or None
    when W is infinite."""
    comps, seen = [], set()
    for start in range(len(m)):
        if start in seen:
            continue
        comp, todo = [], [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in range(len(m)):
                if j not in seen and m[i][j] > 2:
                    seen.add(j)
                    todo.append(j)
        comps.append(sorted(comp))
    order = 1
    for comp in comps:
        part = _irreducible_order(m, comp)
        if part is None:
            return None
        order *= part
    return order


@pytest.mark.parametrize("matrix, order", [
    (((1, 3), (3, 1)), 6),
    (((1, 2, 2), (2, 1, 2), (2, 2, 1)), 8),
    (((1, 3, 2), (3, 1, 3), (2, 3, 1)), 24),
    (((1, 4, 2), (4, 1, 3), (2, 3, 1)), 48),
    (((1, 5, 2), (5, 1, 3), (2, 3, 1)), 120),
    (((1, 3, 3), (3, 1, 3), (3, 3, 1)), None),
    (((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)), 192),
    (((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1)), 1152),
    (((1, 4, 2, 2), (4, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)), 384),
    (((1, 3, 2, 2), (3, 1, 5, 2), (2, 5, 1, 3), (2, 2, 3, 1)), None),
    (((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)), 14400),
])
def test_coxeter_order_oracle(matrix, order):
    assert coxeter_order(matrix) == order
    if order is not None:
        assert todd_coxeter(coxeter_presentation(matrix)).ncosets == order


# no coset limit above this for infinite groups, to keep the fuzz fast
INFINITE_LIMIT = 200


@st.composite
def enumerations(draw):
    """A Coxeter matrix of rank 2-4 with entries 2-5, an optional extra
    relator, optional subgroup words and a coset limit."""
    r = draw(st.integers(2, 4))
    m = [[1] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            m[i][j] = m[j][i] = draw(st.integers(2, 5))
    letters = st.integers(0, r - 1)
    extra = draw(st.lists(st.lists(letters, min_size=1, max_size=8),
                          max_size=1))
    subgens = draw(st.lists(st.lists(letters, min_size=1, max_size=4),
                            max_size=2))
    order = coxeter_order(m)
    limit = draw(st.integers(1, (order or INFINITE_LIMIT) + 8))
    return m, extra, subgens, order, limit


def _outcome(pres, subgens, limit, backend):
    try:
        return todd_coxeter(pres, subgens=subgens, max_cosets=limit,
                            backend=backend).table
    except errors.Overflow:
        return None


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(enumerations())
def test_kernels_agree_on_random_coxeter_quotients(compiled_kernel, case):
    m, extra, subgens, order, limit = case
    pres = coxeter_presentation(m, extra=extra)
    tp = _outcome(pres, subgens, limit, "pure")
    tc = _outcome(pres, subgens, limit, "compiled")
    assert (tp is None) == (tc is None)
    if tp is not None:
        assert np.array_equal(tp, tc)
    if order is not None:
        # a quotient of W by extra relators, and a subgroup of it, have
        # an index dividing |W|; with neither it is |W|
        n = todd_coxeter(pres, subgens=subgens, backend="compiled").ncosets
        assert order % n == 0
        if not extra and not subgens:
            assert n == order


def test_kernels_share_the_lookahead_schedule():
    # bit-identical tables need one schedule; read without a C compiler
    text = (pathlib.Path(_tcpure.__file__).with_name("_tccore.c")
            .read_text())
    shift = re.search(r"#define LOOKAHEAD_SLACK \(1L << (\d+)\)\n", text)
    assert shift is not None
    assert 1 << int(shift.group(1)) == _tcpure.LOOKAHEAD_SLACK


def _kernel_outcome(kernel, pres, subgens, limit):
    """The table as a flat list of ints, or None on overflow.  The
    kernels return an int32 buffer, decoded here; hlt_reference
    returns the list."""
    out = kernel.enumerate_cosets(pres.ngens, list(pres.relators),
                                  [list(w) for w in subgens], limit)
    if out is None or kernel is hlt_reference:
        return out
    return np.frombuffer(out, np.int32).tolist()


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(enumerations(), st.sampled_from([1, 2, 3, 8, 64]))
def test_pure_kernel_matches_reference_with_small_slack(monkeypatch, case,
                                                        slack):
    # small slacks run periodic lookaheads, compactions and the
    # overflow retry on small groups
    m, extra, subgens, _, limit = case
    monkeypatch.setattr(_tcpure, "LOOKAHEAD_SLACK", slack)
    monkeypatch.setattr(hlt_reference, "LOOKAHEAD_SLACK", slack)
    pres = coxeter_presentation(m, extra=extra)
    assert (_kernel_outcome(_tcpure, pres, subgens, limit)
            == _kernel_outcome(hlt_reference, pres, subgens, limit))


@pytest.mark.parametrize("pres", [
    halved_presentation(ToroidParams(4, 1, 3)),
    double_halved_presentation(ToroidParams(4, 1, 3)),
    cubic_toroid_presentation(ToroidParams(4, 1, 4)),
])
def test_pure_kernel_matches_reference(pres):
    limit = DEFAULT_MAX_COSETS
    assert (_kernel_outcome(_tcpure, pres, (), limit)
            == _kernel_outcome(hlt_reference, pres, (), limit))


@pytest.mark.parametrize("limit", [
    40000,  # one retry, after a periodic lookahead; completes
    31000,  # below the order, 31,104: retries that cannot help
])
def test_overflow_retry_agrees_at_scale(limit, compiled_kernel):
    # the (4,1,3) halved presentation peaks at 85,685 rows with the
    # default limit; these limits trip process() below that peak
    pres = halved_presentation(ToroidParams(4, 1, 3))
    ref = _kernel_outcome(hlt_reference, pres, (), limit)
    assert ref == _kernel_outcome(_tcpure, pres, (), limit)
    assert ref == _kernel_outcome(compiled_kernel, pres, (), limit)
    assert (ref is None) == (limit < 31104)
