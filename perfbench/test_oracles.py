"""Each oracle accepts the program's result and rejects a perturbed one.

    python3 -m pytest -q perfbench/test_oracles.py

Uses small cells, so it runs in well under a minute.
"""

import copy
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hyperforge import toroids  # noqa: E402


def test_closed_forms_match_the_papers_figures():
    assert oracles.group_order(3, 1, 3) == 48 * 27
    assert oracles.group_order(4, 1, 4) == 384 * 4 ** 4
    assert oracles.group_order(4, 4, 2) == 384 * 16 * 8
    assert oracles.type_counts(3, 2, 2) == (16, 48, 48, 16)
    assert oracles.type_counts(4, 1, 2) == (16, 64, 96, 64, 16)
    assert oracles.halving_index(1, 3) == 1
    assert oracles.halving_index(1, 4) == 2
    assert oracles.diagram_shape(oracles.linear_coxeter(3)) == \
        [[1, 1, 2, 2], [3, 4, 4]]
    assert oracles.diagram_shape(oracles.double_halved_coxeter(3)) == \
        [[2, 2, 2, 2], [3, 3, 3, 3]]


@pytest.fixture(scope="module")
def report():
    return toroids.verify_family(toroids.ToroidParams(3, 1, 3), depth=2)


REPORT_PERTURBATIONS = [
    ("ok",), ("stages", "toroid", "order"), ("stages", "toroid",
                                             "type_counts"),
    ("stages", "toroid", "bipartite_truncation"),
    ("stages", "toroid", "self_dual"),
    ("stages", "halved", "order"), ("stages", "halved", "b2_next_leaf"),
    ("stages", "halved", "coxeter_matrix_equal"),
    ("stages", "halved", "diagram_shape"),
    ("stages", "double_halved", "order"),
    ("stages", "double_halved", "order_presentation"),
    ("stages", "double_halved", "dual_of_first_halving"),
]


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (list, tuple)):
        return [_perturb(value[0])] + list(value[1:])
    raise TypeError(value)


def test_family_report_passes(report):
    assert oracles.check_family_report(3, 1, 3, report) == []


@pytest.mark.parametrize("path", REPORT_PERTURBATIONS,
                         ids=lambda p: ".".join(p))
def test_family_oracle_rejects_perturbed_report(report, path):
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _perturb(node[path[-1]])
    assert oracles.check_family_report(3, 1, 3, bad)


def _results(workload):
    """Run one round in chain order; (op, result, state) per op.  The
    known-fault commands raise; they are kept apart, with result None."""
    out = []
    for chain in workload.chains():
        state = {}
        for op in chain:
            try:
                result = op.run(state)
            except (KeyError, ValueError):
                assert op.fault is not None, op.label
                result = None
            out.append((op, result, state))
    return out


@pytest.fixture(scope="module")
def envelope_results(tmp_path_factory):
    w = workloads.Envelope(str(tmp_path_factory.mktemp("envelope")),
                           cells=[((3, 1, 3), True), ((3, 2, 2), False)])
    return _results(w)


def test_envelope_results_pass(envelope_results):
    for op, result, state in envelope_results:
        assert op.check(result, state)[0] == [], op.label


@pytest.mark.parametrize("key", ["order", "counts", "bipartite", "matrix",
                                 "order_subgroup", "order_presentation",
                                 "matrix_subgroup", "matrix_presentation",
                                 "geometry_map"])
def test_envelope_oracles_reject_perturbed_results(envelope_results, key):
    seen = 0
    for op, result, state in envelope_results:
        if key not in result:
            continue
        seen += 1
        bad = dict(result)
        if key in ("counts",):
            bad[key] = _perturb(list(result[key]))
        elif key.startswith("matrix"):
            bad[key] = [list(r) for r in result[key]]
            bad[key][0][1] += 1
        else:
            bad[key] = _perturb(result[key])
        assert op.check(bad, state)[0], (op.label, key)
    assert seen


@pytest.fixture(scope="module")
def cli_results(tmp_path_factory):
    w = workloads.Cli(str(tmp_path_factory.mktemp("cli")),
                      sessions=[((3, 1, 3), True), ((3, 2, 2), False)],
                      ft=[(3, 2, 2)])
    return w, _results(w)


def test_cli_results_pass_except_the_known_faults(cli_results):
    _, results = cli_results
    for op, result, state in results:
        if op.fault is None:
            assert op.check(result, state)[0] == [], op.label
            if op.final is not None:
                assert op.final() == [], op.label
        else:
            assert result is None, op.label


def _op(results, prefix):
    return [(op, r, s) for op, r, s in results if op.label.startswith(prefix)]


def _with_file(path, text, fn):
    with open(path) as fh:
        saved = fh.read()
    with open(path, "w") as fh:
        fh.write(text)
    try:
        return fn()
    finally:
        with open(path, "w") as fh:
            fh.write(saved)


def test_cli_oracles_reject_a_nonzero_exit(cli_results):
    _, results = cli_results
    for op, result, state in results:
        if op.fault is None:
            assert op.check((1, "check failed"), state)[0], op.label


def _rejects(op, result, state, text):
    """The op's check, run with its output file replaced by text."""
    return _with_file(op.output, text, lambda: op.check(result, state)[0])


def test_cli_oracle_rejects_wrong_type_counts(cli_results):
    _, results = cli_results
    for op, result, state in _op(results, "build toroid"):
        doc = json.loads(open(op.output).read())
        doc["elements"] = doc["elements"][:-1]
        assert _rejects(op, result, state, json.dumps(doc)), op.label


def test_cli_oracle_rejects_a_wrong_halving(cli_results):
    _, results = cli_results
    for op, result, state in _op(results, "halve"):
        toroid = open(os.path.join(os.path.dirname(op.output),
                                   "t.json")).read()
        assert op.check(result, state)[0] == [], op.label
        assert _with_file(op.kept, toroid, op.final), op.label


def test_cli_oracle_rejects_a_false_property(cli_results):
    _, results = cli_results
    for op, result, state in _op(results, "check"):
        if op.fault is not None:
            continue
        report = json.loads(open(op.output).read())
        report[sorted(report)[0]] = False
        assert _rejects(op, result, state, json.dumps(report)), op.label


def test_cli_oracle_rejects_a_changed_diagram(cli_results):
    _, results = cli_results
    (op, result, state), = _op(results, "diagram")
    text = open(op.output).read()
    assert 'label="4"' in text
    assert _rejects(op, result, state, text.replace('label="4"', 'label="5"'))


def test_cli_oracle_rejects_a_changed_reemit(cli_results):
    _, results = cli_results
    for op, result, state in _op(results, "build file"):
        text = open(op.output).read()
        assert _rejects(op, result, state, text + " "), op.label


def test_malformed_commands_pass_only_with_a_usage_error(cli_results):
    _, results = cli_results
    malformed = [(op, s) for op, r, s in results if op.fault is not None]
    assert len(malformed) == 4
    for op, state in malformed:
        assert op.check((2, "usage error: bad input\n"), state)[0] == []
        assert op.check((1, "error: bad input\n"), state)[0]


def test_outputs_do_not_depend_on_the_seed(tmp_path):
    digests = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        w = workloads.Cli(str(tmp_path / str(seed)),
                          sessions=[((3, 2, 2), True)], ft=[])
        phase = run._run_phase(w, None, random.Random(seed), 0.0, {})
        run._run_finals(phase)
        assert phase.failed == 4 and not phase.problems
        assert sorted(phase.faults) == sorted(
            op.label for op in w._malformed())
        digests.append(phase.digests)
    assert digests[0] == digests[1]


class _OneOp:
    """A workload of a single operation."""

    interleave = False

    def __init__(self, op):
        self.op = op

    def chains(self):
        return [[self.op]]


def _raising(exc):
    def run(state):
        raise exc
    return run


def _returning(value):
    return lambda state: value


@pytest.mark.parametrize("run_step", [
    _raising(TypeError("regression")),
    _raising(ValueError("not the named fault")),
    _returning((1, "error: bad input\n")),
], ids=["other-exception", "other-fault", "exit-1"])
def test_a_fault_command_failing_another_way_fails_the_run(run_step):
    op = workloads.Op("malformed", run_step, workloads._usage_error,
                      fault="KeyError")
    phase = run._run_phase(_OneOp(op), None, random.Random(0), 0.0, {})
    assert phase.failed == 1 and phase.problems and not phase.faults


def test_a_fault_command_failing_for_its_fault_is_known():
    op = workloads.Op("malformed", _raising(KeyError("elements")),
                      workloads._usage_error, fault="KeyError")
    phase = run._run_phase(_OneOp(op), None, random.Random(0), 0.0, {})
    assert phase.failed == 1 and not phase.problems
    assert phase.faults == {"malformed": "KeyError: 'elements'"}


def test_a_failed_final_check_fails_every_attempt():
    op = workloads.Op("halve", _returning("out"),
                      lambda result, state: ([], "digest"),
                      final=lambda: ["not isomorphic"])
    phase = run._run_phase(_OneOp(op), None, random.Random(0), 0.0, {})
    assert phase.failed == 0
    run._run_finals(phase)
    assert phase.failed == phase.attempted and phase.problems


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    layers = run._layer_metrics(spans.Tracer(), 0.0, 0.0, 1)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    assert [m["name"] for m in doc["end_to_end"]] == \
        ["setup_s", "wall_s", "peak_rss_mb"]
