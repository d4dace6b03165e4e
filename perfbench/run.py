"""Benchmark of the hyperforge verification pipeline.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Runs one workload (family, envelope or cli; see README.md) on the
package under src/, in this process and on one thread.  A run repeats
whole rounds of the workload's operations, in an order drawn from the
seed, until the next round would end after --seconds.  Every result is
checked against oracles that do not use the package.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics setup_s, wall_s and peak_rss_mb.  With --trace 1 the
run measures the same rounds untraced, then traced, and reports the
per-layer metrics instead.  Exit code 0 means every check ran; a
failed check shows as "correct": false.
"""

import argparse
import collections
import functools
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["family", "envelope", "cli"])
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the operations of each round")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="run length; at least one round always runs")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    """Import hyperforge from src/ of this checkout, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hyperforge", "__init__.py")):
        sys.exit("perfbench: no hyperforge sources under %s" % SRC)
    for key in SINGLE_THREAD:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hyperforge
    if os.path.dirname(os.path.dirname(hyperforge.__file__)) != SRC:
        sys.exit("perfbench: hyperforge imported from %s, not %s"
                 % (hyperforge.__file__, SRC))
    import workloads
    return workloads


def _setup_only(name):
    """One sample of setup_s: import plus the workload's input
    preparation, timed inside a fresh interpreter."""
    t0 = time.perf_counter()
    workloads = _import_package()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-%s-" % name, dir=WORK)
    try:
        workloads.WORKLOADS[name](workdir)
        print(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(name):
    env = dict(os.environ)
    env.update({key: "1" for key in SINGLE_THREAD})
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit("perfbench: set-up failed")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def _git_sha():
    """Commit of the checkout; git is not asked to look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _schedule(chains, rng, interleave):
    """Operations of one round: the chains in a seeded order, each
    chain's operations kept in sequence; with interleave, the chains'
    operations are merged in a seeded order as well."""
    chains = list(chains)
    rng.shuffle(chains)
    if not interleave:
        return [(c, op) for c, chain in enumerate(chains) for op in chain]
    picks = [c for c, chain in enumerate(chains) for _ in chain]
    rng.shuffle(picks)
    pos = [0] * len(chains)
    out = []
    for c in picks:
        out.append((c, chains[c][pos[c]]))
        pos[c] += 1
    return out


class Phase:
    """Rounds of one workload, with tracing off or on.

    digests is shared by the phases of a run, so that the traced rounds
    must give the untraced rounds' outputs.  finals maps a label to the
    checks left for after the rounds: {key: check}, one per distinct
    key, each returning a list of problems.
    """

    def __init__(self, digests):
        self.times = {}
        self.digests = digests
        self.attempted = 0
        self.failures = collections.Counter()
        self.problems = []
        self.faults = {}
        self.finals = {}
        self.rounds = 0

    @property
    def failed(self):
        return sum(self.failures.values())


def _run_phase(workload, kernel_check, rng, seconds, digests, tracer=None):
    phase = Phase(digests)
    t_start = time.perf_counter()
    while True:
        chains = workload.chains()
        states = [dict() for _ in chains]
        for op_id, (c, op) in enumerate(_schedule(chains, rng,
                                                  workload.interleave)):
            phase.attempted += 1
            error = None
            # garbage of earlier operations and checks is not collected
            # inside this one's timed region
            gc.collect()
            if tracer is not None:
                tracer.begin_op((phase.rounds, op_id))
            t0 = time.perf_counter()
            try:
                result = op.run(states[c])
            except Exception as exc:  # a failed operation is counted
                error = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            phase.times.setdefault(op.label, []).append(dt)
            finals = phase.finals.setdefault(op.label, {})
            if kernel_check is not None:
                finals.update(kernel_check.take())
            if error is not None:
                problems = ["%s: %s" % (type(error).__name__, error)]
            else:
                problems, digest = op.check(result, states[c])
                if digest is not None:
                    if phase.digests.setdefault(op.label, digest) != digest:
                        problems.append("output differs from an earlier round")
                if op.final is not None and not problems:
                    finals["output"] = op.final
                del result
            if not problems:
                continue
            phase.failures[op.label] += 1
            if error is not None and type(error).__name__ == op.fault:
                phase.faults[op.label] = problems[0]
            else:
                phase.problems.append((op.label, problems))
        del states
        phase.rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / phase.rounds > seconds:
            return phase


def _run_finals(phase):
    """Run the checks left for after the rounds.  A failed one fails
    every attempt of its operation: all attempts gave the same output."""
    for label, checks in phase.finals.items():
        problems = [p for check in checks.values() for p in check()]
        if problems:
            phase.failures[label] = len(phase.times[label])
            phase.problems.append((label, problems))
    phase.finals = {}


def _wall(phase):
    """Summed wall time of one round: per operation, the median over
    the rounds, summed over the operations."""
    return sum(statistics.median(ts) for ts in phase.times.values())


class KernelCheck:
    """With the compiled kernel built, the arguments of every enumeration
    it runs are recorded.  After the rounds, each distinct enumeration
    is run again by both kernels, and the two tables must be equal."""

    def __init__(self):
        from hyperforge import _tccore, _tcpure
        self.pure = _tcpure.enumerate_cosets
        self.compiled = _tccore.enumerate_cosets
        self.calls = []

        def recording(*args):
            self.calls.append(args)
            return self.compiled(*args)
        _tccore.enumerate_cosets = recording

    def take(self):
        """{key: check} for the enumerations since the last take."""
        calls, self.calls = self.calls, []
        return {repr(args): functools.partial(self._replay, args)
                for args in calls}

    def _replay(self, args):
        import numpy as np
        ref, flat = self.pure(*args), self.compiled(*args)
        if (ref is None) != (flat is None) or (
                ref is not None and not np.array_equal(np.asarray(ref),
                                                       np.asarray(flat))):
            return ["compiled and pure kernels disagree on %d generators, "
                    "%d relators" % (args[0], len(args[1]))]
        return []


def _layer_metrics(tracer, untraced_wall, traced_wall, rounds):
    from spans import COUNTERS, SPAN_NAMES, OP_SPAN
    selfs = tracer.self_times()
    metrics = {}
    for name in SPAN_NAMES:
        total, calls = selfs.get(name, (0.0, 0))
        metrics[name + ".self_s"] = (total / rounds, "s")
        metrics[name + ".calls"] = (calls / rounds, "count")
        if name in COUNTERS:
            unit = "bytes" if COUNTERS[name] == "bytes" else "count"
            key = "%s.%s" % (name, COUNTERS[name])
            metrics[key] = (tracer.counts.get(key, 0) / rounds, unit)
    inclusive = sum(end - start for name, start, end, _, _ in tracer.spans
                    if name == "toddcox.todd_coxeter")
    cosets = tracer.counts.get("toddcox.todd_coxeter.cosets", 0)
    metrics["toddcox.todd_coxeter.cosets_per_s"] = (
        cosets / inclusive if inclusive else 0.0, "1/s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (selfs.get(OP_SPAN, (0.0, 0))[0]
                                       / rounds, "s")
    return metrics


def _dump_spans(tracer, args):
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "spans-%s-seed%d.json" % (args.workload,
                                                        args.seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    return path


def _report_phase(label, phase):
    print("%s: %d rounds, %d attempted, %d failed"
          % (label, phase.rounds, phase.attempted, phase.failed))
    for op_label, ts in sorted(phase.times.items()):
        print("  %-40s median %8.3f s over %d" % (op_label,
                                                   statistics.median(ts),
                                                   len(ts)))
    for op_label, seen in sorted(phase.faults.items()):
        print("  known fault   %-30s %s" % (op_label, seen))
    for op_label, problems in phase.problems:
        for p in problems:
            print("  CHECK FAILED  %-30s %s" % (op_label, p))


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_only:
        _setup_only(args.workload)
        return 0
    workloads = _import_package()
    import numpy
    import scipy
    from hyperforge import toddcox
    print("backend %s; commit %s; python %s; numpy %s; scipy %s; cpus %d "
          "(usable %d)" % (toddcox.backend_name(), _git_sha(),
                           sys.version.split()[0], numpy.__version__,
                           scipy.__version__, os.cpu_count(),
                           len(os.sched_getaffinity(0))))
    print("workload %s, seed %d, %g s, trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    if not args.trace:
        setup_s, setup_samples = _measure_setup(args.workload)
        print("setup samples: %s" % " ".join("%.4f" % s
                                             for s in setup_samples))

    kernel_check = KernelCheck() if toddcox.backend_name() == "compiled" \
        else None
    rng = random.Random(args.seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        digests = {}
        plain = _run_phase(workload, kernel_check, rng, args.seconds,
                           digests)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the final checks allocate, so they run after ru_maxrss is read;
        # the traced rounds must match these outputs by digest and are
        # not checked again
        _run_finals(plain)
        _report_phase("untraced", plain)
        phases = [plain]
        if args.trace:
            import spans
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                traced = _run_phase(workload, kernel_check, rng,
                                    args.seconds, digests, tracer)
            finally:
                spans.uninstall(undo)
            _report_phase("traced", traced)
            print("spans written to %s" % _dump_spans(tracer, args))
            phases.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = _wall(plain)
    if args.trace:
        metrics = _layer_metrics(tracer, wall_s, _wall(traced),
                                 traced.rounds)
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    for name, (value, unit) in metrics.items():
        print("%-45s %14.6f %s" % (name, value, unit))
    result = {
        "correct": not any(p.problems for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
