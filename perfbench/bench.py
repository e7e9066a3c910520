"""One benchmark run of one workload: set-up, measured rounds, checks, metrics.

The load is a closed loop in one process and one thread: every library
call waits for the previous one.  A round is

  expand        ``expand(a)`` on the main instance
  evaluate      passes over half of a stream of 50 ``(t, t+1)`` query
                pairs on that expansion; the halves alternate every two
                rounds
  expand_reduced, verify, eigen
                ``expand(c, reduce_by_cyclicity=True)``,
                ``oracle.brute_power_check`` over [threshold, threshold+20]
                and Karp plus principal eigenvectors on the check instance,
                which is what ``maxplus expand --reduce``, ``maxplus verify``
                and ``maxplus eigen`` spend.

Every round runs on the same parsed inputs (see ``workloads.inputs``).
Round 0 runs the whole stream, warms up and calibrates: in later rounds
each operation, or each pass over the half stream, runs back to back as
many times as fill its region in ``REGION_S``, so every operation and
every exponent gets many timed calls per run.  Rounds
repeat until the run's seconds are spent (at least ``MIN_ROUNDS`` after
round 0).

Times are in reference seconds (see ``Clock``): a call's wall time over
the mean time of a fixed loop of interpreter work, sampled just before,
during and just after the call, times that loop's time on a quiet host
(``REF_S``).  On a shared 2-core virtual machine the neighbours moved the
speed of one process by up to 1.7x, over milliseconds to minutes, so
wall times of the same code ranged 20-45% across runs, even the fastest
call of a 20-second run.  A change to the library moves the ratio; a
change of host speed moves both sides of it.  A timing is the median of
its calls in the run; each of the 100 calls in the evaluate stream
counts with the median of its calls, and the percentiles are taken over
those 100 latencies.  Set-up time is the median of ``SETUP_REPS``
set-ups.  Output checks run between the timed calls.  With tracing,
measured rounds alternate untraced and traced: the end-to-end figures
come from the untraced ones, the per-layer figures from the traced ones,
and the tracing overhead is the median, over pairs of an untraced round
and the traced round after it (which runs the same half of the stream),
of their difference in reference seconds.  Per-layer times are the
tracer's wall seconds, which include the reference samples taken inside
a call (about 4%).
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import maxplus.cli as cli
import maxplus.csr as csr
import maxplus.digraph as digraph
import maxplus.oracle as oracle

from checks import Tally, check_eigenvector, check_step
from tracing import Tracer, layer_metrics, span_table
from workloads import WORKLOADS, inputs, query_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMO = ROOT / "fixtures" / "demo10-dense.mpx"
DIGESTS = HERE / "digests.json"
LIBRARY_MODULES = ("maxplus", "maxplus.cli", "maxplus.csr", "maxplus.digraph", "maxplus.oracle")

SETUP_REPS = 15
MIN_ROUNDS = 3
REGION_S = {"expand": 1.6, "evaluate": 0.4, "expand_reduced": 0.5, "verify": 0.6, "eigen": 0.3}
EVAL_PAIRS = 50
VERIFY_WINDOW = 21
HUGE_T = 10**18
REF_S = 0.0002  # seconds of one ``reference()`` call on a quiet host: the unit of every reported time
REF_CALLS = 3
SAMPLE_S = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("expand_s", "s"),
    ("evaluate_p50_ms", "ms"),
    ("evaluate_p90_ms", "ms"),
    ("expand_reduced_s", "s"),
    ("verify_s", "s"),
    ("eigen_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _no_span(name):
    return contextlib.nullcontext()


def reference():
    """A fixed piece of interpreter work: dict updates, int arithmetic, a sort."""
    counts = {}
    total = 0
    for i in range(1500):
        k = i % 61
        counts[k] = counts.get(k, 0) + i
        total += i * i % 7
    return total + sorted(counts.values())[0]


def _reference_s():
    best = math.inf
    for _ in range(REF_CALLS):
        started = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - started)
    return best


class Clock:
    """Times calls against the reference loop, sampled before, during and after each call.

    While a call runs, a timer signal every ``SAMPLE_S`` seconds times the
    reference loop (fastest of ``REF_CALLS``) between two of the call's
    bytecodes.  A call gives a sample (wall seconds less the time those
    reference runs took, mean reference seconds over the call).  Sampling
    inside the call tracks changes of host speed that happen during it:
    on ``blocks``, the variation of ``expand`` over the calls of a run
    fell from 12-13% with the reference taken only before and after each
    call to 4-6%, at a cost of about 4% more wall time.
    """

    def __init__(self):
        self.samples = []  # every sample taken, for the log
        self._during = []
        self._spent = 0.0

    def _sample(self, signum, frame):
        started = time.perf_counter()
        self._during.append(_reference_s())
        self._spent += time.perf_counter() - started

    def time(self, fn, span=contextlib.nullcontext()):
        """Returns (fn's result, the open span or None, the call's sample)."""
        gc.collect()
        self._during = [_reference_s()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S / 2, SAMPLE_S)
        try:
            with span as s:
                result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - started - self._spent
            signal.signal(signal.SIGALRM, previous)
        self._during.append(_reference_s())
        sample = (elapsed, statistics.fmean(self._during))
        self.samples.append(sample)
        return result, s, sample


def in_reference_s(sample):
    wall, reference_s = sample
    return REF_S * wall / reference_s


def scaled(samples):
    """The median of the calls' times, in reference seconds."""
    return statistics.median(map(in_reference_s, samples))


def _is_library(module_name):
    return module_name == "maxplus" or module_name.startswith("maxplus.")


def _import_afresh():
    """Run the library's imports again, as a new process would, with numpy already loaded.

    The modules the benchmark holds are put back afterwards, so every
    later call, and the tracer's patches, still go to them.
    """
    held = {name: module for name, module in sys.modules.items() if _is_library(name)}
    for name in held:
        del sys.modules[name]
    try:
        for name in LIBRARY_MODULES:
            importlib.import_module(name)
    finally:
        for name in [name for name in sys.modules if _is_library(name)]:
            del sys.modules[name]
        sys.modules.update(held)


def _setup(workload, seed, toy, span):
    """Import the library, generate, parse and warm up."""
    with span("setup"):
        _import_afresh()
        main, check = inputs(workload, seed, toy)
        a = cli.parse_matrix(main.text)
        c = a if check is main else cli.parse_matrix(check.text)
        csr.expand(cli.parse_matrix(DEMO.read_text()))
    return main, check, a, c


def _timed(clock, times, reps, key, span, fn, counts=None):
    """Call ``fn()`` reps[key] times back to back; records each call's sample.

    ``counts(result)``, if given, sets the counts of each call's span.
    """
    times[key] = []
    for _ in range(reps.get(key, 1)):
        result, s, sample = clock.time(fn, span(key))
        times[key].append(sample)
        if s is not None and counts is not None:
            s.counts = counts(result)
    return result


def _round(clock, parsed, stream, reps, tally, span):
    """One round over the given query pairs.

    Returns ({operation: call samples}, [evaluate samples per exponent], main expansion).
    """
    main, check, a, c = parsed
    times = {}
    x = _timed(clock, times, reps, "expand", span, lambda: csr.expand(a), lambda x: {"terms": len(x.terms)})
    latencies = [[] for _ in range(2 * len(stream))]
    for _ in range(reps.get("evaluate", 1)):
        for k, (t, row) in enumerate(stream):
            pair = []
            for j, q in enumerate((t, t + 1)):
                power, _, sample = clock.time(lambda: x.evaluate(q), span("evaluate"))
                pair.append(power)
                latencies[2 * k + j].append(sample)
            check_step(tally, main, pair[0], pair[1], row, t)
    xr = _timed(clock, times, reps, "expand_reduced", span, lambda: csr.expand(c, reduce_by_cyclicity=True))
    if check is main:
        xc = x
    else:
        with span("check"):
            xc = csr.expand(c)
    window = range(xc.threshold, xc.threshold + VERIFY_WINDOW)
    report = _timed(clock, times, reps, "verify", span, lambda: oracle.brute_power_check(c, xc, window))
    tally.check(report.match, f"brute_power_check: {report.counterexample}")
    with span("check"):
        for t in (xc.threshold, HUGE_T):
            tally.check(xr.evaluate(t) == xc.evaluate(t), f"reduced expansion differs at t = {t}")

    def eigen():
        lam = digraph.karp_max_cycle_mean(digraph.build_graph(c))
        return lam, digraph.principal_eigenvectors(c)

    lam, vectors = _timed(clock, times, reps, "eigen", span, eigen)
    for node, column in vectors:
        check_eigenvector(tally, check, lam.value, node, column)
    return times, latencies, x


def _expected_digest(workload, seed, n):
    recorded = json.loads(DIGESTS.read_text()).get(workload)
    if recorded is None or recorded["n"] != n:
        return None
    return recorded["by_seed"].get(str(seed))


def run(workload, seed, seconds, trace=False, toy=False, trace_out=None):
    """Run one workload; returns the result object printed as the last line."""
    spec = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    tally = Tally()
    clock = Clock()

    setup_samples = []
    for k in range(SETUP_REPS):
        with tracer.installed(("setup", k)) if tracer else contextlib.nullcontext():
            span = tracer.span if tracer else _no_span
            parsed, _, sample = clock.time(lambda: _setup(spec, seed, toy, span))
        setup_samples.append(sample)
    # Every timed call starts from a collected heap, so the garbage-collector
    # passes inside it depend on its own allocations, not on the previous call.
    gc.collect()
    gc.freeze()
    main = parsed[0]
    stream = query_stream(seed, main.n, 2 * main.n * main.n, EVAL_PAIRS)

    times, samples, x = _round(clock, parsed, stream, {}, tally, _no_span)
    # One call of "evaluate" is a pass over half of the stream.
    first = [sample for exponent in samples for sample in exponent]
    times["evaluate"] = [(sum(w for w, _ in first) / 2, statistics.fmean(r for _, r in first))]
    reps = {key: max(1, math.ceil(REGION_S[key] / scaled(calls))) for key, calls in times.items()}
    del times["evaluate"]
    calls = {key: [] for key in times}
    latencies = {}  # (pair, 0 or 1 for t or t+1) -> evaluate samples
    half = len(stream) // 2  # the stream alternates the two kinds of t, so each half has both
    halves = (range(half), range(half, len(stream)))
    rounds, overheads = 0, []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_ROUNDS or time.perf_counter() < deadline:
        traced_round = trace and k % 2 == 1
        # Rounds 2j and 2j+1 take the same half, so a traced round repeats the untraced one.
        pairs = halves[k // 2 % 2]
        with tracer.installed(("main", k)) if traced_round else contextlib.nullcontext():
            times, samples, _ = _round(clock, parsed, [stream[i] for i in pairs], reps, tally,
                                       tracer.span if traced_round else _no_span)
        work = sum(map(in_reference_s, [c for v in [*samples, *times.values()] for c in v]))
        if traced_round:
            overheads.append(work - plain_work)
        else:
            rounds += 1
            plain_work = work
            for key, values in times.items():
                calls[key].extend(values)
            for key, values in zip(((i, q) for i in pairs for q in (0, 1)), samples):
                latencies.setdefault(key, []).extend(values)
        k += 1

    digest = cli.matrix_digest(x.evaluate(HUGE_T))
    expected = _expected_digest(workload, seed, main.n)
    if expected is not None:
        tally.check(digest == expected, f"digest of evaluate(10**18) is {digest}, recorded {expected}")

    evaluate = [scaled(s) for s in latencies.values()]
    e2e = {
        "setup_s": scaled(setup_samples),
        "expand_s": scaled(calls["expand"]),
        "evaluate_p50_ms": 1000 * statistics.median(evaluate),
        "evaluate_p90_ms": 1000 * statistics.quantiles(evaluate, n=10)[8],
        "expand_reduced_s": scaled(calls["expand_reduced"]),
        "verify_s": scaled(calls["verify"]),
        "eigen_s": scaled(calls["eigen"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {workload} seed {seed}: n = {main.n}, check n = {parsed[1].n}, "
          f"{rounds} untraced rounds, {len(evaluate)} evaluate exponents, {len(setup_samples)} set-ups")
    print("back-to-back runs per round: " + ", ".join(f"{key} {k}" for key, k in reps.items()))
    print(f"host speed: {sum(w for w, _ in clock.samples) / sum(map(in_reference_s, clock.samples)):.3f} "
          "wall s per reference s")
    print(f"digest of evaluate(10**18): {digest}")
    for name, unit in END_TO_END:
        print(f"metric {name} {e2e[name]:.6g} {unit}")
    print(f"metric fail_ratio {tally.fail_ratio:.6g} 1 ({tally.failed} of {tally.attempted} checks failed)")
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(tracer)
        overhead = statistics.median(overheads)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{'span':<24} {'calls/round':>12} {'total_s':>10} {'self_s':>10}")
        for name, calls, total, own in span_table(tracer):
            print(f"{name:<24} {calls:>12.1f} {total:>10.4f} {own:>10.4f}")
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
        print(f"tracing overhead {overhead:.4f} s per round, median of {len(overheads)} pairs "
              f"({100 * overhead / plain_work:.2f}% of {plain_work:.3f} s)")
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            trace_out.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
