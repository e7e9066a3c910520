"""Span tracing of the library's entry points, from outside the library.

``Tracer.installed`` replaces module attributes (and three ``CsrExpansion``
methods) with wrappers that record one span per call: name, start, end,
parent span, and the request it belongs to, which is the id of its root
span (one top-level benchmark operation), and puts the originals back
when its block ends.  No library source is changed.  A patched attribute
that the library no longer has, or a counter that no longer fits its
result, fails the run rather than letting a metric read 0.

The attribute is patched where the caller looks it up: ``expand`` calls
``maxplus.csr.characteristic_roots``, so that binding is wrapped, not the
one in ``maxplus.charpoly``.
"""

from __future__ import annotations

import contextlib
import functools
import time

import maxplus.assignment as assignment
import maxplus.charpoly as charpoly
import maxplus.cli as cli
import maxplus.csr as csr
import maxplus.digraph as digraph
import maxplus.oracle as oracle
import maxplus.tropical as tropical


def _visualize_counts(args, result):
    return {
        "nodes": sum(len(g.nodes) for g in result.groups),
        "group_arcs": sum(g.matrix.finite_count for g in result.groups),
    }


# (owner, attribute, span name, counter(args, result) -> {count: value})
PATCHES = (
    (csr, "characteristic_roots", "charpoly.roots", lambda args, r: {"roots": r.p}),
    (charpoly, "chi_eval", "charpoly.chi_eval", None),
    (charpoly, "max_assignment", "assignment", lambda args, r: {"cells": len(args[0]) ** 2}),
    (assignment, "_solve_min_numpy", "assignment.numpy", None),
    (assignment, "_solve_min_python", "assignment.python", None),
    (csr, "partition_nodes", "partition", lambda args, r: {"groups": r.r}),
    (csr, "visualize_all", "visualize", _visualize_counts),
    (csr, "compute_cr_pair", "csr.cr", lambda args, r: {"labels": 2 * args[0].rows * args[2].length}),
    (csr, "reduce_term", "csr.reduce", None),
    (csr.CsrExpansion, "evaluate", "csr.evaluate", None),
    (csr.CsrExpansion, "_accumulate_numpy", "csr.evaluate.numpy", None),
    (csr.CsrExpansion, "_accumulate_python", "csr.evaluate.python", None),
    (tropical, "matrix_mul", "tropical.matrix_mul", None),
    (oracle, "matrix_mul", "tropical.matrix_mul", None),
    (tropical, "matrix_power", "tropical.matrix_power", None),
    (oracle, "matrix_power", "tropical.matrix_power", None),
    (csr, "matrix_power", "tropical.matrix_power", None),
    (tropical, "kleene_star", "tropical.kleene_star", None),
    (digraph, "kleene_star", "tropical.kleene_star", None),
    (digraph, "karp_max_cycle_mean", "digraph.karp", None),
    (digraph, "critical_graph", "digraph.critical_graph", None),
    (csr, "critical_graph", "digraph.critical_graph", None),
    (oracle, "brute_power_check", "oracle.power_check", None),
    (cli, "parse_matrix", "cli.parse", None),
)

EXPAND = ("expand",)
CHECK_INSTANCE = ("expand_reduced", "verify", "eigen")

# (metric, unit, span name, roots the span must sit under, statistic)
LAYER_METRICS = (
    ("charpoly.roots.s", "s", "charpoly.roots", EXPAND, "total"),
    ("charpoly.roots.count", "count", "charpoly.roots", EXPAND, "roots"),
    ("charpoly.chi_eval.calls", "count", "charpoly.chi_eval", EXPAND, "calls"),
    ("charpoly.chi_eval.self_s", "s", "charpoly.chi_eval", EXPAND, "self"),
    ("assignment.calls", "count", "assignment", EXPAND, "calls"),
    ("assignment.s", "s", "assignment", EXPAND, "total"),
    ("assignment.cells", "count", "assignment", EXPAND, "cells"),
    ("assignment.numpy_solves", "count", "assignment.numpy", EXPAND, "calls"),
    ("assignment.python_solves", "count", "assignment.python", EXPAND, "calls"),
    ("assignment.fallbacks", "count", "assignment", EXPAND, "fallbacks"),
    ("partition.s", "s", "partition", EXPAND, "total"),
    ("partition.groups", "count", "partition", EXPAND, "groups"),
    ("visualize.s", "s", "visualize", EXPAND, "total"),
    ("visualize.nodes", "count", "visualize", EXPAND, "nodes"),
    ("visualize.group_arcs", "count", "visualize", EXPAND, "group_arcs"),
    ("csr.cr.s", "s", "csr.cr", EXPAND, "total"),
    ("csr.cr.labels", "count", "csr.cr", EXPAND, "labels"),
    ("csr.terms", "count", "expand", EXPAND, "terms"),
    ("csr.evaluate.s", "s", "csr.evaluate", ("evaluate",), "total"),
    ("csr.evaluate.numpy", "count", "csr.evaluate.numpy", ("evaluate",), "calls"),
    ("csr.evaluate.python", "count", "csr.evaluate.python", ("evaluate",), "calls"),
    ("csr.reduce.s", "s", "csr.reduce", ("expand_reduced",), "total"),
    ("tropical.matrix_mul.calls", "count", "tropical.matrix_mul", CHECK_INSTANCE, "calls"),
    ("tropical.matrix_mul.s", "s", "tropical.matrix_mul", CHECK_INSTANCE, "total"),
    ("tropical.matrix_power.s", "s", "tropical.matrix_power", CHECK_INSTANCE, "total"),
    ("tropical.kleene_star.s", "s", "tropical.kleene_star", CHECK_INSTANCE, "total"),
    ("digraph.karp.s", "s", "digraph.karp", CHECK_INSTANCE, "total"),
    ("digraph.critical_graph.s", "s", "digraph.critical_graph", CHECK_INSTANCE, "total"),
    ("oracle.power_check.s", "s", "oracle.power_check", ("verify",), "total"),
    ("cli.parse.s", "s", "cli.parse", ("setup",), "total"),
    ("trace.expand_s", "s", "expand", EXPAND, "total"),
)

# The stages whose spans should account for all of an ``expand`` span.
EXPAND_STAGES = ("charpoly.roots", "partition", "visualize", "csr.cr")


class Span:
    __slots__ = ("id", "parent", "request", "round", "name", "start", "end", "counts")

    def __init__(self, sid, parent, request, rnd, name, start):
        self.id = sid
        self.parent = parent
        self.request = request
        self.round = rnd
        self.name = name
        self.start = start
        self.end = None
        self.counts = None

    def as_dict(self):
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Spans kept in memory; ``round`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        request = sid if parent is None else parent.request
        span = Span(sid, None if parent is None else parent.id, request, self.round, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextlib.contextmanager
    def installed(self, rnd):
        """Trace the library while the block runs, tagging spans with round ``rnd``."""
        self.round = rnd
        saved = []
        try:
            for owner, attr, name, counter in PATCHES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced


def _round_stats(spans):
    """Per (span name, root name): calls, total and self seconds, summed counts.

    Also, under the key ``(None, root name)``, how many root spans of that
    name the round has.
    """
    by_id = {s.id: s for s in spans}
    child_time = {}
    child_names = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
            child_names.setdefault(s.parent, set()).add(s.name)
    stats = {}
    for s in spans:
        if s.parent is None:
            entry = stats.setdefault((None, s.name), {"calls": 0})
            entry["calls"] += 1
        key = (s.name, by_id[s.request].name)
        entry = stats.setdefault(key, {"calls": 0, "total": 0.0, "self": 0.0})
        duration = s.end - s.start
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - child_time.get(s.id, 0.0)
        for count, value in (s.counts or {}).items():
            entry[count] = entry.get(count, 0) + value
        if s.name == "assignment" and {"assignment.numpy", "assignment.python"} <= child_names.get(s.id, set()):
            entry["fallbacks"] = entry.get("fallbacks", 0) + 1
    return stats


def _by_round(spans, phase):
    rounds = {}
    for s in spans:
        if s.round is not None and s.round[0] == phase:
            rounds.setdefault(s.round, []).append(s)
    return [_round_stats(group) for _, group in sorted(rounds.items())]


def layer_metrics(tracer):
    """Every per-layer metric, from its per-round values.

    A round's value is per call of the top-level operation the spans sit
    under: per ``expand``, per ``evaluate`` call, per set-up, and so on,
    because a round may run an operation several times back to back.  A
    time is the fastest traced round's, in wall seconds.  A
    count is that of the first traced round; every round has the same
    input, which depends on the seed alone, so counts repeat exactly
    across runs with one seed.
    """
    phases = {"setup": _by_round(tracer.spans, "setup"), "main": _by_round(tracer.spans, "main")}
    out = {}
    for metric, unit, name, roots, statistic in LAYER_METRICS:
        rounds = phases["setup" if roots == ("setup",) else "main"]
        values = [
            sum(stats.get((name, root), {}).get(statistic, 0) / stats[(None, root)]["calls"] for root in roots)
            for stats in rounds
        ]
        if not values:
            value = 0
        elif unit == "count":
            value = values[0]
        else:
            value = min(values)
        out[metric] = {"value": value, "unit": unit}
    coverage = []
    for s in tracer.spans:
        if s.name == "expand" and s.parent is None and s.round[0] == "main":
            covered = sum(
                c.end - c.start for c in tracer.spans if c.parent == s.id and c.name in EXPAND_STAGES
            )
            coverage.append(covered / (s.end - s.start))
    out["trace.expand_coverage"] = {"value": min(coverage) if coverage else 0, "unit": "ratio"}
    return out


def span_table(tracer):
    """(name, calls, total s, self s) per span name, averaged over traced main rounds."""
    rounds = _by_round(tracer.spans, "main")
    merged = {}
    for stats in rounds:
        for (name, _), entry in stats.items():
            if name is None:
                continue
            row = merged.setdefault(name, [0, 0.0, 0.0])
            row[0] += entry["calls"]
            row[1] += entry["total"]
            row[2] += entry["self"]
    k = max(len(rounds), 1)
    return [(name, calls / k, total / k, own / k) for name, (calls, total, own) in sorted(merged.items())]
