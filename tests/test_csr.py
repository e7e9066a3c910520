import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from maxplus import (
    CircuitRecord,
    CsrExpansion,
    CsrTerm,
    DimensionMismatchError,
    TropicalMatrix,
    build_s,
    characteristic_roots,
    expand,
    matrix_mul,
    matrix_power,
    partition_nodes,
    reduce_term,
    visualize_all,
)
from maxplus import csr
from maxplus.cli import parse_matrix
from maxplus.csr import _perm_power, compute_cr_pair
from maxplus.tropical import _ARRAY_GATES, _INT64_BOUND, _kernel_arrays, common_scale, scaled_int, unscaled
from maxplus.visualize import InvariantViolationError
from maxplus.oracle import (
    brute_power_check,
    mod_length_closure,
    random_irreducible_matrix,
    random_matrix,
)
from fixtures import (
    DEMO_C1_VERIFIED_ROWS,
    DEMO_C2_ROWS,
    DEMO_C3_ROWS,
    DEMO_R1_VERIFIED_ROWS,
    DEMO_R2_ROWS,
    DEMO_R3_ROWS,
    DEMO_RATES,
    DEMO_S1_ROWS,
    DEMO_S2_ROWS,
    DEMO_S3_ROWS,
    demo_matrix,
    tm,
    workload_module,
)


class TestBuildS:
    def test_three_cycle(self):
        s = build_s(CircuitRecord((5, 7, 8), 9))
        assert s == tm(DEMO_S3_ROWS)

    def test_self_loop_is_identity(self):
        s = build_s(CircuitRecord((3,), 6))
        assert s == TropicalMatrix.identity(1)

    def test_two_cycle(self):
        s = build_s(CircuitRecord((0, 1), 16))
        assert s == tm(DEMO_S1_ROWS)

    def test_power_cycles_back_to_identity(self):
        rng = random.Random(101)
        for ell in (1, 2, 3, 5, 8):
            s = build_s(CircuitRecord(tuple(range(ell)), 0))
            assert matrix_power(s, ell) == TropicalMatrix.identity(ell)
            t = rng.randint(0, 500)
            assert matrix_power(s, t) == matrix_power(s, t % ell)


def test_perm_power_matches_matrix_power():
    rng = random.Random(103)
    for _ in range(20):
        ell = rng.randint(1, 6)
        s = build_s(CircuitRecord(tuple(range(ell)), 0))
        t = rng.randint(0, 100)
        power = _perm_power(tuple((k + 1) % ell for k in range(ell)), t)
        rebuilt = TropicalMatrix(ell, ell, {(k, power[k]): 0 for k in range(ell)})
        assert rebuilt == matrix_power(s, t)


class TestDemoExpansion:
    def test_terms_and_rates(self):
        x = expand(demo_matrix())
        assert x.threshold == 200
        assert tuple(t.rate for t in x.terms) == DEMO_RATES
        assert [t.circuit.nodes for t in x.terms] == [(0, 1), (3,), (5, 7, 8)]

    def test_factors(self):
        x = expand(demo_matrix())
        assert x.terms[0].C == tm(DEMO_C1_VERIFIED_ROWS)
        assert x.terms[0].R == tm(DEMO_R1_VERIFIED_ROWS)
        assert x.terms[0].S == tm(DEMO_S1_ROWS)
        assert x.terms[1].C == tm(DEMO_C2_ROWS)
        assert x.terms[1].R == tm(DEMO_R2_ROWS)
        assert x.terms[1].S == tm(DEMO_S2_ROWS)
        assert x.terms[2].C == tm(DEMO_C3_ROWS)
        assert x.terms[2].R == tm(DEMO_R3_ROWS)
        assert x.terms[2].S == tm(DEMO_S3_ROWS)

    def test_evaluation_entries(self):
        x = expand(demo_matrix())
        # one hundred laps of the (1,2) circuit
        assert x.evaluate(200).get(0, 0) == 1600
        assert matrix_power(demo_matrix(), 200).get(0, 0) == 1600
        # odd exponent: best walk takes one detour through node 3
        assert x.evaluate(201).get(0, 0) == 1607
        assert matrix_power(demo_matrix(), 201).get(0, 0) == 1607

    def test_equals_naive_power_over_window(self):
        a = demo_matrix()
        x = expand(a)
        power = matrix_power(a, 200)
        for t in range(200, 211):
            assert x.evaluate(t) == power
            power = matrix_mul(power, a)


class TestSmallExpansions:
    def test_one_by_one(self):
        x = expand(tm([[7]]))
        assert len(x.terms) == 1
        term = x.terms[0]
        assert term.rate == 7
        assert term.C == tm([[0]])
        assert term.S == tm([[0]])
        assert term.R == tm([[0]])
        assert x.evaluate(0) == tm([[0]])
        assert x.evaluate(5) == tm([[35]])

    def test_strictly_upper_triangular(self):
        a = tm([[None, 1, 2], [None, None, 3], [None, None, None]])
        x = expand(a)
        assert x.terms == ()
        assert x.evaluate(3) == TropicalMatrix.epsilon(3)
        assert x.evaluate(100) == TropicalMatrix.epsilon(3)
        # below the order, the defined fallback is the naive power
        assert x.evaluate(2) == matrix_power(a, 2)
        assert x.evaluate(0) == TropicalMatrix.identity(3)

    def test_rational_entries(self):
        a = tm([[None, Fraction(1, 2)], [Fraction(5, 3), None]])
        x = expand(a)
        T = x.threshold
        power = matrix_power(a, T)
        for t in range(T, T + 6):
            assert x.evaluate(t) == power
            power = matrix_mul(power, a)


def test_random_sweep_matches_naive_powers():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
        x = expand(a)
        report = brute_power_check(a, x, range(x.threshold, x.threshold + 13))
        assert report.match, report.counterexample


def test_wide_matrix_exercises_fast_evaluation_path():
    # n >= 64 with small entries: one stacked product on int64 arrays.
    rng = random.Random(6464)
    a = random_matrix(rng, 64, 0.25)
    x = expand(a)
    t = x.threshold + 3
    assert x.evaluate(t) == matrix_power(a, t)


def test_wide_matrix_with_huge_values_stays_exact():
    # Entries past the kernel's int64 bound put evaluate on object arrays.
    rng = random.Random(6565)
    entries = {
        (i, j): rng.randint(-3, 3) * 10**20
        for i in range(64)
        for j in range(64)
        if rng.random() < 0.1 or i == (j + 1) % 64
    }
    a = TropicalMatrix(64, 64, entries)
    x = expand(a)
    t = x.threshold
    assert x.evaluate(t) == matrix_power(a, t)


def _cycles(s):
    """The cycles of a permutation matrix, each from its smallest index."""
    succ = dict(s.entries.keys())
    cycles, seen = [], set()
    for start in sorted(succ):
        cycle = []
        v = start
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = succ[v]
        if cycle:
            cycles.append(cycle)
    return cycles


def _assert_factors_match_closure(term, gv):
    # Factor index k of a plain term stands for the k-th circuit node and
    # the closure of the ell-th power; of a reduced term, for every member
    # of class k and the closure of the sigma-th power (sigma is the order
    # of the class permutation S).
    if term.reduced:
        members, layers = term.classes, math.lcm(*map(len, _cycles(term.S)))
    else:
        members, layers = tuple((v,) for v in term.circuit.nodes), term.circuit.length
    pos = {v: k for k, v in enumerate(gv.nodes)}
    closure = mod_length_closure(gv.matrix, layers)
    d = gv.scaling
    assert {j for _, j in term.R.entries} <= set(gv.nodes)
    assert {i for i, _ in term.C.entries} <= set(gv.nodes)
    for k, group in enumerate(members):
        for m in group:
            for j, orig in enumerate(gv.nodes):
                out = closure.get(pos[m], j)
                assert term.R.get(k, orig) == (None if out is None else out - d[j])
                into = closure.get(j, pos[m])
                assert term.C.get(orig, k) == (None if into is None else d[j] + into)


def _tie_heavy_instances():
    # Entries in {0, -1} tie many circuits, so critical graphs often have
    # several components, some of different periods.
    rng = random.Random(131)
    for _ in range(40):
        n = rng.randint(3, 9)
        a = random_matrix(rng, n, rng.choice([0.3, 0.5, 0.8]), -1, 0)
        part = partition_nodes(characteristic_roots(a), n)
        yield a, part, visualize_all(a, part)


def test_r_rows_match_mod_length_closure():
    # Rows of the normalized R factor (and columns of C) are rows (and
    # columns) of the closure of the ell-th power of the visualized
    # submatrix, at the circuit nodes; for reduced terms, at every member
    # of every cyclicity class.
    a = demo_matrix()
    part = partition_nodes(characteristic_roots(a), 10)
    vis = visualize_all(a, part)
    for term in expand(a).terms:
        _assert_factors_match_closure(term, vis.group(term.group))
    mixed_periods = 0
    for a, _, vis in _tie_heavy_instances():
        for term in expand(a, reduce_by_cyclicity=True).terms:
            _assert_factors_match_closure(term, vis.group(term.group))
            mixed_periods += len({len(c) for c in _cycles(term.S)}) > 1
    assert mixed_periods > 0


def test_reduced_term_sweeps_once_per_cycle_of_s(monkeypatch):
    # One forward and one backward layered sweep per critical component,
    # which is one cycle of the class permutation S.
    calls = []
    real = csr._layered_max_weights

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(csr, "_layered_max_weights", counted)
    several = 0
    for _, part, vis in _tie_heavy_instances():
        for gv in vis.groups:
            calls.clear()
            reduced = reduce_term(part, gv)
            cycles = len(_cycles(reduced.S))
            assert len(calls) == 2 * cycles
            several += cycles > 1
    assert several > 0


def test_reduced_expand_runs_no_closure(monkeypatch):
    # Each visualized group's critical graph comes from its tight arcs and
    # their strongly connected components, so it needs no Floyd-Warshall
    # closure, and neither C/R readout runs one.  Every module binding of
    # the kernel is counted.
    import maxplus.digraph as digraph
    import maxplus.tropical as tropical

    calls = []

    def counted(real):
        return lambda *args: calls.append(args) or real(*args)

    for module in (tropical, digraph, csr):
        if hasattr(module, "_max_plus_closure"):
            monkeypatch.setattr(module, "_max_plus_closure", counted(module._max_plus_closure))
    instances = [demo_matrix()] + [a for a, _, _ in _tie_heavy_instances()]
    for a in instances:
        x = expand(a, reduce_by_cyclicity=True)
        assert x.terms and all(term.reduced for term in x.terms)
    assert calls == []


def test_path_splitting_bound_on_demo():
    # Every entry of the normalized term evaluation is bounded by the best
    # split d(i, k) + d(k', j) over circuit positions with k' = t + k mod ell.
    a = demo_matrix()
    part = partition_nodes(characteristic_roots(a), 10)
    vis = visualize_all(a, part)
    x = expand(a)
    for term in x.terms:
        gv = vis.group(term.group)
        pos = {v: k for k, v in enumerate(gv.nodes)}
        closure = mod_length_closure(gv.matrix, term.circuit.length)
        ell = term.circuit.length
        cpos = [pos[v] for v in term.circuit.nodes]
        single = CsrExpansion(n=10, terms=(term,))
        for t in range(200, 206):
            shifted = single.evaluate(t)
            for (i, j), w in shifted.entries.items():
                if i not in pos or j not in pos:
                    continue
                normalized = (
                    w
                    - t * term.rate
                    - gv.scaling[pos[i]]
                    + gv.scaling[pos[j]]
                )
                bound = None
                for k in range(ell):
                    k2 = (t + k) % ell
                    left = closure.get(pos[i], cpos[k])
                    right = closure.get(cpos[k2], pos[j])
                    if left is None or right is None:
                        continue
                    cand = left + right
                    if bound is None or cand > bound:
                        bound = cand
                assert bound is not None
                assert normalized <= bound


class TestReduceTerm:
    def test_self_loop_term_unchanged(self):
        a = demo_matrix()
        part = partition_nodes(characteristic_roots(a), 10)
        vis = visualize_all(a, part)
        x = expand(a)
        term = x.terms[1]  # the (4,4) self-loop group; its critical graph is the loop
        reduced = reduce_term(part, vis.group(2))
        assert reduced.reduced
        assert reduced.classes == ((3,),)
        assert reduced.C == term.C
        assert reduced.S == term.S
        assert reduced.R == term.R

    def test_two_cycle_classes(self):
        a = tm([[None, 0], [0, None]])
        x = expand(a, reduce_by_cyclicity=True)
        term = x.terms[0]
        assert term.reduced
        assert term.classes == ((0,), (1,))
        assert term.S == tm([[None, 0], [0, None]])

    def test_demo_term1_reduction_agrees(self):
        a = demo_matrix()
        part = partition_nodes(characteristic_roots(a), 10)
        vis = visualize_all(a, part)
        x = expand(a)
        term = x.terms[0]
        reduced = reduce_term(part, vis.group(1))
        assert reduced.classes == ((0,), (1,))
        plain = CsrExpansion(n=10, terms=(term,))
        small = CsrExpansion(n=10, terms=(reduced,))
        for t in range(200, 211):
            assert plain.evaluate(t) == small.evaluate(t)

    def test_reduced_expansion_matches_naive_powers(self):
        rng = random.Random(109)
        for _ in range(30):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
            x = expand(a, reduce_by_cyclicity=True)
            report = brute_power_check(a, x, range(x.threshold, x.threshold + 9))
            assert report.match, report.counterexample

    def test_reduced_expand_reads_factors_once_per_term(self, monkeypatch):
        # A reduced term is built from its visualized group: one factor
        # readout per term, and no plain C/R pair read first.
        reads, plain = [], []
        monkeypatch.setattr(csr, "_read_factors", _recorded(reads, tuple, csr._read_factors))
        monkeypatch.setattr(csr, "compute_cr_pair", _recorded(plain, tuple, csr.compute_cr_pair))
        instances = [demo_matrix()] + [a for a, _, _ in _tie_heavy_instances()]
        terms = 0
        for a in instances:
            reads.clear()
            x = expand(a, reduce_by_cyclicity=True)
            assert [args[2] for args in reads] == [term.nodes for term in x.terms]
            terms += len(x.terms)
        assert plain == [] and terms > 40


def test_extended_graph_matches_layered_labels():
    # The materialized extended graph and the in-place layered sweep are two
    # routes to the same labels.
    from maxplus.visualize import _layered_max_weights
    from maxplus.oracle import _max_weight_labels, build_extended_graph

    rng = random.Random(211)
    for _ in range(20):
        nv = rng.randint(2, 6)
        ell = rng.randint(1, 4)
        arcs = []
        out_adj = [[] for _ in range(nv)]
        in_adj = [[] for _ in range(nv)]
        for u in range(nv):
            for v in range(nv):
                if rng.random() < 0.5:
                    w = rng.randint(-6, 0)
                    arcs.append((u, v, w))
                    out_adj[u].append((v, w))
                    in_adj[v].append((u, w))
        source = rng.randrange(nv)
        forward = build_extended_graph(nv, arcs, ell)
        assert forward.arc_count == ell * len(arcs)
        got = _layered_max_weights(nv, ell, out_adj.__getitem__, source)
        want = _max_weight_labels(forward, forward.node_id(source, 0))
        assert got == want
        backward = build_extended_graph(nv, arcs, ell, reverse=True)
        got_b = _layered_max_weights(nv, ell, in_adj.__getitem__, source, backward=True)
        want_b = _max_weight_labels(backward, backward.node_id(source, 0))
        assert got_b == want_b


def test_concurrent_expansions_agree():
    # Everything is immutable after construction, so parallel expansions of
    # the same matrix must not interfere.
    from concurrent.futures import ThreadPoolExecutor

    a = demo_matrix()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: expand(a).evaluate(205), range(4)))
    want = matrix_power(a, 205)
    assert all(r == want for r in results)


def test_term_rates_weakly_decreasing_enforced():
    x = expand(demo_matrix())
    with pytest.raises(ValueError, match="rates"):
        CsrExpansion(n=10, terms=(x.terms[2], x.terms[0]))


def test_terms_must_fit_the_order():
    # A term of another order would evaluate to entries outside the result.
    term = expand(demo_matrix()).terms[0]
    with pytest.raises(DimensionMismatchError, match="order"):
        CsrExpansion(n=2, terms=(term,))
    stray = dataclasses.replace(term, nodes=term.nodes + (10,), scaling=term.scaling + (0,))
    with pytest.raises(ValueError, match="node ids"):
        CsrExpansion(n=10, terms=(stray,))


def test_evaluate_rejects_negative_and_bool_exponents():
    # matrix_power rejects the same exponents with the same error.
    x = expand(demo_matrix())
    for t in (-1, True, False):
        with pytest.raises(ValueError, match="nonnegative integer"):
            x.evaluate(t)


def _term_sum(x, t):
    """The sum over terms of t*rate + C S^t R, by plain matrix products."""
    out = {}
    for term in x.terms:
        product = matrix_mul(matrix_mul(term.C, matrix_power(term.S, t)), term.R)
        for key, v in product.entries.items():
            cand = v + t * term.rate
            if key not in out or cand > out[key]:
                out[key] = cand
    return TropicalMatrix(x.n, x.n, out)


def _guard_edge_expansion(c_extreme, r_extreme):
    # n = 64, scale 3 (from the rate 7/3): C entries at +-c_extreme/3 and R
    # entries at +-r_extreme/3 scale to +-c_extreme and +-r_extreme, so
    # B = max |C| + max |R| is c_extreme + r_extreme.  The other
    # entries are small, some of them thirds.  The first two terms share a
    # rate, so their factors stack into one class.
    rng = random.Random(c_extreme + r_extreme)
    n = 64

    def factor(rows, cols, extreme):
        entries = {
            (i, j): Fraction(rng.randint(-30, 30), rng.choice((1, 3)))
            for i in range(rows)
            for j in range(cols)
            if rng.random() < 0.4
        }
        entries[(0, 0)] = Fraction(extreme, 3)
        entries[(rows - 1, cols - 1)] = Fraction(-extreme, 3)
        return TropicalMatrix(rows, cols, entries)

    groups = ((Fraction(7, 3), (0, 1, 2)), (Fraction(7, 3), (5, 6)), (-2, (3, 4)))
    terms = []
    for group, (rate, nodes) in enumerate(groups, start=1):
        circuit = CircuitRecord(nodes, rate * len(nodes))
        terms.append(
            CsrTerm(
                rate=rate,
                C=factor(n, len(nodes), c_extreme),
                S=build_s(circuit),
                R=factor(len(nodes), n, r_extreme),
                circuit=circuit,
                group=group,
                nodes=nodes,
                scaling=(0,) * len(nodes),
            )
        )
    return CsrExpansion(n=n, terms=tuple(terms))


def _list_twin(x, t):
    """evaluate(t) by ``_accumulate_python``, the list form of the stacked product.

    Each rate class runs on its columns of the stacked pair, read back from
    the kernel arrays as (index, int) lists, with its own shift t * rate,
    and the sum leaves the domain through ``unscaled``.
    """
    scale, rates, classes, _, succ, bottom, c, r = x._prepared
    rows = [[(j, v) for j, v in enumerate(row) if v != bottom] for row in r.tolist()]
    cols = [[(i, v) for i, v in enumerate(col) if v != bottom] for col in c.T.tolist()]
    acc = {}
    for k, srate in enumerate(rates):
        own = [col if cls == k else [] for col, cls in zip(cols, classes.tolist())]
        x._accumulate_python((succ, own, rows), t, t * srate, acc)
    return TropicalMatrix(x.n, x.n, {key: unscaled(v, scale) for key, v in acc.items()})


def _checked_bound(x):
    """(B, L) from the terms: B = max |C| + max |R| of the scaled entries, L rate classes.

    Checks the stacked pair's B, and that its arrays are int64 while the
    kernel's bound 2L * B is below 2^59 and object with the bottom at
    -4 * 2L * B from there on.
    """
    scale, _, _, big, _, bottom, c, r = x._prepared
    want = sum(
        max(abs(scaled_int(v, scale)) for term in x.terms for v in getattr(term, f).entries.values())
        for f in "CR"
    )
    classes = len({term.rate for term in x.terms})
    bound = 2 * classes * want
    assert big == want
    assert c.dtype == r.dtype == (np.int64 if bound < 1 << 59 else object)
    assert bottom == (-(1 << 61) if bound < 1 << 59 else -4 * bound)
    return big, classes


def _run_count(x, t):
    """How many runs of rate classes the stacked product at t splits into."""
    _, corrections, runs = x._accumulate_numpy(t)
    assert (runs is None) == (len(corrections) == 1)
    return len(corrections)


def _alone(x, t):
    """Each term's own sum (its entries with the shift t * rate), in term order."""
    return [_term_sum(CsrExpansion(n=x.n, terms=(term,)), t).entries for term in x.terms]


def _agrees(x, t):
    """evaluate(t) is the term sum, values and types, and the list twin agrees."""
    got = x.evaluate(t)
    assert _typed(got) == _typed(_term_sum(x, t))
    assert _typed(_list_twin(x, t)) == _typed(got)
    return got.entries


@pytest.mark.parametrize(
    "c_extreme, r_extreme, dtype",
    [
        (1 << 58, (1 << 58) - 1, object),
        (1 << 58, 1 << 58, object),
        (1 << 56, (1 << 56) - 1, np.int64),
        (1 << 56, 1 << 56, object),
    ],
    ids=["at-edge", "above", "kernel-edge", "kernel-above"],
)
def test_evaluate_class_bound_edge(monkeypatch, c_extreme, r_extreme, dtype):
    # Every term enters one stacked pair, which the kernel bounds by 2L * B
    # for L rate classes (B = max |C| + max |R|): int64 below 2^59, object
    # from 2^59 on.  Here L = 2 and B = c_extreme + r_extreme: the first two
    # cases, B = 2^59 - 1 and 2^59 on either side of one product's int64
    # bound, are object; the last two put 4B at 2^59 - 4 and 2^59.  On every
    # side the result is exact, and each evaluate runs one stacked product.
    x = _guard_edge_expansion(c_extreme, r_extreme)
    _, rates, classes, big, _, _, c, r = x._prepared
    assert (big, len(rates), classes.tolist()) == (c_extreme + r_extreme, 2, [0] * 5 + [1] * 2)
    assert _checked_bound(x) == (big, 2)
    assert c.dtype == r.dtype == np.dtype(dtype)
    calls = []
    real = CsrExpansion._accumulate_numpy

    def counted(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(CsrExpansion, "_accumulate_numpy", counted)
    ts = (0, 1, x.threshold, x.threshold + 1, 10**18 + 1)
    for t in ts:
        _agrees(x, t)
    assert calls == list(ts)  # one product per call


def _one_node_terms(n, factors):
    """An expansion with one term per (rate, C column, R row), each over a 1-node circuit."""
    terms = []
    for group, (rate, c, r) in enumerate(factors, start=1):
        circuit = CircuitRecord((group,), rate)
        terms.append(
            CsrTerm(
                rate=rate, C=c, S=build_s(circuit), R=r, circuit=circuit,
                group=group, nodes=(group,), scaling=(0,),
            )
        )
    return CsrExpansion(n=n, terms=tuple(terms))


def _column(n, values):
    return TropicalMatrix(n, 1, {(i, 0): v for i, v in values.items()})


def _row(n, values):
    return TropicalMatrix(1, n, {(0, j): v for j, v in values.items()})


def _merge_edge_expansion(t, offset, scale, huge):
    """Rate classes w, c and z at n = 64 where class c leads w by up to t - 1 - offset.

    In scaled units s_w = 0 and s_c = -1 (rates 0 and -1/scale), so the
    gap t * (s_w - s_c) is t.  C_w and R_w sit within a few units of their
    lowest value -a_w, -b_w, and C_c, R_c of their highest a_c, b_c, so
    class c's entry beats w's by up to a_w + b_w + a_c + b_c = t - 1 - offset: at
    offset -8 c wins some cells, ties some and loses others, at -1 it ties
    at best, and from 0 on it loses every cell w holds.  Rows 60-63 are
    bottom in C_w and C_c, and columns 60-63 in R_w, which class c fills.
    Class z (rate -10^6) holds rows 0-3 and 60-63, with entries near 10^20
    when ``huge``.
    """
    rng = random.Random(f"{t}/{offset}/{scale}/{huge}")
    n = 64
    d = t - 1 - offset
    a_w = b_w = a_c = d // 4
    b_c = d - 3 * (d // 4)

    def near(indices, extreme, inward):
        # The extreme at index 0, within 3 units of it elsewhere.
        return {k: Fraction(extreme + inward * (k and rng.randint(0, 3)), scale) for k in indices}

    def wild(indices):
        top = 10**20 if huge else 30
        return {k: Fraction(rng.randint(-top, top), scale) for k in indices}

    low = range(60)
    return _one_node_terms(
        n,
        (
            (0, _column(n, near(low, -a_w, 1)), _row(n, near(low, -b_w, 1))),
            (
                Fraction(-1, scale),
                _column(n, near(low, a_c, -1)),
                _row(n, near(range(n), b_c, -1)),
            ),
            (-10**6, _column(n, wild((0, 1, 2, 3, 60, 61, 62, 63))), _row(n, wild(range(n)))),
        ),
    )


@pytest.mark.parametrize("big_t", [False, True], ids=["t=2n^2", "t=10^18"])
@pytest.mark.parametrize("offset", [-8, -2, -1, 0, 1])
def test_array_merge_around_the_largest_lead(big_t, offset):
    # Class c's entries lead w's by up to t - 1 - offset, against their
    # rate gap t: just above, at and just below it, at both ends of the
    # exponent range, with and without a class z of entries near 10^20
    # and with scale 1 and 3 (Fraction results).  The result is the term
    # sum, values and types, and the list twin agrees.  The stacked pair
    # is int64 only at t = 2n^2 without z: at t = 10^18, B is near 5 * 10^17
    # and the kernel's bound 6B passes 2^59.
    for scale in (1, 3):
        for huge in (False, True):
            t = 10**18 if big_t else 2 * 64 * 64
            x = _merge_edge_expansion(t, offset, scale, huge)
            _checked_bound(x)
            assert (x._prepared[6].dtype == object) == (huge or big_t)
            got = _agrees(x, t)
            assert (scale == 3) == any(type(v) is Fraction for v in got.values())
            w, c, z = _alone(x, t)
            wins = {k for k in w if k in c and c[k] > w[k]}
            ties = {k for k in w if c.get(k) == w[k]}
            assert bool(wins) == (offset < -1)
            assert bool(ties) == (offset in (-8, -2, -1))
            # Class c fills the columns w leaves at the bottom (outside z's
            # rows), and z the rows that both leave there.
            cells = [(i, j) for i in range(4, 60) for j in range(60, 64)]
            assert all(k not in w and k not in z and got[k] == c[k] for k in cells)
            cells = [(i, j) for i in range(60, 64) for j in range(64)]
            assert all(k not in w and k not in c and got[k] == z[k] for k in cells)


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_array_merge_at_the_gap_cap(wide, offset):
    # Each gap t * (s_w - s_c) between adjacent rate classes is capped at
    # 2B + 1, B = max |C| + max |R|: 2^56 on int64 arrays, and 2^61 with a
    # class z of entries at 2^60, on object arrays.  Class c leads w by
    # 2^57 on every cell w holds (w's entries at -2^55, c's at 2^55), which
    # is 2B without z.  With the gap just below, at and just above the
    # cap, at t = 2n^2 (rate gap cap // 2n^2 + offset) and at t = cap +
    # offset (rate gap 1), the result is the term sum, a capped gap starts
    # a new run, c fills rows 60-63, which w leaves at the bottom, and the
    # two tie exactly where the gap is c's lead.
    n = 64
    top = 1 << 55

    def build(k):
        factors = [
            (0, _column(n, dict.fromkeys(range(60), -top)), _row(n, dict.fromkeys(range(n), -top))),
            (-k, _column(n, dict.fromkeys(range(n), top)), _row(n, dict.fromkeys(range(n), top))),
        ]
        if wide:
            factors.append((-k - 1, _column(n, {0: 1 << 60}), _row(n, {0: 1 << 60})))
        return _one_node_terms(n, factors)

    big = build(1)._prepared[3]
    assert big == (1 << 61 if wide else 1 << 56)
    cap = 2 * big + 1
    for t, k in ((2 * n * n, cap // (2 * n * n) + offset), (cap + offset, 1)):
        x = build(k)
        _checked_bound(x)
        assert x._prepared[6].dtype == (object if wide else np.int64)
        got = _agrees(x, t)
        assert _run_count(x, t) == 1 + (t * k > cap) + (wide and t > cap)
        w, c = _alone(x, t)[:2]
        assert all(got[(i, j)] == c[(i, j)] for i in range(60, n) for j in range(n))
        ties = {key for key in w if c[key] == w[key]}
        assert bool(ties) == (t * k == 4 * top)


@pytest.mark.parametrize(
    "w_low, c_top, c_dtype",
    [(10**20, 30, np.int64), (10**21, 1 << 59, object)],
    ids=["object-then-int64", "object-then-smaller-object"],
)
def test_array_merge_ignores_a_later_class_bottom(w_low, c_top, c_dtype):
    # Class w (rate 0) holds every cell, rows 0-47 near -w_low: far below
    # the bottom class c (rate -1) would have on its own (-2^61 on int64,
    # -4 * its bound on object arrays).  In the stacked pair (object, since
    # w's entries are) class c is bottom on rows 32-47 and 56-63, and its
    # bottom cells are shifted along with its finite ones; there w's value
    # stands.  On rows 0-31 c wins, and on rows 48-55, where both are near
    # the gap t, each wins some cells near the threshold.
    rng = random.Random(w_low)
    n = 64

    def small(indices, base=0):
        return {k: base + rng.randint(-30, 30) for k in indices}

    w_col = small(range(48), -w_low) | small(range(48, n))
    c_col = small([*range(32), *range(48, 56)], 2 * n * n)
    c_col[0] = c_top
    x = _one_node_terms(
        n,
        (
            (0, _column(n, w_col), _row(n, small(range(n)))),
            (-1, _column(n, c_col), _row(n, small(range(n)))),
        ),
    )
    _checked_bound(x)
    assert x._prepared[6].dtype == object
    c_term = x.terms[1]
    c_bottom, c_alone, _ = _kernel_arrays(1, 1, c_term.C, c_term.R)
    assert c_alone.dtype == np.dtype(c_dtype)
    assert max(w_col[i] for i in range(32, 48)) + 60 < c_bottom - 10**19
    for t in (0, 1, x.threshold, x.threshold + 1, 10**18 + 1):
        got = _agrees(x, t)
        w, c = _alone(x, t)
        assert all(c[(i, j)] > w[(i, j)] for i in range(32) for j in range(n))
        held = [(i, j) for i in (*range(32, 48), *range(56, n)) for j in range(n)]
        assert all(key not in c and got[key] == w[key] for key in held)
        if x.threshold <= t < 10**18:
            assert {c[(i, j)] > w[(i, j)] for i in range(48, 56) for j in range(n)} == {False, True}


def _family_instance(family, rng, n):
    if family == "dense":
        return random_matrix(rng, n, 1.0)
    if family == "wide":
        return random_irreducible_matrix(rng, n, 0.05, -10**6, 10**6)
    if family == "tie":
        return random_matrix(rng, n, 0.3, -1, 0)
    if family == "rational":
        entries = {
            (i, j): Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6)))
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.3
        }
        return TropicalMatrix(n, n, entries)
    a = random_matrix(rng, n, 0.3)
    huge = {key: v * 10**17 + rng.randint(0, 9) for key, v in a.entries.items()}
    return TropicalMatrix(n, n, huge)


FAMILIES = [("dense", 1), ("wide", 2), ("tie", 3), ("rational", 4), ("huge", 5)]


@pytest.mark.parametrize("family, seed", FAMILIES)
def test_array_merge_on_seeded_families(family, seed):
    # n = 64-80: plain and reduced expansions give the term sum (values and
    # types) near the threshold and far above it, the list twin agrees,
    # and the powers match A^t over [2 n^2, 2 n^2 + 3].
    rng = random.Random(seed)
    a = _family_instance(family, rng, rng.randint(64, 80))
    for reduce in (False, True):
        x = expand(a, reduce_by_cyclicity=reduce)
        for t in (x.threshold, x.threshold + 1, 10**12 + 3, 10**18 + 1):
            _agrees(x, t)
        report = brute_power_check(a, x, range(x.threshold, x.threshold + 4))
        assert report.match, report.counterexample


@pytest.mark.parametrize("family, seed", FAMILIES)
def test_stacked_product_below_64_on_seeded_families(family, seed):
    # n 2-63, where evaluate used to loop over sparse lists: plain and
    # reduced expansions give the term sum (values and types) at t = 0 and
    # 1, near the threshold and far above it, the list twin agrees, and the
    # powers match A^t over [2 n^2, 2 n^2 + 3].
    rng = random.Random(100 + seed)
    sizes = (rng.randint(2, 12), rng.randint(13, 30), rng.randint(31, 40 if family == "huge" else 63))
    for n in sizes:
        a = _family_instance(family, rng, n)
        for reduce in (False, True):
            x = expand(a, reduce_by_cyclicity=reduce)
            for t in (0, 1, x.threshold, x.threshold + 1, 10**12 + 3, 10**18 + 1):
                _agrees(x, t)
            report = brute_power_check(a, x, range(x.threshold, x.threshold + 4))
            assert report.match, report.counterexample


def _jittered_pair(n, big, delta, scale, seed):
    """Rate classes w (rate 0) and c (rate -delta/scale) at order n with B = big exactly.

    w's entries sit at or up to 2 units above -big/2 (C, rows 0 to n-2) and
    -(big - big // 2) (R), c's at or up to 2 below +big/2 (rows 1 to n-1)
    and +(big - big // 2), so c leads w by 2B - 4 to 2B, against their
    gap t * delta.  Row 0 is w's alone and row n-1 c's alone.
    """
    rng = random.Random(seed)
    cb, rb = big // 2, big - big // 2

    def side(indices, extreme, inward):
        return {k: Fraction(extreme + inward * (k % 3 and rng.randint(0, 2)), scale) for k in indices}

    return _one_node_terms(
        n,
        (
            (0, _column(n, side(range(n - 1), -cb, 1)), _row(n, side(range(n), -rb, 1))),
            (
                Fraction(-delta, scale),
                _column(n, side(range(1, n), cb, -1)),
                _row(n, side(range(n), rb, -1)),
            ),
        ),
    )


@pytest.mark.parametrize("big_t", [False, True], ids=["t=2n^2", "t=10^18+1"])
@pytest.mark.parametrize("excess", [2, 1, 0], ids=["2B+2", "2B+1", "2B"])
def test_split_around_the_capped_gap(big_t, excess):
    # The true gap between two adjacent classes is 2B + excess: above the
    # cap (two runs), at it (one run, exact) and below it (one run, with
    # exact ties where c's lead is 2B).  Gaps at an even t are even, so
    # the odd gap 2B + 1 is taken at t = 2n^2 + 1.  B follows from the gap:
    # t * delta = 2B + excess with delta 1 or 2.
    n = 6
    t = 10**18 + 1 if big_t else 2 * n * n + excess % 2
    delta = 1 if (t - excess) % 2 == 0 else 2
    big = (delta * t - excess) // 2
    for scale in (1, 3):
        x = _jittered_pair(n, big, delta, scale, seed=excess)
        assert _checked_bound(x) == (big, 2)
        got = _agrees(x, t)
        assert _run_count(x, t) == (2 if excess > 1 else 1)
        w, c = _alone(x, t)
        both = [key for key in w if key in c]
        assert all(w[key] >= c[key] for key in both)
        assert any(w[key] == c[key] for key in both) == (excess == 0)
        assert all(got[(0, j)] == w[(0, j)] and got[(n - 1, j)] == c[(n - 1, j)] for j in range(n))
        for t_small in (0, 1):
            _agrees(x, t_small)


def test_split_with_all_zero_factors():
    # B = 0: every finite factor entry is 0, the cap is 1 and the shifted
    # product's bound is L - 1, though the kernel's is 0.  Rates 0, -1, -3
    # and -4 give gaps of t, 2t
    # and t: one run at t = 0, two at t = 1 (only the gap 2 is capped),
    # four from t = 2 on.
    n = 5
    zeros = [
        (0, {0: 0, 1: 0}, {0: 0, 2: 0}),
        (-1, {1: 0, 2: 0}, {1: 0, 2: 0, 3: 0}),
        (-3, {3: 0}, {0: 0, 4: 0}),
        (-4, {0: 0, 4: 0}, dict.fromkeys(range(n), 0)),
    ]
    x = _one_node_terms(n, [(rate, _column(n, c), _row(n, r)) for rate, c, r in zeros])
    assert _checked_bound(x) == (0, 4) and x._prepared[6].dtype == np.int64
    for t, runs in ((0, 1), (1, 2), (2, 4), (x.threshold, 4), (10**18 + 1, 4)):
        _agrees(x, t)
        assert _run_count(x, t) == runs


def _extreme_classes(n, big, rates, seed):
    """One 1-node class per rate, entries spread over +-big/2 with max |C| + max |R| = big."""
    rng = random.Random(seed)
    cb, rb = big // 2, big - big // 2
    factors = []
    for k, rate in enumerate(rates):
        col = {i: rng.randint(-cb, cb) for i in range(n) if rng.random() < 0.7}
        row = {j: rng.randint(-rb, rb) for j in range(n) if rng.random() < 0.7}
        col[k % n], row[k % n] = (-1) ** k * cb, (-1) ** (k + 1) * rb
        factors.append((rate, _column(n, col), _row(n, row)))
    return _one_node_terms(n, factors)


@pytest.mark.parametrize(
    "big, rates, dtype, runs",
    [
        (2 * 10**20 + 12345, (0, -1, -(10**3), -(10**6)), object, (1, 3, 4)),
        ((1 << 56) - 1, (0, -1, -2 * 10**15, -4 * 10**15), np.int64, (3, 4, 4)),
        (1 << 56, (0, -1, -2 * 10**15, -4 * 10**15), object, (3, 4, 4)),
    ],
    ids=["object-near-10^20", "int64-at-the-kernel-bound", "object-past-the-kernel-bound"],
)
def test_three_or_more_runs(big, rates, dtype, runs):
    # Four classes, so the shifted product's bound is 7B + 3 and the
    # kernel's 8B: entries near 10^20 are object, B = 2^56 - 1 puts 8B at
    # 2^59 - 8, the last int64 bound, and B = 2^56 at 2^59.  At t = 2n^2,
    # 10^18 + 1 and 10^21 + 7 the gaps split the classes into the given
    # numbers of runs, and the result is the term sum.
    n = 8
    x = _extreme_classes(n, big, rates, seed=big)
    assert _checked_bound(x) == (big, 4)
    assert x._prepared[6].dtype == np.dtype(dtype)
    for t, count in zip((x.threshold, 10**18 + 1, 10**21 + 7), runs):
        _agrees(x, t)
        assert _run_count(x, t) == count
    for t in (0, 1):
        _agrees(x, t)


def test_acyclic_expansion_on_the_array_path():
    # No terms: nothing to stack, and powers from n on are bottom.
    a = TropicalMatrix(64, 64, {(0, 1): 3, (1, 2): Fraction(1, 2)})
    x = expand(a)
    assert x.terms == () and x._prepared is None
    assert x.evaluate(2) == TropicalMatrix(64, 64, {(0, 2): Fraction(7, 2)})
    assert x.evaluate(x.threshold) == TropicalMatrix.epsilon(64)


def _typed(m):
    # Shape, then every entry with the type of its value.
    return m.rows, m.cols, {key: (type(v), v) for key, v in m.entries.items()}


def _readout_instances():
    """Seeded matrices whose groups fall on both sides of the readout's gate.

    Small-integer, +-10^6 sparse irreducible, p/q and {0, -1} instances of
    n 2-14, dense [-5, 5] ones of n 16-40, two of n 64-70, and two whose
    entries are near 10^17, so that V * ell * M passes 2^59.
    """
    rng = random.Random(4747)
    for k in range(120):
        n = rng.randint(2, 14)
        family = k % 4
        if family == 0:
            yield random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
        elif family == 1:
            yield random_irreducible_matrix(rng, n, rng.choice([0.1, 0.3]), -10**6, 10**6)
        elif family == 2:
            entries = {
                (i, j): Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6)))
                for i in range(n)
                for j in range(n)
                if rng.random() < 0.7
            }
            yield TropicalMatrix(n, n, entries)
        else:
            yield random_matrix(rng, n, rng.choice([0.3, 0.5, 0.8]), -1, 0)
    for _ in range(8):
        yield random_matrix(rng, rng.randint(16, 40), 1.0)
    for _ in range(2):
        yield random_matrix(rng, rng.randint(64, 70), 1.0)
    for _ in range(2):
        a = random_matrix(rng, rng.randint(16, 24), 1.0)
        huge = {key: v * 10**17 + rng.randint(0, 9) for key, v in a.entries.items()}
        yield TropicalMatrix(a.rows, a.cols, huge)


def _recorded(log, entry, real):
    return lambda *args: log.append(entry(args)) or real(*args)


# The "cr" row of the gate table opened to every group, or shut to all.
_CR_ROWS = {"arrays": (0, math.inf, 0), "heap": (0, 0, math.inf)}


def _forced(backend, args):
    """``_read_factors(*args)`` with the "cr" gate row opened ("arrays") or shut ("heap").

    Opened, the arrays still run only where the kernel's bound keeps them
    int64; the other groups take the heap sweeps.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_ARRAY_GATES, "cr", _CR_ROWS[backend])
        return csr._read_factors(*args)


def test_array_readout_matches_heap_sweeps(monkeypatch):
    # Every (C, R) that a plain or a reduced expansion reads, once more by
    # each backend: the same matrices, values with their types, as the
    # gate's own pick.
    calls, picked, dtypes = [], [], []
    monkeypatch.setattr(csr, "_read_factors", _recorded(calls, tuple, csr._read_factors))
    for name in ("_array_labels", "_sweep_labels"):
        readout = _recorded(picked, lambda _, name=name: name, getattr(csr, name))
        monkeypatch.setattr(csr, name, readout)
    for a in _readout_instances():
        expand(a)
        expand(a, reduce_by_cyclicity=True)
    monkeypatch.undo()
    sweep = _recorded(dtypes, lambda args: args[0].dtype, csr._array_labels)
    monkeypatch.setattr(csr, "_array_labels", sweep)
    reduced = large = bounded = 0
    for args in calls:
        before = len(dtypes)
        by_arrays = [_typed(m) for m in _forced("arrays", args)]
        bounded += len(dtypes) == before  # the kernel's bound kept it off the arrays
        assert by_arrays == [_typed(m) for m in _forced("heap", args)]
        assert by_arrays == [_typed(m) for m in csr._read_factors(*args)]
        reduced += not isinstance(args[5][0][1], range)  # plain orbits are range(ell)
        large += len(args[2]) >= 64
    assert len(calls) >= 500 and 200 <= reduced <= len(calls) - 200 and large >= 2
    # The gate sent groups both ways during the expansions; the arrays are
    # int64 only, and the bound sent the groups of the 10^17 matrices to
    # the heap sweeps even with the row open.
    assert picked.count("_array_labels") >= 20 and picked.count("_sweep_labels") >= 400
    assert set(dtypes) == {np.dtype(np.int64)} and bounded >= 10, bounded


def _edge_group(v, arcs, top):
    """A zero circuit 0 -> 1 -> ... -> v - 1 -> 0 plus seeded chords of weight -top: ``arcs`` arcs."""
    entries = {(k, (k + 1) % v): 0 for k in range(v)}
    chords = [(i, j) for i in range(v) for j in range(v) if (i, j) not in entries]
    random.Random(f"edge/{v}/{arcs}").shuffle(chords)
    entries.update({key: -top for key in chords[: arcs - v]})
    return TropicalMatrix(v, v, entries)


# Arcs of a 12-node group read over 12 layers at the "cr" row's layered
# arcs (12 * 50 = 600), and of a 15-node group at its share (3 * 75 = 15^2).
_, _CR_SHARE, _CR_ARCS = _ARRAY_GATES["cr"]
_AT_ARCS = -(-_CR_ARCS // 12)
_AT_SHARE = -(-15 * 15 // _CR_SHARE)


@pytest.mark.parametrize(
    "v, arcs, top, far, dtype",
    [
        (12, _AT_ARCS, (_INT64_BOUND - 1) // 144, 1, np.int64),
        (12, _AT_ARCS, (_INT64_BOUND - 1) // 144 + 1, 1, None),
        (12, _AT_ARCS, 1, 1 << 61, np.int64),
        (12, _AT_ARCS, 1, 1, np.int64),
        (12, _AT_ARCS - 1, 1, 1, None),
        (15, _AT_SHARE, 1, 1, np.int64),
        (15, _AT_SHARE - 1, 1, 1, None),
    ],
    ids=["at-edge", "above", "far-scaling", "arcs-at", "arcs-below", "share-at", "share-below"],
)
def test_array_readout_guard_edge(monkeypatch, v, arcs, top, far, dtype):
    # One v-circuit orbit of a zero v-circuit with chords, read over v
    # layers, on both sides of each edge of the "cr" route: the row's
    # layered arcs (v * arcs) and its share of finite cells, one arc below
    # and at them; the array readout's bound V * ell * M = v^2 * top just
    # below 2^59 and at it, past which the heap sweeps run; and a scaling
    # beyond 2^59, with which the labels stay int64 and the factors leave
    # the domain through object arrays.  Both sides give the heap's factors.
    assert 15 * (_AT_SHARE - 1) >= _CR_ARCS and _CR_SHARE * (_AT_ARCS - 1) >= 12 * 12
    dtypes = []
    sweep = _recorded(dtypes, lambda args: args[0].dtype, csr._array_labels)
    monkeypatch.setattr(csr, "_array_labels", sweep)
    nodes = tuple(range(v))
    scaling = (0, far, -far) + (0,) * (v - 3)
    args = (_edge_group(v, arcs, top), scaling, nodes, v, v, [(list(nodes), range(v))])
    got = csr._read_factors(*args)
    assert dtypes == ([] if dtype is None else [np.dtype(dtype)])
    assert [_typed(m) for m in got] == [_typed(m) for m in _forced("heap", args)]


def test_array_labels_stop_at_the_step_cap():
    # A positive loop (which the readout's own check rejects first) keeps
    # raising the label: the sweep gives up after V * layers steps.
    for layers in (1, 3):
        x = np.array([[[1]], [[1]]], dtype=np.int64)
        with pytest.raises(InvariantViolationError, match="did not settle"):
            csr._array_labels(x, -(1 << 61), layers, [0])


@pytest.mark.parametrize("n, seed, ell", [(40, 5, 29), (80, 204, 39)])
def test_star_readout_gate_weighs_object_cells(monkeypatch, n, seed, ell):
    # Group 1 of a dense [-5, 5] matrix goes to the int64 array readout;
    # the same group times 10^17 (the same ell, V * ell * M past 2^59)
    # would put the kernel on object arrays, so it goes to the heap sweeps.
    a = random_matrix(random.Random(seed), n, 1.0)
    part = partition_nodes(characteristic_roots(a), n)
    group = visualize_all(a, part).group(1)
    circuit = part.quasi_critical[0]
    assert circuit.length == ell and len(group.nodes) == n
    pos = {v: k for k, v in enumerate(group.nodes)}
    orbits = [([pos[v] for v in circuit.nodes], range(ell))]
    picked = []
    for name in ("_array_labels", "_sweep_labels"):
        monkeypatch.setattr(csr, name, _recorded(picked, lambda _, name=name: name, getattr(csr, name)))
    for factor in (1, 10**17):
        a_vis = TropicalMatrix(n, n, {key: v * factor for key, v in group.matrix.entries.items()})
        scaling = tuple(v * factor for v in group.scaling)
        csr._read_factors(a_vis, scaling, group.nodes, n, ell, orbits)
    assert picked == ["_array_labels", "_sweep_labels"]


def test_readout_routing_on_workload_groups(monkeypatch):
    # Group 1 of the dense main instance (V = 80, ell = 60) takes the
    # arrays; every group of the sparse-wide and blocks instances (density
    # <= 0.3), plain and reduced, takes the heap sweeps.
    picked = []
    for name in ("_array_labels", "_sweep_labels"):
        monkeypatch.setattr(csr, name, _recorded(picked, lambda _, name=name: name, getattr(csr, name)))
    workloads = workload_module()
    main, _ = workloads.inputs(workloads.WORKLOADS["dense"], 1)
    a = parse_matrix(main.text)
    part = partition_nodes(characteristic_roots(a), a.rows)
    group, circuit = visualize_all(a, part).group(1), part.quasi_critical[0]
    assert (len(group.nodes), circuit.length) == (80, 60)
    compute_cr_pair(group.matrix, group.scaling, circuit, group.nodes, a.rows)
    assert picked == ["_array_labels"]
    for name in ("sparse-wide", "blocks"):
        for inst in workloads.inputs(workloads.WORKLOADS[name], 1):
            for reduce in (False, True):
                picked.clear()
                expand(parse_matrix(inst.text), reduce_by_cyclicity=reduce)
                assert picked and set(picked) == {"_sweep_labels"}, (name, inst.n, reduce)


def _positive_arc_group():
    """A 3-node group, visualized, then with one arc raised to +1.

    The zero 2-circuit 0 <-> 1 is its critical graph; node 2 hangs off
    node 0 by arcs of weight -5 and -1, and the raised arc 2 -> 0 leaves
    every circuit through it at weight -4.
    """
    a = TropicalMatrix(3, 3, {(0, 1): 0, (1, 0): 0, (0, 2): -5, (2, 0): -1})
    part = partition_nodes(characteristic_roots(a), 3)
    gv = visualize_all(a, part).group(1)
    assert gv.nodes == (0, 1, 2) and gv.matrix.get(2, 0) is not None
    entries = dict(gv.matrix.entries)
    entries[(2, 0)] = 1
    return part, dataclasses.replace(gv, matrix=TropicalMatrix(3, 3, entries))


@pytest.mark.parametrize("backend", ["arrays", "heap"])
def test_positive_entry_raises_on_both_entry_points(monkeypatch, backend):
    # The check on the visualized group runs in ``_read_factors``, on the
    # backend the gate picks, for plain and reduced terms alike.
    monkeypatch.setitem(_ARRAY_GATES, "cr", _CR_ROWS[backend])
    picked = []
    for name in ("_array_factors", "_sweep_labels"):
        monkeypatch.setattr(csr, name, _recorded(picked, lambda _, name=name: name, getattr(csr, name)))
    part, gv = _positive_arc_group()
    with pytest.raises(InvariantViolationError, match="not visualized"):
        compute_cr_pair(gv.matrix, gv.scaling, part.quasi_critical[0], gv.nodes, 3)
    with pytest.raises(InvariantViolationError, match="not visualized"):
        reduce_term(part, gv)
    want = "_array_factors" if backend == "arrays" else "_sweep_labels"
    assert picked == [want, want]


def _power_check_instance(family, rng):
    if family == "dense":
        return random_matrix(rng, rng.randint(64, 80), 1.0)
    if family == "wide":
        return random_irreducible_matrix(rng, 60, 0.05, -10**6, 10**6)
    n = 30
    entries = {
        (i, j): Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6)))
        for i in range(n)
        for j in range(n)
    }
    return TropicalMatrix(n, n, entries)


@pytest.mark.parametrize("family, seed", [("dense", 7), ("wide", 60), ("rational", 30)])
def test_power_check_at_real_sizes(family, seed):
    # evaluate == A^t over [2 n^2, 2 n^2 + 20] well beyond the small-n sweeps:
    # dense [-5, 5] at n 64-80, +-10^6 irreducible sparse at n = 60 and p/q
    # entries at n = 30, each one stacked product on int64 arrays.
    a = _power_check_instance(family, random.Random(seed))
    x = expand(a)
    assert x._prepared[6].dtype == np.int64
    report = brute_power_check(a, x, range(x.threshold, x.threshold + 21))
    assert report.match, report.counterexample


def test_replaced_expansion_evaluates_its_own_terms():
    x = expand(demo_matrix())
    first = dataclasses.replace(x.terms[0], rate=x.terms[0].rate + 1)
    bumped = dataclasses.replace(x, terms=(first,) + x.terms[1:])
    t = x.threshold + 1
    assert bumped.evaluate(t) != x.evaluate(t)
    assert bumped.evaluate(t) == _term_sum(bumped, t)
    assert x.evaluate(t) == _term_sum(x, t)


@pytest.mark.parametrize("n, density", [(10, None), (64, 0.25)])
def test_evaluate_does_no_t_independent_work(monkeypatch, n, density):
    # Scaling, the guard and the permutations belong to construction.
    a = demo_matrix() if density is None else random_matrix(random.Random(6464), n, density)
    x = expand(a)
    calls = {}
    for name in ("common_scale", "scaled_int", "_successor_of"):
        real = getattr(csr, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(csr, name, counted)
    for t in (x.threshold, 10**18):
        x.evaluate(t)
    assert calls == {}
    dataclasses.replace(x)
    assert set(calls) == {"common_scale", "scaled_int", "_successor_of"}


@pytest.mark.parametrize("n, density", [(10, None), (64, 0.25)])
def test_evaluate_adopts_its_normalized_entries(monkeypatch, n, density):
    # The result's values come out of ``_kernel_result`` already
    # normalized, so building the matrix must not normalize them again.
    import maxplus.tropical as tropical

    a = demo_matrix() if density is None else random_matrix(random.Random(6464), n, density)
    x = expand(a)
    assert x._prepared[6].dtype == np.int64  # one stacked product at both sizes
    t = x.threshold + 1
    want = _term_sum(x, t)
    calls = []
    real = tropical.as_value

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(tropical, "as_value", counted)
    got = x.evaluate(t)
    assert calls == []
    assert got == want
    assert all(type(v) is int or v.denominator > 1 for v in got.entries.values())
