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
from maxplus.csr import _perm_power
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
    # n >= 64 with small entries routes the per-term products through the
    # int64 array path; the small-n sweeps never reach it.
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
    # closure; and the groups here are small enough for the gate to keep
    # their C/R factors on the layered sweeps.  Every module binding of the
    # kernel is counted.
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
    # entries at +-r_extreme/3 scale to +-c_extreme and +-r_extreme, so the
    # kernel bound of each rate class is c_extreme + r_extreme.  The other
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


def _backend_forms(x):
    """Each stacked rate class of ``x._prepared``, at n >= 64, in both accumulators' forms.

    Yields (scaled rate, array factors, list factors): the kernel arrays
    of ``_accumulate_numpy`` that ``_prepare`` built, and the same stacked
    class as the (index, int) lists of ``_accumulate_python``.
    """
    _, merge, classes = x._prepared
    assert merge is not None
    for srate, arrays in classes:
        succ, bottom, cols, rows = arrays
        col_lists = [[(i, v) for i, v in enumerate(c) if v != bottom] for c in cols.T.tolist()]
        row_lists = [[(j, v) for j, v in enumerate(r) if v != bottom] for r in rows.tolist()]
        yield srate, arrays, (succ, col_lists, row_lists)


def _merged(x, t):
    """Each finite cell's (winning class, scaled value) once every class is merged.

    The merge arrays start as ``evaluate`` starts them; a won cell's value
    is its entry in the winning class's frame plus that class's shift.
    """
    _, (dtype, bottom), classes = x._prepared
    val = np.full((x.n, x.n), bottom, dtype=dtype)
    win = np.full((x.n, x.n), -1, dtype=np.intp)
    for c in range(len(classes)):
        x._accumulate_numpy(c, t, val, win)
    assert ((val != bottom) == (win >= 0)).all()
    shifts = [t * srate for srate, _ in classes]
    return {
        (i, j): (w, v + shifts[w])
        for i, (wins, vals) in enumerate(zip(win.tolist(), val.tolist()))
        for j, (w, v) in enumerate(zip(wins, vals))
        if w >= 0
    }


def _accumulators_agree(x, t):
    """The array merge and the list accumulator give the same scaled values at t."""
    by_python = {}
    for srate, _, lists in _backend_forms(x):
        x._accumulate_python(lists, t, t * srate, by_python)
    merged = _merged(x, t)
    assert {key: v for key, (_, v) in merged.items()} == by_python
    return merged


@pytest.mark.parametrize(
    "c_extreme, r_extreme, dtype",
    [(1 << 58, (1 << 58) - 1, np.int64), (1 << 58, 1 << 58, object)],
    ids=["at-edge", "above"],
)
def test_evaluate_class_bound_edge(monkeypatch, c_extreme, r_extreme, dtype):
    # At n >= 64 each rate class is one kernel product, on int64 arrays
    # while the class's bound is below 2^59 and on object arrays from 2^59
    # on; on both sides the result is exact.
    x = _guard_edge_expansion(c_extreme, r_extreme)
    assert [(len(f[0]), f[2].dtype) for _, f in x._prepared[2]] == [(5, dtype), (2, dtype)]
    # The list accumulator agrees on the same stacked classes.
    for t in (x.threshold, x.threshold + 1, 10**18 + 1):
        _accumulators_agree(x, t)
    calls = []
    real = CsrExpansion._accumulate_numpy

    def counted(self, c, *args):
        calls.append(self._prepared[2][c][1][2].dtype)
        return real(self, c, *args)

    monkeypatch.setattr(CsrExpansion, "_accumulate_numpy", counted)
    for t in (x.threshold, x.threshold + 1, 10**18 + 1):
        assert x.evaluate(t) == _term_sum(x, t)
    assert calls == [np.dtype(dtype)] * 6  # one product per rate class and call


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
    class c's entry beats w's by up to B_w + B_c = t - 1 - offset (their
    bounds): at offset -8 c wins some cells, ties some and loses others,
    at -1 it ties at best, and from 0 on it loses every cell w holds.
    Rows 60-63 are bottom in C_w and C_c, and columns 60-63 in R_w, which
    class c fills.  Class z (rate -10^6) holds rows 0-3 and 60-63, with
    entries near 10^20 (an object class) when ``huge``.
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
    # The array merge lets class c take a cell that class w holds where
    # c's entry leads w's by more than t * (s_w - s_c).  With the largest
    # lead just above, at and just below that gap, at both ends of the
    # exponent range, with int64 and mixed int64 / object classes and with
    # scale 1 and 3 (Fraction results), the result is the term sum, values
    # and types, and the list accumulator agrees.
    for scale in (1, 3):
        for huge in (False, True):
            t = 10**18 if big_t else 2 * 64 * 64
            x = _merge_edge_expansion(t, offset, scale, huge)
            dtypes = [f[2].dtype for _, f in x._prepared[2]]
            assert dtypes == [np.int64, np.int64, object if huge else np.int64]
            assert x._prepared[1][0] == (object if huge else np.int64)
            got = x.evaluate(t)
            assert _typed(got) == _typed(_term_sum(x, t))
            assert (scale == 3) == any(type(v) is Fraction for v in got.entries.values())
            merged = _accumulators_agree(x, t)
            alone = [CsrExpansion(n=64, terms=(term,)) for term in x.terms[:2]]
            w, c = (_term_sum(y, t).entries for y in alone)
            wins = {k for k, (cls, _) in merged.items() if cls == 1 and k in w}
            ties = {k for k in w if c.get(k) == w[k]}
            assert bool(wins) == (offset < -1)
            assert bool(ties) == (offset in (-8, -2, -1))
            # Class c fills the columns w leaves at the bottom (outside z's
            # rows), and z the rows that both leave there.
            assert all(merged[(i, j)][0] == 1 for i in range(4, 60) for j in range(60, 64))
            assert all(merged[(i, j)][0] == 2 for i in range(60, 64) for j in range(64))


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_array_merge_at_the_gap_cap(wide, offset):
    # The merge caps the gap t * (s_w - s_c) at -bottom of its arrays:
    # 2^61 on int64, 4 * the largest class bound on object arrays (here
    # class z's 2^61).  Class c leads w by 2^59 on every cell w holds (w's
    # entries at -2^57, c's at 2^57), far below the cap.  With the gap
    # just below, at and just above the cap, at t = 2n^2 (rate gap
    # cap / 2n^2 + offset) and at t = cap + offset (rate gap 1), w keeps
    # every cell it holds, c fills rows 60-63, which w leaves at the
    # bottom, and the result is the term sum.
    n = 64
    top = 1 << 57

    def build(k):
        factors = [
            (0, _column(n, dict.fromkeys(range(60), -top)), _row(n, dict.fromkeys(range(n), -top))),
            (-k, _column(n, dict.fromkeys(range(n), top)), _row(n, dict.fromkeys(range(n), top))),
        ]
        if wide:
            factors.append((-k - 1, _column(n, {0: 1 << 60}), _row(n, {0: 1 << 60})))
        return _one_node_terms(n, factors)

    cap = -build(1)._prepared[1][1]
    assert cap == (1 << 63 if wide else 1 << 61)
    for t, k in ((2 * n * n, cap // (2 * n * n) + offset), (cap + offset, 1)):
        x = build(k)
        assert x._prepared[1][0] == (object if wide else np.int64)
        assert _typed(x.evaluate(t)) == _typed(_term_sum(x, t))
        merged = _accumulators_agree(x, t)
        assert {key: w for key, (w, _) in merged.items()} == {
            (i, j): int(i >= 60) for i in range(n) for j in range(n)
        }


@pytest.mark.parametrize(
    "w_low, c_top, c_dtype",
    [(10**20, 30, np.int64), (10**21, 1 << 59, object)],
    ids=["object-then-int64", "object-then-smaller-object"],
)
def test_array_merge_ignores_a_later_class_bottom(w_low, c_top, c_dtype):
    # Each class's product keeps its own bottom: -2^61 on int64 arrays and
    # -4 * its bound on object arrays.  Class w (rate 0, an object class)
    # holds every cell, rows 0-47 near -w_low, far below class c's bottom;
    # class c (rate -1; int64, or object with a bound over 4 times smaller
    # than w's) is bottom on rows 32-47 and 56-63.  There w's value stands:
    # c's bottom never competes as a finite value.  On rows 0-31 c wins,
    # and on rows 48-55, where both are near the gap t, each wins some
    # cells near the threshold.
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
    (_, w_factors), (_, c_factors) = x._prepared[2]
    assert [w_factors[2].dtype, c_factors[2].dtype] == [object, c_dtype]
    assert max(w_col[i] for i in range(32, 48)) + 60 < c_factors[1] - 10**19
    for t in (x.threshold, x.threshold + 1, 10**18 + 1):
        assert _typed(x.evaluate(t)) == _typed(_term_sum(x, t))
        merged = _accumulators_agree(x, t)
        held = [[merged[(i, j)][0] for j in range(n)] for i in range(n)]
        assert all(held[i] == [1] * n for i in range(32))
        assert all(held[i] == [0] * n for i in range(32, 48))
        assert all(held[i] == [0] * n for i in range(56, n))
        if t < 10**18:
            assert {w for i in range(48, 56) for w in held[i]} == {0, 1}


def _array_path_instance(family, rng):
    n = rng.randint(64, 80)
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


@pytest.mark.parametrize(
    "family, seed", [("dense", 1), ("wide", 2), ("tie", 3), ("rational", 4), ("huge", 5)]
)
def test_array_merge_on_seeded_families(family, seed):
    # n = 64-80, so evaluate merges its rate classes on arrays: plain and
    # reduced expansions give the term sum (values and types) near the
    # threshold and far above it, the list accumulator agrees on the same
    # stacked classes, and the powers match A^t over [2 n^2, 2 n^2 + 3].
    a = _array_path_instance(family, random.Random(seed))
    for reduce in (False, True):
        x = expand(a, reduce_by_cyclicity=reduce)
        assert x._prepared[1] is not None
        for t in (x.threshold, x.threshold + 1, 10**12 + 3, 10**18 + 1):
            assert _typed(x.evaluate(t)) == _typed(_term_sum(x, t))
            _accumulators_agree(x, t)
        report = brute_power_check(a, x, range(x.threshold, x.threshold + 4))
        assert report.match, report.counterexample


def test_acyclic_expansion_on_the_array_path():
    # No terms at n >= 64: nothing to merge, and powers from n on are bottom.
    a = TropicalMatrix(64, 64, {(0, 1): 3, (1, 2): Fraction(1, 2)})
    x = expand(a)
    assert x.terms == () and x._prepared[2] == []
    assert x.evaluate(2) == TropicalMatrix(64, 64, {(0, 2): Fraction(7, 2)})
    assert x.evaluate(x.threshold) == TropicalMatrix.epsilon(64)


def _typed(m):
    # Shape, then every entry with the type of its value.
    return m.rows, m.cols, {key: (type(v), v) for key, v in m.entries.items()}


def _readout_instances():
    """Seeded matrices whose groups fall on both sides of the star readout's gate.

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


def _forced(readout, args):
    """``_read_factors(*args)`` with its gate forced to "star" or "sweep"."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csr, "_STAR_CELLS_PER_ARC", 1 << 200 if readout == "star" else 0)
        return csr._read_factors(*args)


def test_star_readout_matches_layered_sweeps(monkeypatch):
    # Every (C, R) that a plain or a reduced expansion reads, once more by
    # each readout: the same matrices, values with their types.
    calls, picked, dtypes = [], [], []
    monkeypatch.setattr(csr, "_read_factors", _recorded(calls, tuple, csr._read_factors))
    for name in ("_star_labels", "_sweep_labels"):
        readout = _recorded(picked, lambda _, name=name: name, getattr(csr, name))
        monkeypatch.setattr(csr, name, readout)
    for a in _readout_instances():
        expand(a)
        expand(a, reduce_by_cyclicity=True)
    monkeypatch.undo()
    closure = _recorded(dtypes, lambda args: args[0].dtype, csr._max_plus_closure)
    monkeypatch.setattr(csr, "_max_plus_closure", closure)
    reduced = large = 0
    for args in calls:
        by_star = _forced("star", args)
        by_sweep = _forced("sweep", args)
        assert [_typed(m) for m in by_star] == [_typed(m) for m in by_sweep]
        reduced += not isinstance(args[5][0][1], range)  # plain orbits are range(ell)
        large += len(args[2]) >= 64
    assert len(calls) >= 500 and 200 <= reduced <= len(calls) - 200 and large >= 2
    # The gate sent groups both ways during the expansions.
    assert picked.count("_star_labels") >= 20 and picked.count("_sweep_labels") >= 400
    assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize(
    "top, dtype", [((1 << 55) - 1, np.int64), (1 << 55, object)], ids=["at-edge", "above"]
)
def test_star_readout_guard_edge(monkeypatch, top, dtype):
    # A zero 4-circuit with chords of weight -top: the star readout's bound
    # V * ell * M = 16 * top is 2^59 - 16, then 2^59.
    dtypes = []
    real = csr._max_plus_closure

    def spied(x, bottom):
        dtypes.append(x.dtype)
        return real(x, bottom)

    monkeypatch.setattr(csr, "_max_plus_closure", spied)
    entries = {(k, (k + 1) % 4): 0 for k in range(4)}
    entries.update({(0, 2): -top, (3, 1): -top, (2, 2): -top})
    orbits = [([0, 1, 2, 3], range(4))]
    args = (TropicalMatrix(4, 4, entries), (0, 1, -1, 0), (0, 1, 2, 3), 4, 4, orbits)
    by_star = _forced("star", args)
    assert dtypes == [np.dtype(dtype)]
    assert [_typed(m) for m in by_star] == [_typed(m) for m in _forced("sweep", args)]


@pytest.mark.parametrize("n, seed, ell", [(40, 5, 29), (80, 204, 39)])
def test_star_readout_gate_weighs_object_cells(monkeypatch, n, seed, ell):
    # Group 1 of a dense [-5, 5] matrix goes to the int64 star; the same
    # group times 10^17 (the same ell, V * ell * M past 2^59) would put the
    # star on object arrays, several times slower than the sweeps there.
    a = random_matrix(random.Random(seed), n, 1.0)
    part = partition_nodes(characteristic_roots(a), n)
    group = visualize_all(a, part).group(1)
    circuit = part.quasi_critical[0]
    assert circuit.length == ell and len(group.nodes) == n
    pos = {v: k for k, v in enumerate(group.nodes)}
    orbits = [([pos[v] for v in circuit.nodes], range(ell))]
    picked = []
    for name in ("_star_labels", "_sweep_labels"):
        monkeypatch.setattr(csr, name, _recorded(picked, lambda _, name=name: name, getattr(csr, name)))
    for factor in (1, 10**17):
        a_vis = TropicalMatrix(n, n, {key: v * factor for key, v in group.matrix.entries.items()})
        scaling = tuple(v * factor for v in group.scaling)
        csr._read_factors(a_vis, scaling, group.nodes, n, ell, orbits)
    assert picked == ["_star_labels", "_sweep_labels"]


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
    # dense [-5, 5] at n 64-80 (evaluate on int64 arrays), +-10^6
    # irreducible sparse at n = 60 and p/q entries at n = 30.
    a = _power_check_instance(family, random.Random(seed))
    x = expand(a)
    assert (x._prepared[1] is not None) == (family == "dense")
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
    # The result's values come out of ``unscaled`` (lists) or
    # ``_kernel_result`` (arrays) already normalized, so building the
    # matrix must not normalize them again.
    import maxplus.tropical as tropical

    a = demo_matrix() if density is None else random_matrix(random.Random(6464), n, density)
    x = expand(a)
    assert (x._prepared[1] is not None) == (n >= 64)  # the list path, then the arrays
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
