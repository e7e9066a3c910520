import random
from fractions import Fraction

import pytest

from maxplus import CsrExpansion, TropicalMatrix, expand
from maxplus.oracle import (
    OracleReport,
    bellman_ford_visualization,
    brute_chi,
    brute_mmc,
    brute_power_check,
    elementary_circuits,
    mod_length_closure,
    naive_matrix_power,
    random_matrix,
)
from fixtures import (
    DEMO_EPS_MULTIPLICITY,
    DEMO_MMCS_LENGTHS,
    DEMO_MULTIPLICITIES,
    DEMO_ROOTS,
    E,
    demo_matrix,
    tm,
)


class TestBruteChi:
    def test_demo_at_seven(self):
        assert brute_chi(demo_matrix(), 7) == 72

    def test_one_by_one(self):
        assert brute_chi(tm([[3]]), 5) == 5
        assert brute_chi(tm([[3]]), 1) == 3

    def test_epsilon_matrix_gives_diagonal(self):
        lam = Fraction(7, 3)
        assert brute_chi(TropicalMatrix.epsilon(2), lam) == 2 * lam

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_chi(TropicalMatrix.epsilon(13), 0)


class TestEnumeration:
    def test_demo_circuits(self):
        circuits = elementary_circuits(demo_matrix())
        assert len(circuits) == 9
        nodes = {c.nodes for c in circuits}
        assert (0, 1) in nodes and (3,) in nodes and (8, 9) in nodes
        assert (0, 1, 3, 5, 7, 8, 6, 4, 2) in nodes

    def test_acyclic(self):
        assert elementary_circuits(tm([[E, 1], [E, E]])) == []


class TestBruteMmc:
    def test_demo_envelope(self):
        bm = brute_mmc(demo_matrix())
        assert bm.roots == DEMO_ROOTS
        assert bm.multiplicities == DEMO_MULTIPLICITIES
        assert bm.epsilon_multiplicity == DEMO_EPS_MULTIPLICITY
        assert bm.mmcs_lengths == DEMO_MMCS_LENGTHS

    def test_demo_best_weights_by_length(self):
        bm = brute_mmc(demo_matrix())
        best = {k: mc.total_weight for k, mc in bm.best_by_length.items()}
        for k, w in [(0, 0), (2, 16), (3, 23), (4, 29), (5, 33), (8, 42), (9, 42)]:
            assert best[k] == w
        # no family of node-disjoint circuits covers all ten nodes: node 10
        # only sits on the (9,10) circuit, and removing {9,10} leaves
        # {1..8} without a disjoint circuit cover
        assert 10 not in best

    def test_self_loop(self):
        bm = brute_mmc(tm([[4]]))
        assert bm.best_by_length[1].total_weight == 4
        assert bm.roots == (4,)

    def test_acyclic_has_only_the_empty_family(self):
        bm = brute_mmc(tm([[E, 2], [E, E]]))
        assert set(bm.best_by_length) == {0}
        assert bm.roots == ()
        assert bm.epsilon_multiplicity == 2

    def test_chi_at_matches_permutation_sweep(self):
        rng = random.Random(113)
        for _ in range(40):
            n = rng.randint(2, 5)
            a = random_matrix(rng, n, rng.choice([0.4, 0.8]))
            bm = brute_mmc(a)
            lam = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            assert bm.chi_at(lam) == brute_chi(a, lam)


class TestBrutePowerCheck:
    def test_demo_matches(self):
        a = demo_matrix()
        report = brute_power_check(a, expand(a), range(200, 206))
        assert report.match
        assert report.counterexample is None

    def test_one_by_one(self):
        a = tm([[5]])
        report = brute_power_check(a, expand(a), range(2, 11))
        assert report.match

    def test_corrupted_rate_is_caught_at_smallest_t(self):
        a = demo_matrix()
        x = expand(a)
        bad_terms = (
            CsrTerm_with_rate(x.terms[0], x.terms[0].rate + 1),
        ) + x.terms[1:]
        bad = CsrExpansion(n=10, terms=bad_terms)
        report = brute_power_check(a, bad, range(200, 206), seed=42)
        assert not report.match
        assert report.seed == 42
        assert report.counterexample[2] == 200  # smallest t in the range

    def test_empty_range(self):
        a = tm([[5]])
        assert brute_power_check(a, expand(a), range(0)).match


def _naive_report(a, x, ts, seed):
    # The report brute_power_check should give, from the twin powers and a
    # row-major scan for the first differing entry.
    ts = sorted(set(ts))
    instance = f"n={a.rows}, m={a.finite_count}, t in [{ts[0]}..{ts[-1]}]"
    for t in ts:
        want, got = naive_matrix_power(a, t), x.evaluate(t)
        for i in range(a.rows):
            for j in range(a.cols):
                if want.get(i, j) != got.get(i, j):
                    bad = (i, j, t, want.get(i, j), got.get(i, j))
                    return OracleReport("power-check", instance, False, bad, seed)
    return OracleReport("power-check", instance, True, seed=seed)


def test_power_check_report_matches_naive_powers():
    # Windows from t = 0 (the identity), around the threshold, where the
    # expansion may still differ, and unsorted with repeats; small-integer,
    # p/q and near-10^17 entries (object arrays in the kernel).
    rng = random.Random(127)
    mismatches = matches = 0
    for k in range(45):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
        if k % 3 == 1:
            entries = {key: Fraction(v, rng.choice((1, 2, 3))) for key, v in a.entries.items()}
            a = TropicalMatrix(n, n, entries)
        elif k % 3 == 2:
            entries = {key: v * 10**17 + rng.randint(0, 9) for key, v in a.entries.items()}
            a = TropicalMatrix(n, n, entries)
        x = expand(a)
        for ts in (range(0, 6), range(max(0, x.threshold - 4), x.threshold + 3), [9, 2, 9, 5]):
            report = brute_power_check(a, x, ts, seed=k)
            want = _naive_report(a, x, ts, k)
            assert report == want
            if not report.match:
                types = [type(v) for v in want.counterexample]
                assert [type(v) for v in report.counterexample] == types
            mismatches += not report.match
            matches += report.match
    assert mismatches >= 20 and matches >= 45


def CsrTerm_with_rate(term, rate):
    from dataclasses import replace

    return replace(term, rate=rate)


def test_bellman_ford_visualization_rejects_positive_circuits():
    with pytest.raises(ValueError):
        bellman_ford_visualization(tm([[1]]), 0)


def test_mod_length_closure_diagonal():
    closure = mod_length_closure(tm([[E, 0], [0, E]]), 2)
    assert closure.get(0, 0) == 0 and closure.get(1, 1) == 0
    assert closure.get(0, 1) is None
