"""Acceptance suite: one check per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Three golden-table checks are marked as strict expected
failures: the required tables contain entries that contradict the
exhaustive oracles (and, for the factor tables, the construction's own
defining quantities).  Those assertions are kept exactly as required, so
they fail; the verified variants next to them pass.  The analysis lives in
the repository notes, entry by entry, and in the comments here.
"""

import random
import time
from fractions import Fraction

import pytest

from maxplus import (
    TropicalMatrix,
    TropicalScalar,
    build_graph,
    characteristic_roots,
    chi_eval,
    expand,
    karp_max_cycle_mean,
    matrix_mul,
    matrix_power,
    partition_nodes,
    principal_eigenvectors,
    visualize_all,
)
from maxplus.oracle import (
    brute_chi,
    brute_mmc,
    brute_power_check,
    random_irreducible_matrix,
    random_matrix,
)
from fixtures import (
    DEMO_A1_ROWS,
    DEMO_A2_ROWS,
    DEMO_A3_ROWS,
    DEMO_C1_PRINTED_ROWS,
    DEMO_C1_VERIFIED_ROWS,
    DEMO_C2_ROWS,
    DEMO_C3_ROWS,
    DEMO_D1,
    DEMO_D2,
    DEMO_D3,
    DEMO_GROUPS,
    DEMO_MMCS_CIRCUITS,
    DEMO_QUASI_CIRCUITS,
    DEMO_R1_PRINTED_ROWS,
    DEMO_R1_VERIFIED_ROWS,
    DEMO_R2_ROWS,
    DEMO_R3_ROWS,
    DEMO_RATES,
    DEMO_ROOTS,
    DEMO_S1_ROWS,
    DEMO_S2_ROWS,
    DEMO_S3_ROWS,
    demo_matrix,
    tm,
)


def _report(criterion, ok, detail):
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_golden_roots():
    started = time.perf_counter()
    mm = characteristic_roots(demo_matrix())
    oracle = brute_mmc(demo_matrix())
    elapsed = time.perf_counter() - started
    ok = (
        mm.roots == DEMO_ROOTS == oracle.roots
        and mm.multiplicities == oracle.multiplicities
        and elapsed < 1.0
    )
    assert _report(
        1, ok, f"golden roots {mm.roots}, oracle-confirmed multiplicities, {elapsed:.3f}s"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "required multiplicity table (2,1,1,1,3,2) with bottom-multiplicity 0 "
        "contradicts the exhaustive oracle: node 10 lies only on the (9,10) "
        "circuit and {1..8} has no disjoint circuit cover, so no length-10 "
        "multi-circuit exists and the table must read (2,1,1,1,3,1) with "
        "bottom-multiplicity 1"
    ),
)
def test_c01_golden_multiplicities_as_required():
    mm = characteristic_roots(demo_matrix())
    ok = mm.multiplicities == (2, 1, 1, 1, 3, 2) and mm.epsilon_multiplicity == 0
    _report(1, ok, "required multiplicity table (2,1,1,1,3,2), eps 0")
    assert ok


def test_c02_golden_mmcs_circuits():
    mm = characteristic_roots(demo_matrix())
    got = tuple(frozenset(c.nodes for c in mc.circuits) for mc in mm.multicircuits)
    ok = got == DEMO_MMCS_CIRCUITS
    assert _report(2, ok, "golden multi-circuit sequence, exact circuit sets")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "required length table (0,2,3,4,5,8,10) is inconsistent with the "
        "required circuit sets themselves: the final multi-circuit "
        "(1,2,4,6,8,9,7,5,3,1) has nine arcs, and the oracle confirms no "
        "ten-arc multi-circuit exists; the table must end at 9"
    ),
)
def test_c02_golden_mmcs_lengths_as_required():
    mm = characteristic_roots(demo_matrix())
    got = tuple(mc.total_length for mc in mm.multicircuits)
    ok = got == (0, 2, 3, 4, 5, 8, 10)
    _report(2, ok, "required MMCS length table ending at 10")
    assert ok


def test_c03_golden_partition():
    part = partition_nodes(characteristic_roots(demo_matrix()), 10)
    ok = (
        part.groups == DEMO_GROUPS
        and part.growth_rates == DEMO_RATES
        and tuple(c.nodes for c in part.quasi_critical) == DEMO_QUASI_CIRCUITS
    )
    assert _report(3, ok, f"groups {part.groups}, rates {part.growth_rates}")


def test_c04_golden_visualization():
    a = demo_matrix()
    part = partition_nodes(characteristic_roots(a), 10)
    vis = visualize_all(a, part)
    exact = (
        vis.group(1).scaling == DEMO_D1
        and vis.group(1).matrix == tm(DEMO_A1_ROWS)
        and vis.group(2).scaling == DEMO_D2
        and vis.group(2).matrix == tm(DEMO_A2_ROWS)
        and vis.group(3).scaling == DEMO_D3
        and vis.group(3).matrix == tm(DEMO_A3_ROWS)
    )
    # invariant fallback, which must hold regardless of processing order
    invariants = True
    for s in range(1, 4):
        gv = vis.group(s)
        pos = {v: k for k, v in enumerate(gv.nodes)}
        invariants &= all(v <= 0 for v in gv.matrix.entries.values())
        invariants &= all(
            gv.matrix.get(pos[u], pos[v]) == 0
            for u, v in part.quasi_critical[s - 1].arc_pairs()
        )
        from maxplus.oracle import diag_conjugate, submatrix

        invariants &= (
            diag_conjugate(submatrix(a, gv.nodes), gv.scaling, -part.growth_rates[s - 1])
            == gv.matrix
        )
    assert _report(4, exact and invariants, "d and visualized matrices entrywise exact")


def test_c05_golden_factors_verified():
    x = expand(demo_matrix())
    pairs = [
        (x.terms[0].C, tm(DEMO_C1_VERIFIED_ROWS)),
        (x.terms[0].R, tm(DEMO_R1_VERIFIED_ROWS)),
        (x.terms[0].S, tm(DEMO_S1_ROWS)),
        (x.terms[1].C, tm(DEMO_C2_ROWS)),
        (x.terms[1].R, tm(DEMO_R2_ROWS)),
        (x.terms[1].S, tm(DEMO_S2_ROWS)),
        (x.terms[2].C, tm(DEMO_C3_ROWS)),
        (x.terms[2].R, tm(DEMO_R3_ROWS)),
        (x.terms[2].S, tm(DEMO_S3_ROWS)),
    ]
    ok = all(got == want for got, want in pairs)
    assert _report(5, ok, "all nine factor matrices, verified golden tables")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "four entries of the required printed tables contradict the defining "
        "quantities (best walk weights with length divisible by 2 in the "
        "visualized matrix, cross-checked by the closure oracle): C1 rows 2 "
        "and 9, R1 row 2 col 3; the other 176 factor entries match exactly"
    ),
)
def test_c05_golden_factors_as_printed():
    x = expand(demo_matrix())
    ok = x.terms[0].C == tm(DEMO_C1_PRINTED_ROWS) and x.terms[0].R == tm(
        DEMO_R1_PRINTED_ROWS
    )
    _report(5, ok, "printed factor tables, verbatim")
    assert ok


def test_c06_end_to_end_power_window():
    started = time.perf_counter()
    a = demo_matrix()
    x = expand(a)
    assert x.threshold == 200
    power = matrix_power(a, 200)
    ok = True
    for t in range(200, 221):
        ok &= x.evaluate(t) == power
        power = matrix_mul(power, a)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    assert _report(6, ok, f"evaluate == naive power on t in [200, 220], {elapsed:.2f}s")


def test_c07_random_property_suite():
    rng = random.Random(20260808)
    densities = (Fraction(3, 10), Fraction(6, 10), Fraction(1))
    failures = 0
    saw_acyclic = saw_reducible = False
    for case in range(200):
        n = 2 + case % 5
        density = densities[case % 3]
        a = random_matrix(rng, n, float(density))
        from maxplus.digraph import tarjan_scc

        succ = [[] for _ in range(n)]
        for i, j in a.entries:
            succ[i].append(j)
        comps = tarjan_scc(n, succ.__getitem__)
        if karp_max_cycle_mean(a).is_epsilon:
            saw_acyclic = True
        if len(comps) > 1:
            saw_reducible = True
        x = expand(a)
        report = brute_power_check(a, x, range(x.threshold, x.threshold + 13))
        if not report.match:
            failures += 1
    ok = failures == 0 and saw_acyclic and saw_reducible
    assert _report(
        7,
        ok,
        f"200 seeded instances (incl. acyclic and reducible), failures: {failures}",
    )


def test_c08_chi_oracle_agreement():
    rng = random.Random(424242)
    mismatches = 0
    karp_mismatches = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
        lam = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        if chi_eval(a, lam).value != brute_chi(a, lam):
            mismatches += 1
        mm = characteristic_roots(a)
        lam_graph = karp_max_cycle_mean(build_graph(a))
        if mm.roots:
            if TropicalScalar(mm.roots[0]) != lam_graph:
                karp_mismatches += 1
        elif not lam_graph.is_epsilon:
            karp_mismatches += 1
    ok = mismatches == 0 and karp_mismatches == 0
    assert _report(8, ok, "200 random chi evaluations and max-root checks, exact")


def test_c09_eigenvector_contract():
    rng = random.Random(90909)
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        a = random_irreducible_matrix(rng, n, rng.choice([0.3, 0.6]))
        lam = karp_max_cycle_mean(build_graph(a)).value
        for _, col in principal_eigenvectors(a):
            product = matrix_mul(a, col)
            shifted = TropicalMatrix(n, 1, {k: v + lam for k, v in col.entries.items()})
            if product != shifted:
                bad += 1
    assert _report(9, bad == 0, "A x = rate x exact on 100 irreducible instances")


def test_c10_performance_budget():
    rng = random.Random(300300)
    a = random_matrix(rng, 300, 1.0, -5, 5)
    started = time.perf_counter()
    x = expand(a)
    expand_time = time.perf_counter() - started
    started = time.perf_counter()
    result = x.evaluate(10**18)
    evaluate_time = time.perf_counter() - started
    started = time.perf_counter()
    rate = karp_max_cycle_mean(a)
    karp_time = time.perf_counter() - started
    started = time.perf_counter()
    vectors = principal_eigenvectors(a)
    eigen_time = time.perf_counter() - started
    ok = (
        expand_time < 60.0
        and evaluate_time < 1.0
        and result.finite_count > 0
        and karp_time < 1.0
        and eigen_time < 2.0
        and rate == TropicalScalar(x.terms[0].rate)
        and len(vectors) > 0
    )
    assert _report(
        10,
        ok,
        f"n=300 dense: expand {expand_time:.1f}s (< 60), evaluate(1e18) "
        f"{evaluate_time:.3f}s (< 1), karp {karp_time:.3f}s (< 1), "
        f"eigenvectors {eigen_time:.3f}s (< 2)",
    )
