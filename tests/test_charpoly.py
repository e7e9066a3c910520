import random
import sys
from fractions import Fraction

import pytest

from maxplus import (
    MultiCircuit,
    TropicalMatrix,
    TropicalScalar,
    build_graph,
    characteristic_roots,
    chi_eval,
    karp_max_cycle_mean,
)
import maxplus.assignment as assignment
import maxplus.charpoly as charpoly
from maxplus.oracle import (
    brute_chi,
    brute_mmc,
    random_irreducible_matrix,
    random_matrix,
    roots_by_chi_eval,
)
from fixtures import (
    DEMO_EPS_MULTIPLICITY,
    DEMO_MMCS_CIRCUITS,
    DEMO_MMCS_LENGTHS,
    DEMO_MULTIPLICITIES,
    DEMO_ROOTS,
    E,
    demo_matrix,
    tm,
)


def circuit_sets(mc: MultiCircuit) -> frozenset:
    return frozenset(c.nodes for c in mc.circuits)


class TestChiEval:
    def test_demo_at_seven(self):
        ev = chi_eval(demo_matrix(), 7)
        assert ev.value == 72
        assert brute_chi(demo_matrix(), 7) == 72
        assert ev.min_length == 2 and ev.max_length == 3
        assert circuit_sets(ev.witness_min) == frozenset({(0, 1)})
        assert circuit_sets(ev.witness_max) == frozenset({(0, 1, 2)})

    def test_demo_at_nine(self):
        ev = chi_eval(demo_matrix(), 9)
        assert ev.value == 90
        assert ev.min_length == 0 and ev.max_length == 0
        assert ev.witness_max == MultiCircuit.empty()

    def test_one_by_one(self):
        for lam in (2, 5, Fraction(7, 2)):
            ev = chi_eval(tm([[3]]), lam)
            assert ev.value == max(3, lam)

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
            lam = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
            assert chi_eval(a, lam).value == brute_chi(a, lam)

    def test_convexity_along_lambda(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(2, 5)
            a = random_matrix(rng, n, 0.6)
            points = sorted(
                Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(3)
            )
            if len(set(points)) < 3:
                continue
            l1, l2, l3 = points
            v1, v2, v3 = (chi_eval(a, l).value for l in points)
            # midpoint value lies on or below the chord, exactly
            assert (v2 - v1) * (l3 - l1) <= (v3 - v1) * (l2 - l1)

    def test_empty_multicircuit_alone_attains_above_every_entry(self):
        # characteristic_roots takes chi at max entry + 1 in closed form.
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(1, 7)
            q = rng.randint(1, 4)
            m = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
            a = TropicalMatrix(n, n, {key: Fraction(v, q) for key, v in m.entries.items()})
            if not a.entries:
                continue
            hi = max(a.entries.values()) + 1
            ev = chi_eval(a, hi)
            assert (ev.value, ev.min_length, ev.max_length) == (n * hi, 0, 0)
            assert ev.witness_min == ev.witness_max == MultiCircuit.empty()


class TestCharacteristicRoots:
    def test_demo_roots(self):
        mm = characteristic_roots(demo_matrix())
        assert mm.roots == DEMO_ROOTS

    def test_demo_multiplicities(self):
        mm = characteristic_roots(demo_matrix())
        assert mm.multiplicities == DEMO_MULTIPLICITIES
        assert mm.epsilon_multiplicity == DEMO_EPS_MULTIPLICITY

    def test_demo_mmcs(self):
        mm = characteristic_roots(demo_matrix())
        assert tuple(mc.total_length for mc in mm.multicircuits) == DEMO_MMCS_LENGTHS
        assert (
            tuple(circuit_sets(mc) for mc in mm.multicircuits) == DEMO_MMCS_CIRCUITS
        )

    def test_two_cycle_has_double_root(self):
        mm = characteristic_roots(tm([[E, 1], [3, E]]))
        assert mm.roots == (2,)
        assert mm.multiplicities == (2,)
        assert mm.epsilon_multiplicity == 0

    def test_no_finite_entries(self):
        mm = characteristic_roots(TropicalMatrix.epsilon(4))
        assert mm.roots == ()
        assert mm.epsilon_multiplicity == 4
        assert mm.multicircuits == (MultiCircuit.empty(),)

    def test_acyclic_matrix(self):
        mm = characteristic_roots(tm([[E, 5, 7], [E, E, -2], [E, E, E]]))
        assert mm.roots == ()
        assert mm.epsilon_multiplicity == 3

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(47)
        for _ in range(120):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
            mm = characteristic_roots(a)
            want = brute_mmc(a)
            assert mm.roots == want.roots
            assert mm.multiplicities == want.multiplicities
            assert mm.epsilon_multiplicity == want.epsilon_multiplicity
            assert tuple(mc.total_length for mc in mm.multicircuits) == want.mmcs_lengths

    def test_max_root_is_karp_mean(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
            mm = characteristic_roots(a)
            lam = karp_max_cycle_mean(build_graph(a))
            if mm.roots:
                assert TropicalScalar(mm.roots[0]) == lam
            else:
                assert lam.is_epsilon

    def test_multiplicities_sum_to_n(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
            mm = characteristic_roots(a)
            assert sum(mm.multiplicities) + mm.epsilon_multiplicity == n

    def test_multicircuits_attain_chi_across_their_intervals(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n, rng.choice([0.6, 1.0]))
            mm = characteristic_roots(a)
            for k, lam in enumerate(mm.roots):
                mc = mm.multicircuits[k + 1]
                below = mm.roots[k + 1] if k + 1 < len(mm.roots) else lam - 1
                for probe in (lam, Fraction(lam + below, 2), below):
                    value = chi_eval(a, probe).value
                    assert mc.total_weight + probe * (n - mc.total_length) == value

    def test_circuit_means_dominate_their_root(self):
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n, rng.choice([0.6, 1.0]))
            mm = characteristic_roots(a)
            for k, lam in enumerate(mm.roots):
                for circuit in mm.multicircuits[k + 1].circuits:
                    assert Fraction(circuit.weight, circuit.length) >= lam


def _twin_family(rng, kind, n):
    """One seeded matrix of a root-search family: see ``test_matches_the_cold_chi_eval_twin``."""
    if kind == "ties":
        return random_matrix(rng, n, rng.choice([0.2, 0.5, 1.0]), -1, 0)
    if kind == "wide":
        return random_irreducible_matrix(rng, n, rng.choice([0.05, 0.1, 0.3]), -10**6, 10**6)
    if kind == "p/q":
        m = random_matrix(rng, n, rng.choice([0.3, 0.7, 1.0]), -20, 20)
        return TropicalMatrix(n, n, {k: Fraction(v, rng.choice((1, 2, 3, 4, 6))) for k, v in m.entries.items()})
    if kind == "blocks":
        size = rng.randint(2, 6)
        entries = {}
        for i in range(n):
            for j in range(n):
                same, forward = i // size == j // size, i // size < j // size
                if (same and rng.random() < 0.8) or (forward and rng.random() < 0.05):
                    entries[(i, j)] = rng.randint(-10**6, 10**6)
        return TropicalMatrix(n, n, entries)
    m = random_irreducible_matrix(rng, n, rng.choice([0.1, 0.3, 1.0]), -50, 50)
    return TropicalMatrix(n, n, {k: 10**17 + v for k, v in m.entries.items()})


def test_matches_the_cold_chi_eval_twin():
    # The search runs only chi_eval's long run and reads a root's right
    # slope from the next line it finds; the twin runs a full chi_eval
    # everywhere.  Roots, multiplicities and every witness agree.
    rng = random.Random(71)
    for kind in ("ties", "wide", "p/q", "blocks", "near 1e17"):
        for _ in range(24):
            a = _twin_family(rng, kind, rng.randint(2, 40))
            assert characteristic_roots(a) == roots_by_chi_eval(a), kind


def test_matches_the_twin_on_the_int64_backend(monkeypatch):
    # Fully dense rows at n = 150 take the int64 solve for every cold run.
    solves = []
    real = assignment._solve_min_numpy

    def recorded(*args):
        solves.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(assignment, "_solve_min_numpy", recorded)
    rng = random.Random(73)
    n = 150
    a = TropicalMatrix(n, n, {(i, j): rng.randint(-5, 5) for i in range(n) for j in range(n)})
    mmcs = characteristic_roots(a)
    assert solves
    assert mmcs == roots_by_chi_eval(a)


def test_one_cold_assignment_per_evaluation(monkeypatch):
    # With p roots: at most 2p + 1 cold long runs, where a cold chi_eval at
    # every point would make 4p.
    calls = []
    real = charpoly.max_assignment

    def recorded(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(charpoly, "max_assignment", recorded)
    rng = random.Random(79)
    for kind in ("ties", "wide", "p/q", "blocks"):
        for _ in range(6):
            a = _twin_family(rng, kind, rng.randint(2, 30))
            calls.clear()
            p = characteristic_roots(a).p
            assert len(calls) <= 2 * p + 1
    n = 40
    calls.clear()
    assert characteristic_roots(TropicalMatrix(n, n, {(i, i): i for i in range(n)})).p == n
    assert len(calls) <= 2 * n + 1


def test_a_root_found_as_the_lower_end_of_its_interval(monkeypatch):
    # An evaluation strictly above both lines may land on a root; its right
    # piece turns up later as the upper line of an interval whose lines
    # meet at the root.  The search takes a tangent only at points it
    # evaluates that way, so a root among them was found at a lower end.
    tangents = []
    real = charpoly._line

    def recorded(value, lam, slope):
        tangents.append(lam)
        return real(value, lam, slope)

    monkeypatch.setattr(charpoly, "_line", recorded)
    rng = random.Random(83)
    fired = 0
    for family in ("ties", "small", "irreducible"):
        for _ in range(20):
            n = rng.randint(2, 30)
            if family == "ties":
                a = random_matrix(rng, n, 0.6, -1, 0)
            elif family == "small":
                a = random_matrix(rng, n, 0.5, -3, 3)
            else:
                a = random_irreducible_matrix(rng, n, rng.choice([0.1, 0.3, 0.6]), -5, 5)
            tangents.clear()
            mmcs = characteristic_roots(a)
            fired += bool(set(mmcs.roots) & set(tangents))
            assert mmcs == roots_by_chi_eval(a), family
    assert fired >= 10, fired


def test_a_bracket_at_a_root_raises():
    for a in (demo_matrix(), tm([[0, E], [E, -2]])):
        n = a.rows
        entries = charpoly._scaled_entries(a)
        _, hi = charpoly._brackets(a)
        for lo in characteristic_roots(a).roots:
            value, max_length, _, _ = charpoly._evaluate(entries, lo)
            lo_line = charpoly._line(value, lo, n - max_length)
            with pytest.raises(AssertionError, match="bracketing points must not be breakpoints"):
                charpoly._search_breakpoints(entries, lo, lo_line, hi, (n, 0))


def _recursion_depth():
    """The caller's recursion depth as the interpreter counts it (C calls too).

    ``sys.setrecursionlimit`` refuses any limit at or below the depth it is
    called at, so the lowest accepted limit gives the depth away.
    """
    saved = sys.getrecursionlimit()
    limit = 1
    try:
        while True:
            try:
                sys.setrecursionlimit(limit)
            except RecursionError:
                limit += 1
            else:
                return limit - 2  # one frame for this helper
    finally:
        sys.setrecursionlimit(saved)


def test_root_search_depth_does_not_grow_with_the_roots():
    # Forty distinct diagonal roots nest the search intervals 13 deep.  One
    # chi evaluation needs about 14 levels below this test (the interpreter
    # counts C calls, and Fraction construction runs the ABC checks); a
    # search that recursed per interval needed 23.
    n = 40
    a = TropicalMatrix(n, n, {(i, i): -(1 << i) for i in range(n)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 18)
    try:
        mmcs = characteristic_roots(a)
    finally:
        sys.setrecursionlimit(limit)
    assert mmcs.roots == tuple(-(1 << i) for i in range(n))
