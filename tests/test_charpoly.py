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
from maxplus.cli import parse_matrix
from maxplus.digraph import tarjan_scc
from maxplus.oracle import (
    brute_chi,
    brute_mmc,
    random_irreducible_matrix,
    random_matrix,
    roots_by_chi_eval,
    submatrix,
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
    workload_module,
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


_REDUCIBLE_KINDS = ("small", "ties", "p/q", "loops", "shared", "acyclic")


def _reducible_family(rng, kind, n):
    """A seeded block-reducible matrix on n >= 3 relabelled nodes, in blocks of fewer than n / 2.

    A shuffled node order is cut into blocks, each closed by a cycle
    through its nodes and filled at random, and arcs run only from a block
    to a later one, so the blocks are the strongly connected components
    and none of them is contiguous.  Kinds: small ([-5, 5]), ties
    ({-1, 0}), p/q (one denominator per block, so each component's scale
    differs from the matrix's), loops (single nodes, half of them
    circuit-free), shared (the first two blocks are copies, so they share
    every root) and acyclic (circuit-free single nodes only).
    """
    order = list(range(n))
    rng.shuffle(order)
    top = 1 if kind in ("loops", "acyclic") else (n - 1) // 2
    blocks = []
    while sum(map(len, blocks)) < n:
        start = sum(map(len, blocks))
        size = len(blocks[0]) if kind == "shared" and len(blocks) == 1 else rng.randint(1, top)
        blocks.append(order[start:start + size])
    low, high = (-1, 0) if kind in ("ties", "shared") else (-5, 5)
    entries = {}
    first = {}
    for b, block in enumerate(blocks):
        q = rng.choice((1, 2, 3, 5, 7)) if kind == "p/q" else 1
        if kind == "acyclic" or (len(block) == 1 and kind == "loops" and rng.random() < 0.5):
            continue
        if kind == "shared" and b == 1:
            twin = dict(zip(blocks[0], block))
            entries.update({(twin[i], twin[j]): v for (i, j), v in first.items()})
            continue
        cells = {(u, block[(k + 1) % len(block)]) for k, u in enumerate(block)}
        cells |= {(i, j) for i in block for j in block if rng.random() < 0.4}
        block_entries = {key: Fraction(rng.randint(low, high), q) for key in cells}
        first = first or block_entries
        entries.update(block_entries)
    for b, block in enumerate(blocks[:-1]):
        for later in blocks[b + 1:]:
            if rng.random() < 0.3:
                entries[(rng.choice(block), rng.choice(later))] = Fraction(rng.randint(low, high), 1)
    return TropicalMatrix(n, n, entries)


@pytest.mark.parametrize("kind", _REDUCIBLE_KINDS)
def test_split_search_matches_the_whole_matrix_twin(kind):
    # Every instance takes the split: roots, multiplicities, the epsilon
    # multiplicity and every witness agree with the search over the whole
    # matrix, and with the exhaustive oracle at n <= 6.
    rng = random.Random(f"split/{kind}")
    for count in range(60):
        n = rng.randint(3, 6) if count < 30 else rng.randint(7, 24)
        a = _reducible_family(rng, kind, n)
        assert charpoly._small_components(charpoly._scaled_entries(a)[1]) is not None
        mmcs = characteristic_roots(a)
        assert mmcs == roots_by_chi_eval(a), (kind, n)
        if n <= 6:
            want = brute_mmc(a)
            assert mmcs.roots == want.roots
            assert mmcs.multiplicities == want.multiplicities
            assert mmcs.epsilon_multiplicity == want.epsilon_multiplicity
            assert tuple(mc.total_length for mc in mmcs.multicircuits) == want.mmcs_lengths


def test_small_components_match_tarjan():
    # The O(n) test for one component on dense rows never calls a
    # reducible support irreducible (a dense lower triangle passes its
    # first half), and the split takes only components of fewer than n / 2
    # nodes (an irreducible matrix with a source node added is not split).
    rng = random.Random(89)
    seen = set()
    for _ in range(300):
        n = rng.randint(3, 30)
        kind = rng.choice(("dense", "sparse", "irreducible", "source", "lower", "reducible"))
        if kind == "dense":
            a = random_matrix(rng, n, rng.choice([0.9, 1.0]))
        elif kind == "sparse":
            a = random_matrix(rng, n, rng.choice([0.05, 0.15]))
        elif kind in ("irreducible", "source"):
            a = random_irreducible_matrix(rng, n, rng.choice([0.0, 0.1, 1.0]))
            if kind == "source":
                entries = {(i + 1, j + 1): v for (i, j), v in a.entries.items()}
                a = TropicalMatrix(n + 1, n + 1, {**entries, (0, rng.randint(1, n)): 0})
        elif kind == "lower":
            a = random_matrix(rng, n, 1.0)
            a = TropicalMatrix(n, n, {(i, j): v for (i, j), v in a.entries.items() if j <= i})
        else:
            a = _reducible_family(rng, rng.choice(_REDUCIBLE_KINDS), n)
        got = charpoly._small_components(charpoly._scaled_entries(a)[1])
        assert got == _split_components(a), kind
        seen.add((kind, got is None))
    want = {("dense", True), ("irreducible", True), ("source", True), ("lower", False), ("reducible", False)}
    assert want <= seen


def _split_components(a):
    """Tarjan's components of ``a`` if the root search splits (each has fewer than n / 2 nodes), else None."""
    n = a.rows
    heads = [[j for (i, j) in a.entries if i == u] for u in range(n)]
    components = tarjan_scc(n, heads.__getitem__)
    return components if 2 * max(map(len, components)) < n else None


def _split_plan(a):
    """``None`` if ``a`` is searched whole, else (n_k, p_k) for each component with a circuit."""
    components = _split_components(a)
    if components is None:
        return None
    subs = (submatrix(a, nodes) for nodes in components)
    return [(sub.rows, roots_by_chi_eval(sub).p) for sub in subs if sub.entries]


def _check_assignment_counts(a, calls):
    """The solves one ``characteristic_roots(a)`` made, by size; returns the full-size count."""
    plan = _split_plan(a)  # its twin searches are recorded too
    calls.clear()
    n, p = a.rows, characteristic_roots(a).p
    if plan is None:
        # At most 2p + 1 cold long runs, where a cold chi_eval at every
        # point would make 4p.
        assert len(calls) <= 2 * p + 1
        return len(calls)
    # One full-size solve per root, and each component's search at most
    # 2p_k + 1 solves of its own size.
    assert calls.count(n) == p
    for size in set(calls) - {n}:
        assert calls.count(size) <= sum(2 * p_k + 1 for n_k, p_k in plan if n_k == size), size
    assert set(calls) <= {n} | {n_k for n_k, _ in plan}
    return calls.count(n)


def test_one_cold_assignment_per_evaluation(monkeypatch):
    calls = []
    real = charpoly.max_assignment

    def recorded(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(charpoly, "max_assignment", recorded)
    rng = random.Random(79)
    split = 0
    for kind in ("ties", "wide", "p/q", "blocks"):
        for _ in range(6):
            a = _twin_family(rng, kind, rng.randint(2, 30))
            _check_assignment_counts(a, calls)
            split += _split_plan(a) is not None
    for kind in _REDUCIBLE_KINDS:
        for _ in range(4):
            _check_assignment_counts(_reducible_family(rng, kind, rng.randint(3, 30)), calls)
    assert split >= 3, split
    n = 40
    assert _check_assignment_counts(TropicalMatrix(n, n, {(i, i): i for i in range(n)}), calls) == n
    # The benchmark's blocks instance: 10 components of 5 nodes and 37
    # roots, one full-size solve each, where the whole search made 74.
    workloads = workload_module()
    main, _ = workloads.inputs(workloads.WORKLOADS["blocks"], 1)
    assert _check_assignment_counts(parse_matrix(main.text), calls) == 37


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
