import math
import random
from fractions import Fraction

import pytest

from maxplus import (
    EPSILON,
    CircuitRecord,
    DimensionMismatchError,
    PositiveCircuitError,
    TropicalMatrix,
    TropicalScalar,
    as_value,
    build_graph,
    characteristic_roots,
    critical_graph,
    cyclicity_classes,
    karp_max_cycle_mean,
    matrix_mul,
    partition_nodes,
    principal_eigenvectors,
    visualize_all,
)
from maxplus.cli import parse_matrix
from maxplus import digraph
from maxplus.digraph import _karp_array, _karp_components, _principal_eigen
from maxplus.oracle import (
    brute_mmc,
    critical_arcs_by_star,
    elementary_circuits,
    naive_kleene_star,
    random_irreducible_matrix,
    random_matrix,
)
from maxplus.tropical import _ARRAY_GATES, _INT64_BOUND, _kernel_arrays, common_scale
from fixtures import E, demo_matrix, recorded_builds, seeded_matrix, tm, workload_module


def test_a_square_matrix_is_its_own_graph():
    # The graph algorithms read the matrix's entries as arcs; build_graph
    # is the one square check, and each of them runs it.
    a = demo_matrix()
    assert build_graph(a) is a
    wide = TropicalMatrix(2, 3, {(0, 0): 0, (1, 1): 0})
    for check in (build_graph, karp_max_cycle_mean, lambda m: critical_graph(m, 0)):
        with pytest.raises(DimensionMismatchError):
            check(wide)


class TestKarp:
    def test_demo(self):
        assert karp_max_cycle_mean(build_graph(demo_matrix())) == TropicalScalar(8)

    def test_acyclic_chain(self):
        g = build_graph(tm([[E, 1, E], [E, E, 1], [E, E, E]]))
        assert karp_max_cycle_mean(g).is_epsilon

    def test_two_cycle(self):
        g = build_graph(tm([[E, 1], [3, E]]))
        assert karp_max_cycle_mean(g) == TropicalScalar(2)

    def test_matches_circuit_enumeration(self):
        # The table runs on scaled ints; the mean comes back with the type
        # as_value gives it (int when integral, else Fraction).
        for a in _karp_instances():
            want = max(
                (as_value(Fraction(c.weight, c.length)) for c in elementary_circuits(a)),
                default=None,
            )
            got = karp_max_cycle_mean(build_graph(a))
            if want is None:
                assert got.is_epsilon
            else:
                assert got == TropicalScalar(want)
                assert type(got.value) is type(want)


def _block_diagonal(rng, sizes, denominators, forward=0.0):
    """Irreducible blocks on the diagonal, block k's entries over denominators[k].

    With ``forward`` > 0, each cell from a block into a later one is an
    integer arc with that probability.
    """
    entries = {}
    start = 0
    for size, den in zip(sizes, denominators):
        block = random_irreducible_matrix(rng, size, 0.6, -20, 20)
        for (i, j), v in block.entries.items():
            entries[(start + i, start + j)] = Fraction(v, den)
        for i in range(start, start + size):
            for j in range(start + size, sum(sizes)):
                if rng.random() < forward:
                    entries[(i, j)] = rng.randint(-20, 20)
        start += size
    return TropicalMatrix(start, start, entries)


def _karp_instances():
    """Small integer matrices, four seeded families with n up to 7, then block-diagonal ones.

    The blocks of the last family have denominators 2, 3 and 7 in a seeded
    order, so the components' cycle means live in different scales.
    """
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 7)
        yield random_matrix(rng, n, rng.choice([0.3, 0.5, 0.8]))
    rng = random.Random(17)
    for k in range(240):
        n = rng.randint(1, 7)
        family = k % 4
        if family == 0:  # small integers, possibly reducible or acyclic
            yield random_matrix(rng, n, rng.choice([0.2, 0.4, 0.7]))
        elif family == 1:
            yield random_irreducible_matrix(rng, n, 0.3, -10**6, 10**6)
        elif family == 2:
            base = random_irreducible_matrix(rng, n, 0.5, -20, 20)
            entries = {
                key: Fraction(v, rng.choice((1, 2, 3, 4, 6))) for key, v in base.entries.items()
            }
            yield TropicalMatrix(n, n, entries)
        else:  # {0, -1} ties many circuits
            yield random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]), -1, 0)
    rng = random.Random(19)
    for _ in range(60):
        denominators = [2, 3, 7]
        rng.shuffle(denominators)
        yield _block_diagonal(rng, [rng.randint(1, 3) for _ in range(3)], denominators)


def _karp_by_both_paths(a):
    """Karp's mean of ``a`` by the per-SCC loop and by the array table, as Fractions (None: acyclic).

    The array table runs whenever the kernel array of bound 2n^2 M is
    int64, whatever the density gate says; past the bound its result is
    "object".
    """
    n = a.rows
    scale = common_scale(a.entries.values())
    bottom, x = _kernel_arrays(scale, 2 * n * n, a)

    def mean(best):
        return None if best is None else Fraction(best[0], best[1] * scale)

    array = "object" if x.dtype == object else mean(_karp_array(bottom, x))
    return mean(_karp_components(a, scale)), array


_, _KARP_SHARE, _KARP_CELLS = _ARRAY_GATES["karp"]


def _on_the_array(a):
    """Whether the "karp" row of the gate table sends ``a`` to the array table."""
    cells = len(a.entries)
    return cells >= _KARP_CELLS and _KARP_SHARE * cells >= a.rows**2


def _relabeled(rng, a):
    perm = list(range(a.rows))
    rng.shuffle(perm)
    return TropicalMatrix(a.rows, a.rows, {(perm[i], perm[j]): v for (i, j), v in a.entries.items()})


def _block_triangular(rng, sizes, density):
    """Irreducible diagonal blocks, block k's entries raised by 40k, and arcs only into later blocks.

    Each block's cycle means lie within 40k +- 20, so the best circuit is
    in the last component; the nodes are relabeled at random.
    """
    n = sum(sizes)
    entries = {}
    start = 0
    for k, size in enumerate(sizes):
        block = random_irreducible_matrix(rng, size, density, -20, 20)
        for (i, j), v in block.entries.items():
            entries[(start + i, start + j)] = v + 40 * k
        for i in range(start, start + size):
            for j in range(start + size, n):
                if rng.random() < density:
                    entries[(i, j)] = rng.randint(0, 200)
        start += size
    return _relabeled(rng, TropicalMatrix(n, n, entries))


def _edge_matrix(rng, n, density, above):
    """Entries of size M near the int64 edge: 2n^2 M just below 2^59, or at it with ``above``.

    Cells are finite with the given density (a hidden cycle keeps one
    circuit), so bottoms sit next to entries of size M in every row.
    """
    m = (_INT64_BOUND - 1) // (2 * n * n) + above
    a = random_irreducible_matrix(rng, n, density, -m, m)
    entries = dict(a.entries)
    entries[min(entries)] = rng.choice((-m, m))
    return TropicalMatrix(n, n, entries)


def _karp_parity_instances():
    """(family, matrix) over seeded families on both sides of the density gate and of the int64 bound."""
    rng = random.Random(4242)
    densities = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0)
    for k in range(420):
        n = rng.randint(1, 20)
        density = rng.choice(densities)
        family = ("small", "wide", "pq", "ties")[k % 4]
        if family == "small":  # possibly reducible or acyclic
            yield family, random_matrix(rng, n, density)
        elif family == "wide":
            yield family, random_matrix(rng, n, density, -(10**6), 10**6)
        elif family == "pq":
            base = random_matrix(rng, n, density, -20, 20)
            yield family, TropicalMatrix(n, n, {key: Fraction(v, rng.choice((1, 2, 3, 7))) for key, v in base.entries.items()})
        else:
            yield family, random_matrix(rng, n, density, -1, 0)
    for _ in range(60):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
        yield "blocks", _block_triangular(rng, sizes, rng.choice((0.3, 0.6, 1.0)))
    for _ in range(30):
        n = rng.randint(10, 20)
        denominators = [2, 3, 7]
        rng.shuffle(denominators)
        yield "pq-blocks", _block_diagonal(rng, [n // 3, n // 3, n - 2 * (n // 3)], denominators, forward=0.5)
    for k in range(40):
        n = rng.randint(2, 20)
        dag = {(i, j): rng.randint(-5, 5) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7}
        if k % 2:  # one loop, on a node that arcs enter and leave
            node = rng.randrange(n)
            dag[(node, node)] = rng.randint(-5, 5)
            yield "one-loop", _relabeled(rng, TropicalMatrix(n, n, dag))
        else:
            yield "acyclic", _relabeled(rng, TropicalMatrix(n, n, dag))
    for k in range(60):
        yield "edge", _edge_matrix(rng, rng.randint(6, 16), rng.choice((0.3, 0.6, 1.0)), above=k % 2)


def test_karp_array_table_matches_the_component_loop():
    # The array table and the per-SCC loop give the same mean on every
    # instance whose kernel array is int64, and karp_max_cycle_mean gives
    # it on every instance; at n <= 6 so does the largest root of chi by
    # exhaustive search.  The instances cover both sides of the density
    # gate and of the int64 bound.
    gate = {True: 0, False: 0}
    dtypes = {"int64": 0, "object": 0}
    for family, a in _karp_parity_instances():
        loop, array = _karp_by_both_paths(a)
        if array == "object":
            dtypes["object"] += 1
        else:
            dtypes["int64"] += 1
            assert array == loop, family
        got = karp_max_cycle_mean(a)
        assert got == (EPSILON if loop is None else TropicalScalar(loop)), family
        if family == "acyclic":
            assert loop is None
        if family == "one-loop":
            assert loop == next(v for (i, j), v in a.entries.items() if i == j)
        if a.rows <= 6:
            roots = brute_mmc(a).roots
            assert loop == (roots[0] if roots else None), family
        gate[_on_the_array(a) and array != "object"] += 1
    assert dtypes["int64"] >= 500 and dtypes["object"] >= 30, dtypes
    assert gate[True] >= 100 and gate[False] >= 300, gate


def test_karp_best_circuit_in_a_later_component():
    rng = random.Random(61)
    for _ in range(10):
        a = _block_triangular(rng, [5, 5, 5, 5], 1.0)
        assert _on_the_array(a)
        loop, array = _karp_by_both_paths(a)
        assert loop == array and loop >= 40 * 3 - 20


@pytest.mark.parametrize(
    "n, cells, path",
    [
        (10, _KARP_CELLS, "_karp_array"),
        (10, _KARP_CELLS - 1, "_karp_components"),
        (40, 40 * 40 // _KARP_SHARE, "_karp_array"),
        (40, 40 * 40 // _KARP_SHARE - 1, "_karp_components"),
    ],
)
def test_karp_density_gate_edges(monkeypatch, n, cells, path):
    # The "karp" row of the gate table: at least its count of finite
    # cells, and one cell in its share finite, send the matrix to the
    # array table (10 x 10 meets the count, 40 x 40 the share).
    rng = random.Random(f"gate/{n}/{cells}")
    keys = [(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(keys)
    a = TropicalMatrix(n, n, {key: rng.randint(-9, 9) for key in keys[:cells]})
    calls = _record_karp_paths(monkeypatch)
    got = karp_max_cycle_mean(a)
    assert calls == [path]
    loop, array = _karp_by_both_paths(a)
    assert got == TropicalScalar(loop) and array == loop


@pytest.mark.parametrize("above, path", [(0, "_karp_array"), (1, "_karp_components")])
def test_karp_int64_bound_edge(monkeypatch, above, path):
    # 2n^2 M just below 2^59 keeps the table on int64 arrays; one more and
    # the kernel picks object arrays, which go to the per-SCC loop.
    rng = random.Random(f"edge/{above}")
    for density in (0.3, 0.6, 1.0):
        a = _edge_matrix(rng, 20, density, above)
        assert _on_the_array(a)
        calls = _record_karp_paths(monkeypatch)
        got = karp_max_cycle_mean(a)
        assert calls == [path]
        loop, array = _karp_by_both_paths(a)
        assert got == TropicalScalar(loop)
        assert array == ("object" if above else loop)


def _record_karp_paths(monkeypatch):
    import maxplus.digraph as digraph

    calls = []
    for name in ("_karp_array", "_karp_components"):
        original = getattr(digraph, name)

        def wrapper(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(digraph, name, wrapper)
    return calls


def test_karp_routing_on_workload_check_instances(monkeypatch):
    # The check instances, on which the benchmark's eigen step runs: dense
    # (n = 24) and p/q (n = 20) take the array table; the block-reducible
    # (density 0.22) and sparse (0.07) ones stay on the per-SCC loop.
    workloads = workload_module()
    want = {"dense": "_karp_array", "verify": "_karp_array", "sparse-wide": "_karp_components", "blocks": "_karp_components"}
    calls = _record_karp_paths(monkeypatch)
    for w in workloads.WORKLOADS.values():
        _, check = workloads.inputs(w, 1)
        calls.clear()
        karp_max_cycle_mean(parse_matrix(check.text))
        assert calls == [want[w.name]], w.name


class TestCriticalGraph:
    def test_demo(self):
        cg = critical_graph(build_graph(demo_matrix()), 8)
        assert cg.nodes == frozenset({0, 1})
        assert cg.arcs == frozenset({(0, 1), (1, 0)})

    def test_self_loop(self):
        cg = critical_graph(build_graph(tm([[5]])), 5)
        assert cg.nodes == frozenset({0})
        assert cg.arcs == frozenset({(0, 0)})

    def test_all_zero_matrix(self):
        cg = critical_graph(build_graph(tm([[0, 0], [0, 0]])), 0)
        assert cg.nodes == frozenset({0, 1})
        assert len(cg.arcs) == 4

    def test_rate_below_max_mean_rejected(self):
        with pytest.raises(ValueError):
            critical_graph(build_graph(tm([[E, 1], [3, E]])), 1)

    def test_critical_arcs_are_tight_after_shift(self):
        rng = random.Random(17)
        instances = [random_irreducible_matrix(rng, rng.randint(2, 6), 0.4) for _ in range(25)]
        # reducible, possibly acyclic, inputs
        instances += [random_matrix(rng, rng.randint(2, 6), 0.3) for _ in range(25)]
        # rational entries, hence rational maximum cycle means
        for _ in range(25):
            base = random_irreducible_matrix(rng, rng.randint(2, 6), 0.4, -9, 9)
            entries = {key: Fraction(v, rng.choice([1, 2, 3, 4])) for key, v in base.entries.items()}
            instances.append(TropicalMatrix(base.rows, base.cols, entries))
        for a in instances:
            g = build_graph(a)
            circuits = elementary_circuits(a)
            lam = karp_max_cycle_mean(g)
            # at lam the critical graph is nonempty; above lam (and on an
            # acyclic graph) it is empty
            if lam.is_epsilon:
                rates = [(0, False)]
            else:
                rates = [(lam.value, True), (lam.value + Fraction(1, 3), False)]
            for rate, nonempty in rates:
                cg = critical_graph(g, rate)
                assert bool(cg.nodes) == nonempty
                # every critical arc lies on a circuit of mean exactly rate
                tight = {
                    arc
                    for c in circuits
                    if Fraction(c.weight, c.length) == rate
                    for arc in c.arc_pairs()
                }
                assert cg.arcs == tight

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_path_into_a_critical_loop_settles_within_the_pass_limit(self, n):
        # Arcs i -> i+1 above the rate come in entry (row) order, so each
        # Bellman-Ford pass settles one more node back from the loop at the
        # rate on node n-1; the last pass sees no change.
        rows = [[E] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = 3
        rows[n - 1][n - 1] = 2
        cg = critical_graph(build_graph(tm(rows)), 2)
        assert cg.arcs == frozenset({(n - 1, n - 1)})
        assert cg.nodes == frozenset({n - 1})

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_cycle_above_the_rate_never_settles(self, n):
        # Mean rate + 1/n: the potentials grow on every pass.
        rows = [[E] * n for _ in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = 2
        rows[n - 1][0] = 3
        with pytest.raises(PositiveCircuitError, match="positive-weight circuit"):
            critical_graph(build_graph(tm(rows)), 2)

    def test_matches_the_star_definition(self):
        count = 0
        for a in _critical_parity_instances():
            g = build_graph(a)
            lam = karp_max_cycle_mean(g)
            base = 0 if lam.is_epsilon else lam.value
            for rate in (base, base + 1, base + Fraction(1, 3)):
                cg = critical_graph(g, rate)
                assert cg.arcs == critical_arcs_by_star(a, rate)
                assert cg.nodes == {v for arc in cg.arcs for v in arc}
                assert bool(cg.arcs) == (rate == lam.value)
            below = base - Fraction(1, 7)
            if lam.is_epsilon:
                assert critical_graph(g, below).arcs == critical_arcs_by_star(a, below) == set()
            else:
                with pytest.raises(PositiveCircuitError):
                    critical_graph(g, below)
                with pytest.raises(PositiveCircuitError):
                    critical_arcs_by_star(a, below)
            count += 1
        assert count >= 500, count


def _critical_parity_instances():
    """Seeded graphs in four families, then every visualized group of the
    benchmark workloads' check instances (maximum cycle mean 0)."""
    rng = random.Random(43)
    for k in range(480):
        n = rng.randint(1, 40) if k % 8 == 0 else rng.randint(1, 12)
        family = k % 4
        if family == 0:  # small integers, possibly reducible or acyclic
            a = random_matrix(rng, n, rng.choice([0.1, 0.3, 0.6]))
        elif family == 1:
            a = random_irreducible_matrix(rng, n, 0.3, -10**6, 10**6)
        elif family == 2:
            base = random_irreducible_matrix(rng, n, 0.4, -20, 20)
            entries = {
                key: Fraction(v, rng.choice((1, 2, 3, 4, 6))) for key, v in base.entries.items()
            }
            a = TropicalMatrix(n, n, entries)
        else:  # {0, -1} ties many circuits
            a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]), -1, 0)
        yield a
    workloads = workload_module()
    for w in workloads.WORKLOADS.values():
        _, check = workloads.inputs(w, 1)
        a = parse_matrix(check.text)
        vis = visualize_all(a, partition_nodes(characteristic_roots(a), a.rows))
        for gv in vis.groups:
            yield gv.matrix


def _class_of(cyc):
    return {v: c for c, members in enumerate(cyc.classes) for v in members}


class TestCyclicityClasses:
    def test_two_cycle(self):
        cg = critical_graph(build_graph(tm([[E, 1], [3, E]])), 2)
        cyc = cyclicity_classes(cg)
        assert cyc.sigma == 2
        assert cyc.classes == ((0,), (1,))

    def test_self_loop(self):
        cg = critical_graph(build_graph(tm([[5]])), 5)
        cyc = cyclicity_classes(cg)
        assert cyc.sigma == 1
        assert cyc.classes == ((0,),)

    def test_mixed_lengths_gcd_one(self):
        cg = critical_graph(build_graph(tm([[0, 0], [0, E]])), 0)
        cyc = cyclicity_classes(cg)
        assert cyc.sigma == 1
        assert cyc.classes == ((0, 1),)

    def test_empty_rejected(self):
        from maxplus import CriticalGraph

        with pytest.raises(ValueError):
            cyclicity_classes(CriticalGraph(frozenset(), frozenset()))

    def test_class_counts_divide_circuit_lengths(self):
        # Walking a critical circuit advances the class by one step per arc,
        # so the circuit visits exactly its component's gcd many classes and
        # its length is a multiple of that count (which in turn divides
        # sigma when the critical graph is strongly connected).
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(2, 6)
            a = random_irreducible_matrix(rng, n, 0.4)
            g = build_graph(a)
            lam = karp_max_cycle_mean(g).value
            cg = critical_graph(g, lam)
            cyc = cyclicity_classes(cg)
            class_of = _class_of(cyc)
            for circuit in elementary_circuits(a):
                if Fraction(circuit.weight, circuit.length) != lam:
                    continue
                visited = {class_of[v] for v in circuit.nodes}
                assert circuit.length % len(visited) == 0
                assert cyc.sigma % len(visited) == 0

    def test_class_counts_equal_gcd_of_critical_circuit_lengths(self):
        # Brute force, independent of any search order: the critical
        # circuits, joined when they share a node, make up the components;
        # each component has as many classes as the gcd of its circuits'
        # lengths, and sigma is the lcm of those gcds.
        rng = random.Random(29)
        several = 0
        for k in range(90):
            n = rng.randint(1, 8)
            if k % 3 == 0:
                a = random_irreducible_matrix(rng, n, 0.4)
            else:  # entries in {0, -1} tie many circuits
                low, high = (-1, 0) if k % 3 == 1 else (-2, 2)
                a = random_matrix(rng, n, rng.choice([0.3, 0.5]), low, high)
            g = build_graph(a)
            lam = karp_max_cycle_mean(g)
            if lam.is_epsilon:
                continue
            cyc = cyclicity_classes(critical_graph(g, lam.value))
            comps = []  # [node set, gcd of circuit lengths]
            for c in elementary_circuits(a):
                if Fraction(c.weight, c.length) != lam.value:
                    continue
                joined = [comp for comp in comps if comp[0] & set(c.nodes)]
                nodes = set(c.nodes).union(*(comp[0] for comp in joined))
                length = math.gcd(c.length, *(comp[1] for comp in joined))
                comps = [comp for comp in comps if comp not in joined] + [[nodes, length]]
            want = {frozenset(nodes): length for nodes, length in comps}
            got = {
                frozenset(v for c in comp for v in cyc.classes[c]): len(comp)
                for comp in cyc.components
            }
            assert got == want
            assert cyc.sigma == math.lcm(*want.values())
            several += len(want) > 1
        assert several > 0

    def test_components_list_classes_in_step_order(self):
        # One critical step moves each class to the next id of its
        # component's tuple, cyclically; the tuples split the class ids in
        # order, each starts at its component's smallest node, and sigma is
        # the lcm of their lengths.  Entries in {0, -1} tie many circuits.
        rng = random.Random(23)
        several = 0
        for _ in range(40):
            a = random_matrix(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.8]), -1, 0)
            g = build_graph(a)
            lam = karp_max_cycle_mean(g)
            if lam.is_epsilon:
                continue
            cg = critical_graph(g, lam.value)
            cyc = cyclicity_classes(cg)
            assert [c for comp in cyc.components for c in comp] == list(range(len(cyc.classes)))
            step = {}
            for comp in cyc.components:
                members = [v for c in comp for v in cyc.classes[c]]
                assert min(members) in cyc.classes[comp[0]]
                for k, c in enumerate(comp):
                    step[c] = comp[(k + 1) % len(comp)]
            class_of = _class_of(cyc)
            for u, v in cg.arcs:
                assert class_of[v] == step[class_of[u]]
            assert cyc.sigma == math.lcm(*map(len, cyc.components))
            several += len(cyc.components) > 1
        assert several > 0


class TestPrincipalEigenvectors:
    def test_two_cycle(self):
        a = tm([[E, 1], [3, E]])
        vecs = dict(principal_eigenvectors(a))
        assert set(vecs) == {0, 1}
        col = vecs[0]
        assert [col.get(i, 0) for i in range(2)] == [0, 1]
        product = matrix_mul(a, col)
        assert [product.get(i, 0) for i in range(2)] == [2, 3]

    def test_self_loop(self):
        vecs = principal_eigenvectors(tm([[4]]))
        assert len(vecs) == 1
        node, col = vecs[0]
        assert node == 0 and col.get(0, 0) == 0

    def test_demo_columns_are_eigenvectors(self):
        a = demo_matrix()
        vecs = principal_eigenvectors(a)
        assert [node for node, _ in vecs] == [0, 1]
        for _, col in vecs:
            product = matrix_mul(a, col)
            shifted = TropicalMatrix(
                10, 1, {key: v + 8 for key, v in col.entries.items()}
            )
            assert product == shifted

    def test_acyclic_rejected(self):
        with pytest.raises(ValueError):
            principal_eigenvectors(tm([[E, 1], [E, E]]))

    def test_one_kernel_entry_past_karps_gate(self, monkeypatch):
        # Past Karp's gate the star reuses Karp's int64 array, so A enters
        # the kernel once.  Below it, or past the int64 bound, Karp runs
        # its loop and the star enters alone: once again.
        for name in ("small/40/1.0", "pq/30/1.0", "small/40/0.05", "big/24/1.0"):
            a = seeded_matrix(name)
            builds = recorded_builds(monkeypatch)
            _principal_eigen(a)
            monkeypatch.undo()
            assert [shape for shape, _, _ in builds if shape == (a.rows, a.rows)] == [(a.rows, a.rows)], name

    @pytest.mark.parametrize("family", ["pq", "sparse", "big"])
    def test_columns_are_the_oracle_star_columns(self, monkeypatch, family):
        # The eigenvectors are the columns of the oracle's star of A - rate
        # at the critical nodes, each an n x 1 matrix, values with their
        # types: on p/q matrices past Karp's gate, where the star reuses
        # Karp's array and some rates need a larger scale s' than A's own;
        # on sparse ones, where Karp runs its loop and the star enters
        # alone; and on entries near 10^17, where both run on Python ints.
        alone = []
        real = digraph._kernel_arrays
        monkeypatch.setattr(digraph, "_kernel_arrays", lambda *args: alone.append(1) or real(*args))
        rng = random.Random(f"star/{family}")
        wider = 0
        for _ in range(6):
            n = rng.randint(16, 30)
            if family == "sparse":
                a = random_irreducible_matrix(rng, n, 2 / n, -50, 50)
            else:
                a = seeded_matrix(f"{family}/{n}/{rng.uniform(0.6, 1.0):.2f}")
            alone.clear()
            rate, critical, vectors = _principal_eigen(a)
            assert len(alone) == (family != "pq")
            assert rate == karp_max_cycle_mean(a).value
            wider += common_scale(a.entries.values(), (rate,)) > common_scale(a.entries.values())
            star = naive_kleene_star(TropicalMatrix(n, n, {key: v - rate for key, v in a.entries.items()}))
            assert [node for node, _ in vectors] == sorted(critical.nodes)
            for node, column in vectors:
                want = {(i, 0): v for (i, j), v in star.entries.items() if j == node}
                assert (column.rows, column.cols) == (n, 1)
                assert sorted((key, v, type(v)) for key, v in column.entries.items()) == sorted(
                    (key, v, type(v)) for key, v in want.items()
                )
        assert family != "pq" or wider >= 2, wider

    def test_random_instances_satisfy_eigen_equation(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(2, 6)
            a = random_irreducible_matrix(rng, n, 0.5)
            g = build_graph(a)
            lam = karp_max_cycle_mean(g).value
            vecs = principal_eigenvectors(a)
            assert {node for node, _ in vecs} == critical_graph(g, lam).nodes
            for _, col in vecs:
                product = matrix_mul(a, col)
                shifted = TropicalMatrix(
                    n, 1, {key: v + lam for key, v in col.entries.items()}
                )
                assert product == shifted

    @pytest.mark.parametrize("family", ["pq", "wide", "big", "blocks"])
    def test_columns_match_the_star_oracle(self, family):
        # Each column is that column of the rate-shifted matrix's star, by
        # the dict-loop oracle, values with their types: rational rates
        # (pq), entries within +-10^6 (wide), 10^17 * [-5, 5] (big, on
        # object arrays) and block-reducible matrices with one denominator
        # per block (blocks).
        rng = random.Random(f"eigen/{family}")
        for n in (2, 3, 5, 8, 13, 20, 30):
            if family == "blocks":
                sizes = [s for s in (n // 3, n // 3, n - 2 * (n // 3)) if s]
                a = _block_diagonal(rng, sizes, [2, 3, 7], forward=0.2)
            else:
                low, high = {"pq": (-20, 20), "wide": (-(10**6), 10**6), "big": (-5, 5)}[family]
                a = random_irreducible_matrix(rng, n, 0.5, low, high)
            if family == "pq":
                dens = (1, 2, 3, 4, 6)
                entries = {k: Fraction(v, rng.choice(dens)) for k, v in a.entries.items()}
                a = TropicalMatrix(n, n, entries)
            elif family == "big":
                entries = {k: 10**17 * v + rng.randint(-9, 9) for k, v in a.entries.items()}
                a = TropicalMatrix(n, n, entries)
            lam = karp_max_cycle_mean(a).value
            shifted = TropicalMatrix(n, n, {k: v - lam for k, v in a.entries.items()})
            star = naive_kleene_star(shifted)
            vecs = principal_eigenvectors(a)
            assert [node for node, _ in vecs] == sorted(critical_graph(a, lam).nodes)
            for node, col in vecs:
                assert (col.rows, col.cols) == (n, 1)
                want = {(i, 0): v for (i, j), v in star.entries.items() if j == node}
                assert _typed(col.entries) == _typed(want)


def _typed(entries):
    return sorted((key, v, type(v)) for key, v in entries.items())


def test_circuit_record_canonical_rotation():
    weights = {(2, 0): 1, (0, 1): 2, (1, 2): 3}
    c = CircuitRecord.from_nodes(lambda u, v: weights.get((u, v)), (2, 0, 1))
    assert c.nodes == (0, 1, 2)
    assert c.weight == 6
    assert c.length == 3
    assert Fraction(c.weight, c.length) == 2
    assert str(c) == "(1,2,3,1)"


def test_circuit_record_rejects_repeats():
    with pytest.raises(ValueError):
        CircuitRecord((0, 1, 0), 3)
