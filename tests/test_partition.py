import random
from fractions import Fraction

from maxplus import (
    TropicalScalar,
    build_graph,
    characteristic_roots,
    karp_max_cycle_mean,
    partition_nodes,
)
from maxplus.oracle import random_matrix, submatrix
from fixtures import (
    DEMO_GROUPS,
    DEMO_QUASI_CIRCUITS,
    DEMO_RATES,
    demo_matrix,
    tm,
)


def test_demo_groups():
    mm = characteristic_roots(demo_matrix())
    part = partition_nodes(mm, 10)
    assert part.groups == DEMO_GROUPS
    assert part.growth_rates == DEMO_RATES
    assert tuple(c.nodes for c in part.quasi_critical) == DEMO_QUASI_CIRCUITS
    assert part.growth_rates == (mm.roots[0], mm.roots[2], mm.roots[4])


def test_single_self_loop():
    a = tm([[5]])
    part = partition_nodes(characteristic_roots(a), 1)
    assert part.groups == ((0,),)
    assert part.growth_rates == (5,)
    assert part.quasi_critical[0].nodes == (0,)


def test_acyclic_yields_empty_partition():
    a = tm([[None, 3], [None, None]])
    part = partition_nodes(characteristic_roots(a), 2)
    assert part.r == 0
    assert part.groups == ()


def test_quasi_critical_mean_equals_growth_rate():
    rng = random.Random(71)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
        part = partition_nodes(characteristic_roots(a), n)
        for s in range(1, part.r + 1):
            circuit = part.quasi_critical[s - 1]
            assert Fraction(circuit.weight, circuit.length) == part.growth_rates[s - 1]


def test_remaining_subgraph_max_mean_equals_growth_rate():
    rng = random.Random(73)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
        part = partition_nodes(characteristic_roots(a), n)
        for s in range(1, part.r + 1):
            # The s-th term lives on group s and the groups after it.
            sub = submatrix(a, tuple(sorted(v for grp in part.groups[s - 1 :] for v in grp)))
            lam = karp_max_cycle_mean(build_graph(sub))
            assert lam == TropicalScalar(part.growth_rates[s - 1])


def test_groups_cover_and_are_disjoint():
    rng = random.Random(79)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0]))
        part = partition_nodes(characteristic_roots(a), n)
        if part.r == 0:
            continue
        seen = [v for grp in part.groups for v in grp]
        assert sorted(seen) == list(range(n))


def test_partition_is_deterministic():
    a = demo_matrix()
    first = partition_nodes(characteristic_roots(a), 10)
    second = partition_nodes(characteristic_roots(a), 10)
    assert first == second
