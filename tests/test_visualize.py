import random

import pytest

from maxplus import (
    CircuitRecord,
    InvariantViolationError,
    NodePartition,
    TropicalMatrix,
    characteristic_roots,
    partition_nodes,
    visualize_all,
)
from maxplus.oracle import (
    bellman_ford_visualization,
    diag_conjugate,
    random_irreducible_matrix,
    random_matrix,
    submatrix,
)
from maxplus.visualize import _layered_max_weights
from fixtures import (
    DEMO_A1_ROWS,
    DEMO_A2_ROWS,
    DEMO_A3_ROWS,
    DEMO_D1,
    DEMO_D2,
    DEMO_D3,
    demo_matrix,
    tm,
)


def demo_visualization():
    a = demo_matrix()
    part = partition_nodes(characteristic_roots(a), 10)
    return part, visualize_all(a, part)


def _max_weight_to_sink(a, sink):
    """Labels of the one-layer backward sweep, as (reachable set, label dict)."""
    in_adj = [[] for _ in range(a.rows)]
    for (u, v), w in a.entries.items():
        in_adj[v].append((u, w))
    labels = _layered_max_weights(a.rows, 1, in_adj.__getitem__, sink, backward=True)
    reachable = frozenset(v for v, lab in enumerate(labels) if lab is not None)
    return reachable, {v: labels[v] for v in reachable}


class TestDijkstraSingleSink:
    def test_isolated_sink(self):
        g = TropicalMatrix.epsilon(1)
        reachable, labels = _max_weight_to_sink(g, 0)
        assert reachable == frozenset({0})
        assert labels == {0: 0}

    def test_chain(self):
        g = TropicalMatrix(3, 3, {(0, 1): -1, (1, 2): -2})
        reachable, labels = _max_weight_to_sink(g, 2)
        assert reachable == frozenset({0, 1, 2})
        assert labels == {0: -3, 1: -2, 2: 0}

    def test_unreachable_node_excluded(self):
        g = TropicalMatrix(3, 3, {(0, 2): -1})
        reachable, labels = _max_weight_to_sink(g, 2)
        assert reachable == frozenset({0, 2})
        assert 1 not in labels

    def test_positive_arcs_incident_to_sink_allowed(self):
        g = TropicalMatrix(3, 3, {(0, 1): -1, (1, 2): 5, (2, 0): 3})
        reachable, labels = _max_weight_to_sink(g, 2)
        assert labels[1] == 5
        assert labels[0] == 4

    def test_positive_arc_elsewhere_rejected(self):
        g = TropicalMatrix(3, 3, {(0, 1): 1, (1, 2): -1})
        with pytest.raises(InvariantViolationError):
            _max_weight_to_sink(g, 2)


class TestDemoVisualization:
    def test_group_3(self):
        _, vis = demo_visualization()
        gv = vis.group(3)
        assert gv.nodes == (5, 6, 7, 8, 9)
        assert gv.scaling == DEMO_D3
        assert gv.matrix == tm(DEMO_A3_ROWS)

    def test_group_2(self):
        _, vis = demo_visualization()
        gv = vis.group(2)
        assert gv.nodes == (3, 4, 5, 6, 7, 8, 9)
        assert gv.scaling == DEMO_D2
        assert gv.matrix == tm(DEMO_A2_ROWS)

    def test_group_1(self):
        _, vis = demo_visualization()
        gv = vis.group(1)
        assert gv.nodes == tuple(range(10))
        assert gv.scaling == DEMO_D1
        assert gv.matrix == tm(DEMO_A1_ROWS)

    def test_single_self_loop(self):
        a = tm([[5]])
        part = partition_nodes(characteristic_roots(a), 1)
        vis = visualize_all(a, part)
        gv = vis.group(1)
        assert gv.matrix == tm([[0]])
        assert gv.scaling == (0,)


def _groups_for(a):
    part = partition_nodes(characteristic_roots(a), a.rows)
    return a, part, visualize_all(a, part)


def _random_cases(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 6)
        out.append(random_matrix(rng, n, rng.choice([0.3, 0.6, 1.0])))
    return out


def _wide_irreducible_cases(count, seed):
    # Larger sparse inputs with wide entries: rational growth rates and
    # several groups, unlike the small integer cases above.
    rng = random.Random(seed)
    return [
        random_irreducible_matrix(rng, rng.randint(10, 30), 0.15, -(10**6), 10**6)
        for _ in range(count)
    ]


def test_all_entries_nonpositive_and_circuit_arcs_zero():
    for a in _random_cases(40, seed=83) + [demo_matrix()]:
        a, part, vis = _groups_for(a)
        for s in range(1, part.r + 1):
            gv = vis.group(s)
            pos = {v: k for k, v in enumerate(gv.nodes)}
            assert all(v <= 0 for v in gv.matrix.entries.values())
            for u, v in part.quasi_critical[s - 1].arc_pairs():
                assert gv.matrix.get(pos[u], pos[v]) == 0


def test_conjugation_identity_holds_exactly():
    for a in _random_cases(25, seed=89) + [demo_matrix()] + _wide_irreducible_cases(6, seed=101):
        a, part, vis = _groups_for(a)
        for s in range(1, part.r + 1):
            gv = vis.group(s)
            sub = submatrix(a, gv.nodes)
            rebuilt = diag_conjugate(sub, gv.scaling, -part.growth_rates[s - 1])
            assert rebuilt == gv.matrix


def test_agrees_with_single_shot_reference():
    # An order-free label-correcting visualization must also be nonpositive
    # and put zeros on the same quasi-critical arcs.
    for a in _random_cases(25, seed=97) + [demo_matrix()] + _wide_irreducible_cases(6, seed=101):
        a, part, vis = _groups_for(a)
        for s in range(1, part.r + 1):
            gv = vis.group(s)
            sub = submatrix(a, gv.nodes)
            reference, _ = bellman_ford_visualization(sub, part.growth_rates[s - 1])
            assert all(v <= 0 for v in reference.entries.values())
            pos = {v: k for k, v in enumerate(gv.nodes)}
            for u, v in part.quasi_critical[s - 1].arc_pairs():
                assert reference.get(pos[u], pos[v]) == 0
                assert gv.matrix.get(pos[u], pos[v]) == 0


def test_acyclic_matrix_has_no_groups():
    a = tm([[None, 2], [None, None]])
    part = partition_nodes(characteristic_roots(a), 2)
    assert visualize_all(a, part).groups == ()


def test_partition_matrix_size_mismatch_rejected():
    a = demo_matrix()
    part = partition_nodes(characteristic_roots(a), 10)
    with pytest.raises(ValueError):
        visualize_all(tm([[1]]), part)


@pytest.mark.parametrize(
    "rows, rate",
    [
        ([[5]], 4),  # the self-loop stays positive
        ([[None, 3], [3, None]], 2),  # an arc inside the reachable set stays positive
        ([[None, 3], [3, None]], 4),  # the quasi-critical circuit does not reach 0
    ],
)
def test_wrong_growth_rate_raises(rows, rate):
    a = tm(rows)
    nodes = tuple(range(a.rows))
    circuit = CircuitRecord.from_nodes(a.get, nodes)
    part = NodePartition(a.rows, (nodes,), (rate,), (circuit,))
    with pytest.raises(InvariantViolationError):
        visualize_all(a, part)
