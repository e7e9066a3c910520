import random
import re

import numpy as np
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
from maxplus import visualize
from maxplus.tropical import _kernel_arrays, common_scale, scaled_int
from maxplus.visualize import _labels_to_last, _layered_max_weights, _sweep_arrays, _sweep_heap
from fixtures import (
    DEMO_A1_ROWS,
    DEMO_A2_ROWS,
    DEMO_A3_ROWS,
    DEMO_D1,
    DEMO_D2,
    DEMO_D3,
    demo_matrix,
    seeded_matrix,
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
        with pytest.raises(InvariantViolationError) as heap:
            _max_weight_to_sink(g, 2)
        # The array sweep's label kernel, on the same block, sink last.
        bottom, c = _kernel_arrays(1, 1, g)
        with pytest.raises(InvariantViolationError, match=re.escape(str(heap.value))):
            _labels_to_last(c, bottom, np.arange(3))


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
    with pytest.raises(InvariantViolationError) as heap:
        visualize_all(a, part)
    # The array sweep, called past its gate, raises the same error.
    with pytest.raises(InvariantViolationError, match=re.escape(str(heap.value))):
        _sweep_arrays(a, part, [rate], 1)


def _sweep_inputs(a):
    """The arguments both private sweeps take, from a matrix and its partition."""
    part = partition_nodes(characteristic_roots(a), a.rows)
    scale = common_scale(a.entries.values(), part.growth_rates)
    srates = [scaled_int(rate, scale) for rate in part.growth_rates]
    return a, part, srates, scale


def _typed(groups):
    """Every group's nodes, entries and scaling, each value with its type."""
    return [
        (
            gv.group,
            gv.nodes,
            gv.matrix.rows,
            sorted((key, v, type(v)) for key, v in gv.matrix.entries.items()),
            [(v, type(v)) for v in gv.scaling],
        )
        for gv in groups
    ]


# Entries c * [-5, 5] of the seeded n = 64 matrix below: the largest c at
# which the array sweep's int64 check holds at every insertion.
_LAST_INSIDE_THE_BOUND = 446868800235212


def _bound_instance(c):
    base = random_matrix(random.Random("bound/64"), 64, 1.0)
    return TropicalMatrix(64, 64, {k: c * v for k, v in base.entries.items()})


@pytest.mark.parametrize("family", ["small", "ties", "pq", "wide", "big"])
def test_array_sweep_matches_the_heap_sweep(family):
    # Labels are maximum path weights, so the two sweeps find the same d
    # and the same groups, values and their types included.  Entries of
    # size 10^17 (big) leave the int64 bound and fall back to the heap sweep.
    # The root search dominates the time of the wide-valued families.
    sizes = (40, 80, 120) if family in ("small", "ties") else (40, 72)
    for n in sizes:
        a = seeded_matrix(f"{family}/{n}/{0.8 if family == 'wide' else 1.0}")
        args = _sweep_inputs(a)
        arrays = _sweep_arrays(*args)
        if family == "big":
            assert arrays is None
            continue
        heap = _sweep_heap(*args)
        assert _typed(arrays) == _typed(heap)
        assert _typed(visualize_all(a, args[1]).groups) == _typed(heap)
        part = args[1]
        for gv in arrays:
            rate = part.growth_rates[gv.group - 1]
            sub = submatrix(a, gv.nodes)
            assert diag_conjugate(sub, gv.scaling, -rate) == gv.matrix
            reference, _ = bellman_ford_visualization(sub, rate)
            pos = {v: k for k, v in enumerate(gv.nodes)}
            for u, v in part.quasi_critical[gv.group - 1].arc_pairs():
                assert reference.get(pos[u], pos[v]) == 0 == gv.matrix.get(pos[u], pos[v])


def test_array_sweep_at_the_int64_bound():
    inside = _sweep_inputs(_bound_instance(_LAST_INSIDE_THE_BOUND))
    assert _typed(_sweep_arrays(*inside)) == _typed(_sweep_heap(*inside))
    assert _sweep_arrays(*_sweep_inputs(_bound_instance(_LAST_INSIDE_THE_BOUND + 1))) is None


def test_the_gate_sends_small_and_sparse_matrices_to_the_heap(monkeypatch):
    calls = []
    monkeypatch.setattr(visualize, "_sweep_arrays", lambda *args: calls.append(args[0].rows))
    rng = random.Random(7)
    for a in (
        random_matrix(rng, 63, 1.0),
        random_matrix(rng, 80, 0.4),
        random_matrix(rng, 64, 1.0),
        random_matrix(rng, 80, 0.6),
    ):
        visualize_all(a, partition_nodes(characteristic_roots(a), a.rows))
    assert calls == [64, 80]
