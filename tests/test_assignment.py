import random
from fractions import Fraction
from itertools import permutations

import pytest

from maxplus.assignment import (
    _NUMPY_MAX_CELLS_PER_ALLOWED,
    _NUMPY_MIN_CELLS_PER_ROW,
    _certify,
    _sentinel_for,
    _solve_min_numpy,
    _solve_min_python,
    max_assignment,
)
from maxplus.charpoly import _at, _lexicographic_costs, _scaled_entries, characteristic_roots
from maxplus.cli import parse_matrix
from maxplus.digraph import karp_max_cycle_mean
from maxplus.oracle import dense_min_assignment
from fixtures import seeded_matrix, workload_module


def _brute_max(weights):
    n = len(weights)
    best = None
    for perm in permutations(range(n)):
        total = 0
        for i, j in enumerate(perm):
            w = weights[i][j]
            if w is None:
                break
            total += w
        else:
            if best is None or total > best:
                best = total
    return best


def _random_instance(rng, n, density, lo=-50, hi=50):
    weights = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                weights[i][j] = rng.randint(lo, hi)
        weights[i][i] = rng.randint(lo, hi)  # keeps the instance feasible
    return weights


def _rows(weights):
    """Sparse rows ``[(j, w), ...]`` of a dense list of lists with None for bottom."""
    return [[(j, x) for j, x in enumerate(row) if x is not None] for row in weights]


def _min_cost(rows):
    """The negated rows ``max_assignment`` minimizes, and their sentinel."""
    max_abs = max((abs(x) for row in rows for _, x in row), default=0)
    return [[(j, -x) for j, x in row] for row in rows], _sentinel_for(len(rows), max_abs)


def _run(solver, cost, sentinel):
    return solver(cost, sentinel) if solver is _solve_min_numpy else solver(cost)


def _solve_with(solver, weights):
    """One backend on the minimization ``max_assignment`` sets up, certified."""
    n = len(weights)
    cost, sentinel = _min_cost(_rows(weights))
    perm, u, v = _run(solver, cost, sentinel)
    assert _certify(cost, perm, u, v)
    return sum(weights[i][perm[i]] for i in range(n)), perm


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_matches_brute_force(backend):
    solver = {"python": _solve_min_python, "numpy": _solve_min_numpy}[backend]
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        weights = _random_instance(rng, n, rng.choice([0.2, 0.5, 0.9]))
        total, perm = _solve_with(solver, weights)
        assert sorted(perm) == list(range(n))
        assert total == sum(weights[i][perm[i]] for i in range(n))
        assert total == _brute_max(weights)
        assert max_assignment(_rows(weights))[0] == total


def test_backends_agree_on_larger_instances():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(10, 40)
        weights = _random_instance(rng, n, 0.4, lo=-10**6, hi=10**6)
        t1, _ = _solve_with(_solve_min_python, weights)
        t2, _ = _solve_with(_solve_min_numpy, weights)
        assert t1 == t2


def test_big_integers_use_exact_path():
    big = 10**30
    weights = [[(0, big)], [(1, big - 1)]]
    total, perm = max_assignment(weights)
    assert total == 2 * big - 1
    assert perm == [0, 1]


def test_infeasible_raises():
    with pytest.raises(ValueError):
        max_assignment([[(1, 1)], [(1, 2)]])


def test_certificate_rejects_corrupted_potentials():
    cost = [[(0, 0), (1, 5)], [(0, 5), (1, 0)]]
    assert _certify(cost, [0, 1], [0, 0], [0, 0])
    # a suboptimal matching is not tight on its cells
    assert not _certify(cost, [1, 0], [0, 0], [0, 0])
    # an infeasible dual is rejected even with a correct matching
    assert not _certify(cost, [0, 1], [3, 0], [0, 0])


def _record(monkeypatch, name, log):
    import maxplus.assignment as assignment

    real = getattr(assignment, name)

    def recorded(*args):
        result = real(*args)
        log.append((name, args, result))
        return result

    monkeypatch.setattr(assignment, name, recorded)


def test_numpy_result_is_certified_once(monkeypatch):
    log = []
    _record(monkeypatch, "_certify", log)
    _record(monkeypatch, "_solve_min_python", log)
    rng = random.Random(17)
    for _ in range(5):
        # at least _NUMPY_MIN_CELLS_PER_ROW finite cells per row on average: int64 first
        n = rng.randint(_NUMPY_MIN_CELLS_PER_ROW + 10, _NUMPY_MIN_CELLS_PER_ROW + 20)
        weights = _random_instance(rng, n, 0.95)
        log.clear()
        max_assignment(_rows(weights))
        assert [(name, result) for name, _, result in log] == [("_certify", True)]


def test_failed_numpy_certificate_is_redone_and_certified(monkeypatch):
    import maxplus.assignment as assignment

    real = assignment._solve_min_numpy

    def corrupted(cost, sentinel):
        perm, u, v = real(cost, sentinel)
        return perm, [x + 1 for x in u], v  # matched cells are no longer tight

    monkeypatch.setattr(assignment, "_solve_min_numpy", corrupted)
    log = []
    _record(monkeypatch, "_certify", log)
    _record(monkeypatch, "_solve_min_python", log)
    weights = _random_instance(random.Random(19), _NUMPY_MIN_CELLS_PER_ROW + 15, 0.95)
    total, perm = max_assignment(_rows(weights))  # dense rows, small weights: int64 first
    names = [name for name, _, _ in log]
    assert names == ["_certify", "_solve_min_python", "_certify"]
    assert log[0][2] is False
    redo = log[1][2]
    assert perm == redo[0]
    assert log[2][1][1:] == redo and log[2][2] is True
    assert total == _solve_with(_solve_min_python, weights)[0]


# The largest max |weight| for which n = _GUARD_N passes the int64 guard
# (sentinel * 4 < 2^62, and the sentinel is (max_abs + 1) times
# _sentinel_for(n, 0)); one more sends the solve to big ints.  Fully finite
# rows at n = _GUARD_N hold exactly the _NUMPY_MIN_CELLS_PER_ROW cells per
# row that the int64 backend needs.
_GUARD_N = _NUMPY_MIN_CELLS_PER_ROW
_GUARD_MAX_ABS = ((1 << 60) - 1) // _sentinel_for(_GUARD_N, 0) - 1


@pytest.mark.parametrize(
    "max_abs, solver",
    [(_GUARD_MAX_ABS, "_solve_min_numpy"), (_GUARD_MAX_ABS + 1, "_solve_min_python")],
)
def test_backend_parity_at_int64_guard(monkeypatch, max_abs, solver):
    n = _GUARD_N
    assert _sentinel_for(n, _GUARD_MAX_ABS) * 4 < 1 << 62
    assert _sentinel_for(n, _GUARD_MAX_ABS + 1) * 4 >= 1 << 62
    log = []
    _record(monkeypatch, "_solve_min_numpy", log)
    _record(monkeypatch, "_solve_min_python", log)
    rng = random.Random(23)
    for _ in range(3):
        weights = _random_instance(rng, n, 1.0, lo=-max_abs, hi=max_abs)
        weights[rng.randrange(n)][rng.randrange(n)] = rng.choice([-max_abs, max_abs])
        log.clear()
        total, perm = max_assignment(_rows(weights))
        assert [name for name, _, _ in log] == [solver]
        assert total == sum(weights[i][perm[i]] for i in range(n))
        assert total == _solve_with(_solve_min_python, weights)[0]


def test_sparse_rows_below_the_guard_take_the_heap_backend(monkeypatch):
    log = []
    _record(monkeypatch, "_solve_min_numpy", log)
    _record(monkeypatch, "_solve_min_python", log)
    weights = _random_instance(random.Random(29), 120, 0.15)
    total, perm = max_assignment(_rows(weights))  # about 19 cells per row, small weights
    assert [name for name, _, _ in log] == ["_solve_min_python"]
    assert total == sum(weights[i][perm[i]] for i in range(120))
    assert total == _solve_with(_solve_min_numpy, weights)[0]


def _sparse_feasible_rows(rng, n, cells):
    """n rows with ``cells`` allowed cells in all, spread evenly, a hidden perfect matching among them."""
    hidden = list(range(n))
    rng.shuffle(hidden)
    rows = []
    for i in range(n):
        want = cells // n + (i < cells % n)
        others = [j for j in rng.sample(range(n), want) if j != hidden[i]][: want - 1]
        rows.append([(j, rng.randint(-5, 5)) for j in [hidden[i], *others]])
    assert sum(map(len, rows)) == cells
    return rows


class _Routed(Exception):
    pass


@pytest.mark.parametrize("short, solver", [(0, "_solve_min_numpy"), (1, "_solve_min_python")])
def test_int64_backend_needs_its_share_of_all_cells(monkeypatch, short, solver):
    # Past the per-row gate, the int64 backend still needs one allowed cell
    # in _NUMPY_MAX_CELLS_PER_ALLOWED of the n x n matrix: exactly that
    # many take it, one cell fewer the heap.  Only the routing is checked;
    # the chosen solver stops the solve.
    import maxplus.assignment as assignment

    n = _NUMPY_MAX_CELLS_PER_ALLOWED * (_NUMPY_MIN_CELLS_PER_ROW + 2)
    rows = _sparse_feasible_rows(random.Random(41), n, n * n // _NUMPY_MAX_CELLS_PER_ALLOWED - short)
    assert sum(map(len, rows)) >= _NUMPY_MIN_CELLS_PER_ROW * n
    for name in ("_solve_min_numpy", "_solve_min_python"):

        def stop(*args, _name=name):
            raise _Routed(_name)

        monkeypatch.setattr(assignment, name, stop)
    with pytest.raises(_Routed, match=solver):
        max_assignment(rows)


def test_sparse_rows_past_the_row_gate_peak_below_the_dense_array(monkeypatch):
    # n = 1,000 with 30 cells per row passes the per-row gate but holds
    # fewer than one cell in 32: the heap solve runs, and the solve peaks
    # below the 8 MB that the int64 backend's cost array alone would take.
    import tracemalloc

    log = []
    _record(monkeypatch, "_solve_min_numpy", log)
    _record(monkeypatch, "_solve_min_python", log)
    n = 1000
    rows = _sparse_feasible_rows(random.Random(43), n, 30 * n)
    tracemalloc.start()
    try:
        total, perm = max_assignment(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [name for name, _, _ in log] == ["_solve_min_python"]
    assert sorted(perm) == list(range(n))
    assert peak < 8 * n * n, peak


def test_heap_backend_raises_when_its_heap_empties():
    # Rows 0-2 reach only columns 0 and 1, so the third phase runs out of columns.
    rows = [[(0, 1), (1, 2)], [(1, 0)], [(0, 3), (1, 1)], [(2, 0), (3, 0)]]
    with pytest.raises(ValueError, match="no feasible assignment"):
        _solve_min_python(rows)
    with pytest.raises(ValueError, match="no feasible assignment"):
        max_assignment(rows)


def test_int64_backend_raises_on_an_empty_column(monkeypatch):
    # No row allows column 2, or column n - 1 below.
    with pytest.raises(ValueError, match="no feasible assignment"):
        _solve_min_numpy(*_min_cost([[(0, 1), (1, 2)], [(1, 0), (0, 3)], [(0, 4), (1, 1)]]))
    import maxplus.assignment as assignment

    monkeypatch.setattr(assignment, "_solve_min_python", lambda rows: pytest.fail("the heap backend ran"))
    rng = random.Random(37)
    n = _NUMPY_MIN_CELLS_PER_ROW + 1  # n - 1 cells per row: int64 first
    rows = [[(j, rng.randint(-5, 5)) for j in range(n - 1)] for _ in range(n)]
    with pytest.raises(ValueError, match="no feasible assignment"):
        max_assignment(rows)


def _chi_rows(a):
    """Both lexicographic cost rows of chi at the largest root of ``a``, its maximum cycle mean."""
    _, lam_s, off, diag = _at(_scaled_entries(a), karp_max_cycle_mean(a).value)
    return [_lexicographic_costs(off, diag, lam_s, want_max_length)[0] for want_max_length in (False, True)]


def _dense(cost, sentinel):
    """The dense list of lists of sparse cost rows, with ``sentinel`` on the forbidden cells."""
    dense = [[sentinel] * len(cost) for _ in cost]
    for i, row in enumerate(cost):
        for j, c in row:
            dense[i][j] = c
    return dense


@pytest.mark.parametrize("n", [_NUMPY_MIN_CELLS_PER_ROW - 1, _NUMPY_MIN_CELLS_PER_ROW, 80])
@pytest.mark.parametrize("family", ["small", "ties", "wide"])
def test_routing_and_parity_on_both_sides_of_the_gate(monkeypatch, family, n):
    # Fully finite rows: n cells per row, so the int64 backend runs from the gate on.
    log = []
    _record(monkeypatch, "_solve_min_numpy", log)
    _record(monkeypatch, "_solve_min_python", log)
    solver = "_solve_min_numpy" if n >= _NUMPY_MIN_CELLS_PER_ROW else "_solve_min_python"
    for rows in _chi_rows(seeded_matrix(f"{family}/{n}/1.0")):
        cost, sentinel = _min_cost(rows)
        expected = dense_min_assignment(_dense(cost, sentinel), sentinel)
        assert _solve_min_python(cost) == expected
        assert _solve_min_numpy(cost, sentinel) == expected
        log.clear()
        max_assignment(rows)
        assert [(name, result) for name, _, result in log] == [(solver, expected)]


def test_workload_rows_route_by_density(monkeypatch):
    # Only the dense main instance (n = 80) has rows dense enough for the
    # int64 backend; the check instances (n <= 25) and the sparse rows stay
    # on the heap.
    log = []
    _record(monkeypatch, "_solve_min_numpy", log)
    _record(monkeypatch, "_solve_min_python", log)
    workloads = workload_module()
    for w in workloads.WORKLOADS.values():
        main, check = workloads.inputs(w, 1)
        for inst in dict.fromkeys((main, check)):
            solver = "_solve_min_numpy" if w.name == "dense" and inst is main else "_solve_min_python"
            log.clear()
            for rows in _chi_rows(parse_matrix(inst.text)):
                max_assignment(rows)
            assert [name for name, _, _ in log] == [solver, solver], (w.name, inst is main)


def _lexicographic_instances():
    """Both lexicographic cost rows of chi at each root and between roots, per toy instance."""
    workloads = workload_module()
    for w in workloads.WORKLOADS.values():
        main, check = workloads.inputs(w, 1, toy=True)
        for inst in dict.fromkeys((main, check)):
            a = parse_matrix(inst.text)
            roots = characteristic_roots(a).roots
            points = set(roots) | {r - 1 for r in roots} | {Fraction(x + y, 2) for x, y in zip(roots, roots[1:])}
            entries = _scaled_entries(a)
            for lam in sorted(points):
                _, lam_s, off, diag = _at(entries, lam)
                for want_max_length in (False, True):
                    yield _lexicographic_costs(off, diag, lam_s, want_max_length)[0]


def _parity_instances():
    rng = random.Random(31)
    for k in range(420):
        n = rng.randint(1, 40)
        density = rng.choice([0.05, 0.1, 0.25, 0.5, 0.75, 1.0])
        lo, hi = [(-50, 50), (-1, 0), (-10**6, 10**6)][k % 3]
        hidden = list(range(n))
        rng.shuffle(hidden)  # a perfect matching, so the instance is feasible
        rows = []
        for i in range(n):
            row = {j: rng.randint(lo, hi) for j in range(n) if rng.random() < density}
            row.setdefault(hidden[i], rng.randint(lo, hi))
            rows.append(sorted(row.items(), key=lambda cell: rng.random()))
        yield rows
    yield from _lexicographic_instances()


def test_heap_numpy_and_dense_reference_agree_exactly():
    count = 0
    for rows in _parity_instances():
        cost, sentinel = _min_cost(rows)
        expected = dense_min_assignment(_dense(cost, sentinel), sentinel)
        assert _solve_min_python(cost) == expected
        assert _solve_min_numpy(cost, sentinel) == expected
        assert _certify(cost, *expected)
        count += 1
    assert count >= 500, count
