import random
from itertools import permutations

import pytest

from maxplus.assignment import (
    _certify,
    _sentinel_for,
    _solve_min_numpy,
    _solve_min_python,
    max_assignment,
)


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


def _solve_with(solver, weights):
    """One backend on the minimization ``max_assignment`` sets up, certified."""
    n = len(weights)
    max_abs = max((abs(x) for row in weights for x in row if x is not None), default=0)
    sentinel = _sentinel_for(n, max_abs)
    cost = [[sentinel if x is None else -x for x in row] for row in weights]
    perm, u, v = solver(cost, n, sentinel)
    assert _certify(cost, n, perm, u, v)
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
        assert max_assignment(weights)[0] == total


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
    weights = [[big, None], [None, big - 1]]
    total, perm = max_assignment(weights)
    assert total == 2 * big - 1
    assert perm == [0, 1]


def test_infeasible_raises():
    with pytest.raises(ValueError):
        max_assignment([[None, 1], [None, 2]])


def test_certificate_rejects_corrupted_potentials():
    cost = [[0, 5], [5, 0]]
    assert _certify(cost, 2, [0, 1], [0, 0], [0, 0])
    # a suboptimal matching is not tight on its cells
    assert not _certify(cost, 2, [1, 0], [0, 0], [0, 0])
    # an infeasible dual is rejected even with a correct matching
    assert not _certify(cost, 2, [0, 1], [3, 0], [0, 0])


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
        weights = _random_instance(rng, rng.randint(16, 30), 0.4)
        log.clear()
        max_assignment(weights)
        assert [(name, result) for name, _, result in log] == [("_certify", True)]


def test_failed_numpy_certificate_is_redone_and_certified(monkeypatch):
    import maxplus.assignment as assignment

    real = assignment._solve_min_numpy

    def corrupted(cost, n, sentinel):
        perm, u, v = real(cost, n, sentinel)
        return perm, [x + 1 for x in u], v  # matched cells are no longer tight

    monkeypatch.setattr(assignment, "_solve_min_numpy", corrupted)
    log = []
    _record(monkeypatch, "_certify", log)
    _record(monkeypatch, "_solve_min_python", log)
    weights = _random_instance(random.Random(19), 20, 0.4)
    total, perm = max_assignment(weights)  # n = 20 with small weights: int64 first
    names = [name for name, _, _ in log]
    assert names == ["_certify", "_solve_min_python", "_certify"]
    assert log[0][2] is False
    redo = log[1][2]
    assert perm == redo[0]
    assert log[2][1][2:] == redo and log[2][2] is True
    assert total == _solve_with(_solve_min_python, weights)[0]


# The largest max |weight| for which n = 16 passes the int64 guard
# (sentinel * 4 < 2^62); one more sends the solve to big ints.
_GUARD_MAX_ABS = 4_003_199_668_773_773


@pytest.mark.parametrize(
    "max_abs, solver",
    [(_GUARD_MAX_ABS, "_solve_min_numpy"), (_GUARD_MAX_ABS + 1, "_solve_min_python")],
)
def test_backend_parity_at_int64_guard(monkeypatch, max_abs, solver):
    assert _sentinel_for(16, _GUARD_MAX_ABS) * 4 < 1 << 62
    assert _sentinel_for(16, _GUARD_MAX_ABS + 1) * 4 >= 1 << 62
    log = []
    _record(monkeypatch, "_solve_min_numpy", log)
    _record(monkeypatch, "_solve_min_python", log)
    rng = random.Random(23)
    for _ in range(5):
        weights = _random_instance(rng, 16, 0.5, lo=-max_abs, hi=max_abs)
        weights[rng.randrange(16)][rng.randrange(16)] = rng.choice([-max_abs, max_abs])
        log.clear()
        total, perm = max_assignment(weights)
        assert [name for name, _, _ in log] == [solver]
        assert total == sum(weights[i][perm[i]] for i in range(16))
        assert total == _solve_with(_solve_min_python, weights)[0]
