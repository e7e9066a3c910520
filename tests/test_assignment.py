import random
from itertools import permutations

import pytest

from maxplus.assignment import max_assignment


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


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_matches_brute_force(backend):
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        weights = _random_instance(rng, n, rng.choice([0.2, 0.5, 0.9]))
        total, perm = max_assignment(weights, force_backend=backend)
        assert sorted(perm) == list(range(n))
        assert total == sum(weights[i][perm[i]] for i in range(n))
        assert total == _brute_max(weights)


def test_backends_agree_on_larger_instances():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(10, 40)
        weights = _random_instance(rng, n, 0.4, lo=-10**6, hi=10**6)
        t1, _ = max_assignment(weights, force_backend="python")
        t2, _ = max_assignment(weights, force_backend="numpy")
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
    from maxplus.assignment import _certify

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
    total, perm = max_assignment(weights, force_backend="numpy")
    names = [name for name, _, _ in log]
    assert names == ["_certify", "_solve_min_python", "_certify"]
    assert log[0][2] is False
    redo = log[1][2]
    assert perm == redo[0]
    assert log[2][1][2:] == redo and log[2][2] is True
    assert total == max_assignment(weights, force_backend="python")[0]
