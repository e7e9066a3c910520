"""Exact maximum-weight assignment over integer costs.

Dense shortest-augmenting-path solver with potentials (Jonker-Volgenant
style).  All arithmetic is on integers, so results are exact.  Two
interchangeable backends share the algorithm: a numpy int64 one for speed
on matrices whose costs are small enough to rule out overflow, and a plain
Python big-int one for everything else.  Forbidden cells are handled with a
large integer sentinel chosen well above any reachable path cost.

Every solve is certified: the final potentials form a feasible dual with
tight matched cells, which proves optimality by LP duality.  The
certificate is checked in unbounded Python ints, so a silent int64
overflow (or any other defect) cannot produce a wrong answer; if the fast
backend ever fails certification the solve is redone with big ints.
"""

from __future__ import annotations

import numpy as np

_INT64_LIMIT = 1 << 62


def _sentinel_for(n, max_abs):
    # Real alternating-path costs stay well under (8n+6)(max_abs+1); the
    # sentinel sits above twice that so forbidden columns can never win a
    # Dijkstra round of a feasible instance.
    return (max_abs + 1) * (16 * n + 32)


def _solve_min_python(cost, n, sentinel):
    """Plain-int backend; ``cost`` is a dense list of lists (sentinel = forbidden)."""
    infeasible = sentinel // 2
    u = [0] * n
    v = [0] * (n + 1)
    match = [-1] * (n + 1)
    way = [0] * n
    for i in range(n):
        match[n] = i
        j0 = n
        minv = [sentinel] * n
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = cost[i0]
            off = u[i0]
            delta = None
            j1 = -1
            for j in range(n):
                if used[j]:
                    continue
                cur = row[j] - off - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if delta is None or delta >= infeasible:
                raise ValueError("no feasible assignment")
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                elif j < n:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == -1:
                break
        while j0 != n:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    perm = [-1] * n
    for j in range(n):
        perm[match[j]] = j
    return perm, u, v[:n]


def _solve_min_numpy(cost, n, sentinel):
    """int64 backend; bounds are guarded by the caller, results certified after."""
    infeasible = sentinel // 2
    big = np.iinfo(np.int64).max
    c = np.array(cost, dtype=np.int64)
    u = np.zeros(n, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    match = np.full(n + 1, -1, dtype=np.int64)
    way = np.zeros(n, dtype=np.int64)
    for i in range(n):
        match[n] = i
        j0 = n
        minv = np.full(n, sentinel, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = int(match[j0])
            free = ~used[:n]
            cur = c[i0] - u[i0] - v[:n]
            better = free & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            masked = np.where(free, minv, big)
            j1 = int(np.argmin(masked))
            delta = int(masked[j1])
            if delta >= infeasible:
                raise ValueError("no feasible assignment")
            u[match[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match[j0] < 0:
                break
        while j0 != n:
            j1 = int(way[j0])
            match[j0] = match[j1]
            j0 = j1
    perm = [-1] * n
    for j in range(n):
        perm[int(match[j])] = j
    return perm, [int(x) for x in u], [int(x) for x in v[:n]]


def _certify(cost, n, perm, u, v):
    """Optimality certificate: feasible dual, tight on the matched cells."""
    for i in range(n):
        row = cost[i]
        ui = u[i]
        matched = perm[i]
        for j in range(n):
            reduced = row[j] - ui - v[j]
            if reduced < 0 or (j == matched and reduced != 0):
                return False
    return True


def max_assignment(weights):
    """Maximum-weight perfect assignment on a dense square matrix.

    ``weights`` is a list of lists of ints with None marking forbidden
    cells; a perfect matching over the finite cells must exist.  Returns
    ``(total, perm)`` where ``perm[i]`` is the column matched to row i.
    """
    n = len(weights)
    max_abs = 0
    for row in weights:
        if len(row) != n:
            raise ValueError("cost matrix must be square")
        for x in row:
            if x is not None and abs(x) > max_abs:
                max_abs = abs(x)
    sentinel = _sentinel_for(n, max_abs)
    # Minimize the negated weights.
    cost = [
        [sentinel if x is None else -x for x in row]
        for row in weights
    ]
    use_numpy = n >= 16 and sentinel * 4 < _INT64_LIMIT
    if use_numpy:
        perm, u, v = _solve_min_numpy(cost, n, sentinel)
    if not use_numpy or not _certify(cost, n, perm, u, v):
        # A failed int64 certificate means an overflow slipped past the guard
        # or the guard itself is wrong; redo the work exactly.
        perm, u, v = _solve_min_python(cost, n, sentinel)
        if not _certify(cost, n, perm, u, v):
            raise AssertionError("assignment result failed its optimality certificate")
    total = 0
    for i, j in enumerate(perm):
        w = weights[i][j]
        if w is None:
            raise ValueError("solver matched a forbidden cell")
        total += w
    return total, perm
