"""Exact maximum-weight assignment over integer costs.

Shortest-augmenting-path solver with potentials (Jonker-Volgenant style).
All arithmetic is on integers, so results are exact.  Costs arrive as
sparse rows, ``rows[i] = [(j, cost), ...]`` over the allowed cells only.
Two backends share the algorithm and return the same permutation and
potentials:

- the default one runs each Dijkstra phase on the sparse rows with a heap
  keyed by ``(reduced cost + D, column)``, where D is the running sum of
  the phase's deltas, and settles the potentials of the phase's columns
  lazily at its end: O(m + n log n) per phase, in plain Python ints;
- a dense numpy int64 one, for rows dense enough that its vector scans win
  and costs small enough to rule out overflow.  It fills the forbidden
  cells with a large integer sentinel chosen well above any reachable path
  cost.

The heap pops the smallest key, then the smallest column, which is the
dense scan's first minimum, so both pick the same augmenting paths.
``maxplus.oracle.dense_min_assignment`` is the dense loop in plain ints,
kept as their independent reference.

Every solve is certified: the final potentials form a feasible dual over
the allowed cells, tight on the matched ones, which proves optimality by
LP duality.  The certificate is checked in unbounded Python ints, so a
silent int64 overflow (or any other defect) cannot produce a wrong
answer; if the fast backend ever fails certification the solve is redone
with big ints.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

_INT64_LIMIT = 1 << 62
# The dense int64 backend runs only on rows with at least this many allowed
# cells on average, about where it ties with the heap on dense chi costs.
_NUMPY_MIN_CELLS_PER_ROW = 145


def _sentinel_for(n, max_abs):
    # Real alternating-path costs stay well under (8n+6)(max_abs+1); the
    # sentinel sits above twice that so forbidden columns can never win a
    # Dijkstra round of a feasible instance.
    return (max_abs + 1) * (16 * n + 32)


def _solve_min_python(rows):
    """Heap backend on sparse rows; returns ``(perm, u, v)`` in plain ints."""
    n = len(rows)
    u = [0] * n
    v = [0] * n
    match = [-1] * (n + 1)  # column n is the root of each phase's tree
    way = [0] * n
    for i in range(n):
        match[n] = i
        best = {}  # column -> smallest key pushed this phase
        used = set()
        settled = []  # (column, D when it was settled)
        heap = []
        d = 0
        j0 = n
        while True:
            i0 = match[j0]
            base = d - u[i0]
            for j, c in rows[i0]:
                if j in used:
                    continue
                key = c - v[j] + base
                b = best.get(j)
                if b is None or key < b:
                    best[j] = key
                    way[j] = j0
                    heappush(heap, (key, j))
            while heap:
                key, j0 = heappop(heap)
                if best[j0] == key:
                    break
            else:
                raise ValueError("no feasible assignment")
            d = key
            if match[j0] == -1:
                break
            used.add(j0)
            settled.append((j0, d))
        u[i] += d
        for j, dj in settled:
            u[match[j]] += d - dj
            v[j] -= d - dj
        while j0 != n:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    perm = [-1] * n
    for j in range(n):
        perm[match[j]] = j
    return perm, u, v


def _solve_min_numpy(rows, sentinel):
    """int64 backend; bounds are guarded by the caller, results certified after."""
    n = len(rows)
    infeasible = sentinel // 2
    big = np.iinfo(np.int64).max
    c = np.full(n * n, sentinel, dtype=np.int64)
    c[[i * n + j for i, row in enumerate(rows) for j, _ in row]] = [
        x for row in rows for _, x in row
    ]
    c = c.reshape(n, n)
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


def _certify(rows, perm, u, v):
    """Optimality certificate: feasible dual on the allowed cells, tight on the matched ones."""
    for i, row in enumerate(rows):
        ui = u[i]
        matched = perm[i]
        tight = False
        for j, c in row:
            reduced = c - ui - v[j]
            if reduced < 0:
                return False
            if j == matched:
                if reduced != 0:
                    return False
                tight = True
        if not tight:
            return False
    return True


def max_assignment(weights):
    """Maximum-weight perfect assignment over the finite cells of a square matrix.

    ``weights[i]`` lists the finite cells of row i as ``(j, w)`` pairs with
    int ``w``; every other cell is forbidden, and a perfect matching over
    the finite cells must exist.  Returns ``(total, perm)`` where
    ``perm[i]`` is the column matched to row i.
    """
    n = len(weights)
    max_abs = 0
    cells = 0
    for row in weights:
        cells += len(row)
        for j, x in row:
            if not 0 <= j < n:
                raise ValueError("cost matrix must be square")
            if abs(x) > max_abs:
                max_abs = abs(x)
    # Minimize the negated weights.
    cost = [[(j, -x) for j, x in row] for row in weights]
    sentinel = _sentinel_for(n, max_abs)
    use_numpy = cells >= _NUMPY_MIN_CELLS_PER_ROW * n and sentinel * 4 < _INT64_LIMIT
    if use_numpy:
        perm, u, v = _solve_min_numpy(cost, sentinel)
    if not use_numpy or not _certify(cost, perm, u, v):
        # A failed int64 certificate means an overflow slipped past the guard
        # or the guard itself is wrong; redo the work exactly.
        perm, u, v = _solve_min_python(cost)
        if not _certify(cost, perm, u, v):
            raise AssertionError("assignment result failed its optimality certificate")
    # The certificate is tight on the matched cells, so the matched cost is
    # the dual objective.
    return -(sum(u) + sum(v)), perm
