"""Exact maximum-weight assignment over integer costs.

Shortest-augmenting-path solver with potentials (Jonker-Volgenant style).
All arithmetic is on integers, so results are exact.  Costs arrive as
sparse rows, ``rows[i] = [(j, cost), ...]`` over the allowed cells only.
Two backends share the algorithm and return the same permutation and
potentials:

- the default one keeps the keys of a Dijkstra phase in a heap over the
  sparse rows: O(m + n log n) per phase, in plain Python ints;
- a dense numpy int64 one, for rows dense enough that its vector scans win
  and its n x n cost array stays within a few times the rows, and costs
  small enough to rule out overflow, keeps them in an array of n keys,
  with the forbidden cells at a large integer sentinel chosen well above
  any reachable path cost.

Both keep the phase's books lazily.  A column's key is absolute, reduced
cost + D, with D the key of the column whose row is scanned and the
potentials as they were when the phase began.  A settled column never
wins again and keeps the predecessor it was settled with: the heap skips
it, and the array raises its key and its column offset far above every
other key.  The potentials of the phase's columns are settled from the
``(column, D)`` list when the phase ends.

The eager loop that updates every potential and key at each step holds
each unsettled key minus D, so it compares the same numbers shifted by one
amount.  The heap pops the smallest key, then the smallest column, which
is the array's first minimum and the eager scan's, so all three pick the
same augmenting paths.  ``maxplus.oracle.dense_min_assignment`` is the
eager loop in plain ints, kept as their independent reference.

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
# cells on average.  On the lexicographic chi rows of dense and half-dense
# [-5, 5] matrices the two tie at 20-26 cells per row, and the int64
# backend wins from 28 on, at every n measured up to 1,500.
_NUMPY_MIN_CELLS_PER_ROW = 28
# It also needs at least one allowed cell in _NUMPY_MAX_CELLS_PER_ALLOWED
# of the n x n matrix.  Its cost array takes 8 bytes a cell whatever the
# density, and the rows at least 64 bytes an allowed cell (a 2-tuple and
# its list slot), so the array stays within 4 times the rows.  On seeded
# random rows under tracemalloc, n = 1,500 with 30 cells per row peaked
# 20 MiB above the rows on int64 and 0.6 MiB on the heap, in about the same
# time; at one cell in 32 (n = 1,500, 47 per row) the heap took 1.24x
# the int64 solve's time, and at one in 8 (n = 800, 99 per row) 2.4x.
_NUMPY_MAX_CELLS_PER_ALLOWED = 32


def _sentinel_for(n, max_abs):
    # Real alternating-path costs stay well under (8n+6)(max_abs+1); the
    # sentinel sits above twice that so forbidden columns can never win a
    # Dijkstra round of a feasible instance.
    return (max_abs + 1) * (16 * n + 32)


def _int64_backend(n, cells, max_abs):
    """Whether ``max_assignment`` takes the int64 backend: n rows, ``cells`` cells, |cost| <= ``max_abs``."""
    return (
        cells >= _NUMPY_MIN_CELLS_PER_ROW * n
        and cells * _NUMPY_MAX_CELLS_PER_ALLOWED >= n * n
        and _sentinel_for(n, max_abs) * 4 < _INT64_LIMIT
    )


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
    """int64 backend on the dense cost matrix; returns ``(perm, u, v)`` in plain ints.

    Forbidden cells cost S = ``sentinel``.  A settled column's key and its
    column offset ``v`` both rise by P = ``_INT64_LIMIT`` = 2^62 until the
    phase ends.  With M the largest |cost|, the caller's guard 4S < 2^62
    gives S < 2^60 and M < S / 48, and every number stays inside int64:

    - When a phase begins, u + v <= c holds on every cell of the rows
      matched so far, S included, tight on their matched cells, and a free
      column has v = 0.  So those rows have -M <= u <= S, and their
      columns 0 <= -v <= S + M.
    - A scan of row ``i0`` adds ``d - u[i0]`` in [-S - M, S/2 + M] to
      ``c - v`` in [-M, 2S + M + P]: d, the key of the row's column (0 for
      the phase's own row), lies in [-M, S/2), since a phase settles no
      column at S/2 or more.  Every key lies in (-2^61, 3S + P), inside
      (-2^63, 2^63).
    - Unsettled keys stay at most 2.5S + 2M < P - M and settled ones at
      least P - M, so ``argmin`` never returns a settled column.  A matched
      row scanned later has reduced cost >= 0 and a d no smaller than the
      settled key, so its value there is at least that key + P: strict
      ``<`` never updates the key or its predecessor in ``way``.
    - A feasible instance never raises: with Q a perfect matching of
      allowed cells, the phase's row starts a path that alternates cells
      of Q with matched cells and ends at a free column.  Its reduced
      length is c summed over its Q cells minus c summed over its matched
      ones, at most (2n - 1)M < S/2, and Dijkstra's D is no longer.  An
      infeasible instance that does not raise matches a forbidden cell,
      fails the certificate, and the heap backend redoing it raises.
    """
    n = len(rows)
    infeasible = sentinel // 2
    c = np.full(n * n, sentinel, dtype=np.int64)
    c[[i * n + j for i, row in enumerate(rows) for j, _ in row]] = [
        x for row in rows for _, x in row
    ]
    c = list(c.reshape(n, n))
    u = [0] * n
    v = np.zeros(n, dtype=np.int64)
    match = [-1] * (n + 1)  # column n is the root of each phase's tree
    way = np.zeros(n, dtype=np.int64)
    keys = np.empty(n, dtype=np.int64)
    cur = np.empty(n, dtype=np.int64)
    better = np.empty(n, dtype=bool)
    # 0-d operands: numpy converts a Python int on every call.
    base = np.empty((), dtype=np.int64)
    column = [np.array(j, dtype=np.int64) for j in range(n + 1)]
    for i in range(n):
        match[n] = i
        keys.fill(sentinel)
        settled = []  # (column, D when it was settled)
        d = 0
        j0 = n
        while True:
            i0 = match[j0]
            base[()] = d - u[i0]
            np.subtract(c[i0], v, cur)
            np.add(cur, base, cur)
            np.less(cur, keys, better)
            np.copyto(keys, cur, where=better)
            np.copyto(way, column[j0], where=better)
            j0 = int(keys.argmin())
            d = keys.item(j0)
            if d >= infeasible:
                raise ValueError("no feasible assignment")
            if match[j0] == -1:
                break
            keys[j0] = d + _INT64_LIMIT
            v[j0] -= _INT64_LIMIT
            settled.append((j0, d))
        u[i] += d
        for j, dj in settled:
            u[match[j]] += d - dj
            v[j] += _INT64_LIMIT - (d - dj)
        while j0 != n:
            j1 = int(way[j0])
            match[j0] = match[j1]
            j0 = j1
    perm = [-1] * n
    for j in range(n):
        perm[match[j]] = j
    return perm, u, v.tolist()


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
    use_numpy = _int64_backend(n, cells, max_abs)
    if use_numpy:
        perm, u, v = _solve_min_numpy(cost, _sentinel_for(n, max_abs))
    if not use_numpy or not _certify(cost, perm, u, v):
        # A failed int64 certificate means an overflow slipped past the guard
        # or the guard itself is wrong; redo the work exactly.
        perm, u, v = _solve_min_python(cost)
        if not _certify(cost, perm, u, v):
            raise AssertionError("assignment result failed its optimality certificate")
    # The certificate is tight on the matched cells, so the matched cost is
    # the dual objective.
    return -(sum(u) + sum(v)), perm
