"""Independent brute-force references for every pipeline stage.

Everything here is deliberately naive: permanents by permutation sweep,
multi-circuits by exhaustive enumeration of node-disjoint circuit families,
power checks by repeated multiplication, products by a dict loop over the
raw rationals, assignments by the dense shortest-augmenting-path loop, the
root search by a full ``chi_eval``, both assignments from scratch, at
every point.
These paths exist to validate the fast implementations, so they refuse
inputs large enough to take forever instead of silently running.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction

from .charpoly import ChiEvaluation, Mmcs, MultiCircuit, _brackets, _mmcs, _scaled_entries, chi_eval
from .digraph import CircuitRecord
from .tropical import (
    DimensionMismatchError,
    PositiveCircuitError,
    TropicalMatrix,
    _kernel_arrays,
    _kernel_result,
    _max_plus_power,
    _max_plus_product,
    as_value,
    common_scale,
    matrix_mul,  # noqa: F401 -- perfbench/tracing.py wraps oracle.matrix_mul
    matrix_power,  # noqa: F401 -- and oracle.matrix_power
)

_MAX_BRUTE_N = 12
_WORK_BUDGET = 5_000_000


def _guard(n):
    if n > _MAX_BRUTE_N:
        raise ValueError(f"brute-force oracle refuses n={n} (limit {_MAX_BRUTE_N})")


class _Budget:
    """Step counter so dense instances fail fast instead of running forever."""

    __slots__ = ("left",)

    def __init__(self, steps=_WORK_BUDGET):
        self.left = steps

    def spend(self, amount=1):
        self.left -= amount
        if self.left < 0:
            raise ValueError("brute-force oracle exceeded its work budget")


@dataclass(frozen=True, slots=True)
class OracleReport:
    """Outcome of one oracle comparison, with a reproducible counterexample."""

    stage: str
    instance: str
    match: bool
    counterexample: tuple | None = None
    seed: int | None = None


def dense_min_assignment(cost, sentinel):
    """Minimum-cost assignment by the dense shortest-augmenting-path loop.

    ``cost`` is a dense list of lists with ``sentinel`` on the forbidden
    cells.  Each Dijkstra phase scans every column and takes the first
    minimal one, with the potentials and the keys updated eagerly at every
    step.  Both ``maxplus.assignment`` backends keep those books lazily
    (absolute keys, potentials settled when the phase ends), so this loop
    stays their independent twin: it returns the ``(perm, u, v)`` that
    each of them must return.
    """
    n = len(cost)
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


def brute_chi(a: TropicalMatrix, lam):
    """chi(lam) as a max over all permutations of the lifted matrix.

    The sweep branches row by row over finite cells only, so sparse
    instances stay cheap; a work budget rejects dense ones that would take
    factorial time.
    """
    n = a.rows
    _guard(n)
    lam = as_value(lam)
    rows = [[] for _ in range(n)]
    for (i, j), v in a.entries.items():
        if i != j:
            rows[i].append((j, v))
    for i in range(n):
        av = a.entries.get((i, i))
        rows[i].append((i, lam if av is None or av < lam else av))
    budget = _Budget()
    best = None

    def sweep(i, used, total):
        nonlocal best
        budget.spend()
        if i == n:
            if best is None or total > best:
                best = total
            return
        for j, v in rows[i]:
            if not (used >> j) & 1:
                sweep(i + 1, used | (1 << j), total + v)

    sweep(0, 0, 0)
    return None if best is None else as_value(best)


def elementary_circuits(a: TropicalMatrix):
    """All elementary circuits of the digraph of ``a``, as CircuitRecords."""
    n = a.rows
    _guard(n)
    succ = [[] for _ in range(n)]
    for (i, j), v in sorted(a.entries.items()):
        succ[i].append(j)
    weight_of = lambda u, v: a.entries.get((u, v))
    budget = _Budget()
    found = []

    def extend(start, path, on_path):
        u = path[-1]
        for v in succ[u]:
            budget.spend()
            if v == start:
                found.append(CircuitRecord.from_nodes(weight_of, tuple(path)))
            elif v > start and v not in on_path:
                on_path.add(v)
                path.append(v)
                extend(start, path, on_path)
                path.pop()
                on_path.remove(v)

    for start in range(n):
        extend(start, [start], {start})
    return found


@dataclass(frozen=True, slots=True)
class BruteMmcDescription:
    """Exhaustive description of chi: best multi-circuit per total length.

    ``best_by_length[k]`` is the maximum-weight multi-circuit of total
    length k (k = 0 is always present, as the empty multi-circuit).  The
    roots of chi and the MMCS lengths fall out of the concave upper
    envelope of those (length, weight) points.
    """

    n: int
    best_by_length: dict
    roots: tuple
    multiplicities: tuple
    epsilon_multiplicity: int
    mmcs_lengths: tuple

    def chi_at(self, lam):
        lam = as_value(lam)
        return as_value(
            max(
                mc.total_weight + lam * (self.n - k)
                for k, mc in self.best_by_length.items()
            )
        )


def brute_mmc(a: TropicalMatrix) -> BruteMmcDescription:
    """Enumerate every node-disjoint circuit family and summarize chi."""
    n = a.rows
    _guard(n)
    circuits = elementary_circuits(a)
    masks = [sum(1 << v for v in c.nodes) for c in circuits]
    best = {0: MultiCircuit.empty()}
    budget = _Budget()

    def walk(idx, mask, chosen):
        for k in range(idx, len(circuits)):
            if masks[k] & mask:
                continue
            budget.spend()
            chosen.append(circuits[k])
            mc = MultiCircuit(tuple(chosen))
            cur = best.get(mc.total_length)
            if cur is None or mc.total_weight > cur.total_weight:
                best[mc.total_length] = mc
            walk(k + 1, mask | masks[k], chosen)
            chosen.pop()

    walk(0, 0, [])
    # Concave upper envelope of (length, weight): its vertices are the MMCS,
    # slopes between consecutive vertices are the roots (descending, since
    # the envelope is concave in the length).
    points = sorted((k, Fraction(mc.total_weight)) for k, mc in best.items())
    hull = []
    for x3, y3 in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x3 - x2) <= (y3 - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x3, y3))
    roots = []
    mults = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        roots.append(as_value(Fraction(y2 - y1, x2 - x1)))
        mults.append(x2 - x1)
    mmcs_lengths = tuple(x for x, _ in hull)
    return BruteMmcDescription(
        n=n,
        best_by_length=best,
        roots=tuple(roots),
        multiplicities=tuple(mults),
        epsilon_multiplicity=n - hull[-1][0],
        mmcs_lengths=mmcs_lengths,
    )


def roots_by_chi_eval(a: TropicalMatrix) -> Mmcs:
    """``characteristic_roots`` with every evaluation a cold ``chi_eval``.

    The same brackets, supporting-line search and MMCS assembly, but each
    point runs both lexicographic assignments and reads both its lines
    from the two witnesses: the twin of a search that runs only the long
    one and takes a root's right piece from the next line found above it.
    """
    if not a.is_square:
        raise DimensionMismatchError("roots are defined for square matrices")
    n = a.rows
    if not a.entries:
        return Mmcs((), n, (MultiCircuit.empty(),))
    lo, hi = _brackets(_scaled_entries(a))
    e_lo = chi_eval(a, lo)
    if e_lo.min_length != e_lo.max_length:
        raise AssertionError("bracketing points must not be breakpoints")
    empty = MultiCircuit.empty()
    found = {}
    stack = [(lo, e_lo, hi, ChiEvaluation(n, hi, as_value(n * hi), 0, 0, empty, empty))]
    while stack:
        lo, e_lo, hi, e_hi = stack.pop()
        s_lo, b_lo = n - e_lo.min_length, e_lo.witness_min.total_weight
        s_hi, b_hi = n - e_hi.max_length, e_hi.witness_max.total_weight
        if s_lo == s_hi:
            if b_lo != b_hi:
                raise AssertionError("parallel distinct supporting lines")
            continue
        lam_star = as_value(Fraction(b_lo - b_hi, s_hi - s_lo))
        if not (lo < lam_star < hi):
            raise AssertionError("line intersection escaped the search interval")
        e_star = chi_eval(a, lam_star)
        if e_star.min_length < e_star.max_length:
            found[lam_star] = (e_star.min_length, e_star.witness_max)
        if e_star.value == b_lo + lam_star * s_lo:
            continue
        if (n - e_star.min_length, e_star.witness_min.total_weight) != (s_hi, b_hi):
            stack.append((lam_star, e_star, hi, e_hi))
        if (n - e_star.max_length, e_star.witness_max.total_weight) != (s_lo, b_lo):
            stack.append((lo, e_lo, lam_star, e_star))
    return _mmcs(n, found)


def naive_matrix_mul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Max-plus product by a loop over the finite entries, on the raw rationals.

    Reference for ``maxplus.tropical.matrix_mul``, which runs an array
    kernel in the scaled-integer domain.
    """
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    b_rows = [[] for _ in range(b.rows)]
    for (k, j), v in b.entries.items():
        b_rows[k].append((j, v))
    out = {}
    for (i, k), av in a.entries.items():
        for j, bv in b_rows[k]:
            cand = av + bv
            cur = out.get((i, j))
            if cur is None or cand > cur:
                out[(i, j)] = cand
    return TropicalMatrix(a.rows, b.cols, out)


def naive_matrix_power(a: TropicalMatrix, t: int) -> TropicalMatrix:
    """t-th power by binary exponentiation over ``naive_matrix_mul``; t = 0 gives the identity."""
    result = TropicalMatrix.identity(a.rows)
    while t:
        if t & 1:
            result = naive_matrix_mul(result, a)
        t >>= 1
        if t:
            a = naive_matrix_mul(a, a)
    return result


def naive_kleene_star(a: TropicalMatrix) -> TropicalMatrix:
    """Kleene star by the Floyd-Warshall loop over dense row lists, on the raw rationals.

    Reference for ``maxplus.tropical.kleene_star``, which runs an array
    kernel in the scaled-integer domain.  The loop finds the best nonempty
    paths; a positive diagonal then means a positive-weight circuit
    (PositiveCircuitError), and otherwise the diagonal becomes the empty
    path's 0.
    """
    if not a.is_square:
        raise DimensionMismatchError("Kleene star needs a square matrix")
    n = a.rows
    dist = a.to_rows()
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik is None:
                continue
            row_i = dist[i]
            for j in range(n):
                d_kj = row_k[j]
                if d_kj is None:
                    continue
                cand = d_ik + d_kj
                cur = row_i[j]
                if cur is None or cand > cur:
                    row_i[j] = cand
    for v in range(n):
        if dist[v][v] is not None and dist[v][v] > 0:
            raise PositiveCircuitError()
        dist[v][v] = 0
    return TropicalMatrix.from_rows(dist)


def mod_length_closure(a_vis: TropicalMatrix, ell: int) -> TropicalMatrix:
    """Best path weights with length divisible by ell: the star of the ell-th power."""
    return naive_kleene_star(naive_matrix_power(a_vis, ell))


def critical_arcs_by_star(a: TropicalMatrix, rate):
    """Critical arcs at ``rate`` by their definition through the Kleene star.

    An arc (u, v) is critical exactly when a_uv - rate + star[v][u] == 0,
    where star is the Kleene star of a shifted by -rate: the arc closes a
    circuit of mean exactly rate.  Below the maximum cycle mean the star
    diverges and PositiveCircuitError is raised.
    """
    shifted = {key: v - rate for key, v in a.entries.items()}
    star = naive_kleene_star(TropicalMatrix(a.rows, a.cols, shifted))
    return frozenset(
        (u, v)
        for (u, v), w in shifted.items()
        if (back := star.get(v, u)) is not None and w + back == 0
    )


@dataclass(frozen=True, slots=True)
class ExtendedGraph:
    """Layered copies of a digraph; every arc advances the layer by one (mod layers).

    Node (v, k) has id v * layers + k; ``adj[id]`` lists (id2, weight).
    The arc count is layers times the base arc count.
    """

    base_n: int
    layers: int
    adj: tuple
    arc_count: int

    def node_id(self, v: int, k: int) -> int:
        return v * self.layers + k


def build_extended_graph(base_n, arcs, layers, reverse=False) -> ExtendedGraph:
    """Extended graph of the arc list; ``reverse`` flips every layered arc."""
    adj = [[] for _ in range(base_n * layers)]
    for u, v, w in arcs:
        for k in range(layers):
            k2 = (k + 1) % layers
            if reverse:
                adj[v * layers + k2].append((u * layers + k, w))
            else:
                adj[u * layers + k].append((v * layers + k2, w))
    return ExtendedGraph(base_n, layers, tuple(tuple(x) for x in adj), layers * len(arcs))


def _max_weight_labels(graph: ExtendedGraph, source_id: int):
    """Single-source maximum path weights on nonpositive arcs (label-setting).

    Reference for ``maxplus.visualize._layered_max_weights``, which walks
    the same layered graph without building its copies.
    """
    labels = [None] * (graph.base_n * graph.layers)
    labels[source_id] = 0
    heap = [(0, source_id)]
    adj = graph.adj
    while heap:
        neg, u = heapq.heappop(heap)
        base = -neg
        if base < labels[u]:
            continue
        for v, w in adj[u]:
            cand = base + w
            cur = labels[v]
            if cur is None or cand > cur:
                labels[v] = cand
                heapq.heappush(heap, (-cand, v))
    return labels


def submatrix(a: TropicalMatrix, keep) -> TropicalMatrix:
    """The principal submatrix of ``a`` on the given positions, in increasing order."""
    pos = {v: k for k, v in enumerate(sorted(keep))}
    entries = {
        (pos[i], pos[j]): v for (i, j), v in a.entries.items() if i in pos and j in pos
    }
    return TropicalMatrix(len(pos), len(pos), entries)


def diag_conjugate(a: TropicalMatrix, d: tuple, shift=0) -> TropicalMatrix:
    """Conjugation with a uniform shift: entry (i, j) becomes -d_i + (a_ij + shift) + d_j.

    The definition of visualization, on the raw rationals: reference for
    ``maxplus.visualize.visualize_all``, which conjugates inline on scaled
    ints.  Conjugating by d and then by -d restores the matrix; diagonal
    entries only pick up the shift.
    """
    if a.rows != a.cols or len(d) != a.rows:
        raise DimensionMismatchError("scaling length must equal the matrix order")
    shift = as_value(shift)
    entries = {(i, j): -d[i] + (v + shift) + d[j] for (i, j), v in a.entries.items()}
    return TropicalMatrix(a.rows, a.cols, entries)


def bellman_ford_visualization(a_sub: TropicalMatrix, rate):
    """Single-shot visualization reference, by label-correcting sweeps.

    Potential p_j = best weight of any walk leaving j in the rate-shifted
    matrix (at least 0, the empty walk); conjugating by p sends every entry
    to p_v - p_u + (a_uv - rate) <= 0.  Independent of the incremental
    sweep: no priority queue, no node insertion order.  Returns the
    conjugated matrix and the potential vector.
    """
    n = a_sub.rows
    rate = as_value(rate)
    shifted = {key: v - rate for key, v in a_sub.entries.items()}
    p = [0] * n
    for _ in range(n + 1):
        changed = False
        for (u, v), w in shifted.items():
            cand = w + p[v]
            if cand > p[u]:
                p[u] = cand
                changed = True
        if not changed:
            break
    else:
        raise ValueError("shifted matrix has a positive circuit")
    vis = diag_conjugate(a_sub, p, -rate)
    return vis, tuple(p)


def brute_power_check(a: TropicalMatrix, expansion, t_range, seed=None) -> OracleReport:
    """Compare the expansion against A^t, by repeated multiplication, on every t in ``t_range``.

    The powers stay on one array of the product kernel, bounded for paths
    of the largest t: a binary power for the first t, then one product by
    A per step.  Each power leaves the scaled-integer domain only to be
    compared with ``expansion.evaluate(t)``.  The kernel's products and
    powers are checked against their twins (``naive_matrix_mul`` and
    ``naive_matrix_power``) apart.
    """
    ts = sorted(set(int(t) for t in t_range))
    instance = f"n={a.rows}, m={a.finite_count}, t in [{ts[0]}..{ts[-1]}]" if ts else "empty range"
    if not ts:
        return OracleReport("power-check", instance, True, seed=seed)
    if ts[0] < 0:
        raise ValueError("exponent must be a nonnegative integer")
    scale = common_scale(a.entries.values())
    bottom, base, power = _kernel_arrays(scale, ts[-1], a, TropicalMatrix.identity(a.rows))
    if ts[0]:
        power = _max_plus_power(base, ts[0], bottom)
    prev_t = ts[0]
    for t in ts:
        for _ in range(t - prev_t):
            power = _max_plus_product(power, base, bottom)
        prev_t = t
        want = _kernel_result(power, bottom, scale)
        got = expansion.evaluate(t)
        if got != want:
            bad = _first_difference(want, got)
            return OracleReport(
                "power-check",
                instance,
                False,
                counterexample=(bad[0], bad[1], t, bad[2], bad[3]),
                seed=seed,
            )
    return OracleReport("power-check", instance, True, seed=seed)


def _first_difference(expected: TropicalMatrix, got: TropicalMatrix):
    for i in range(expected.rows):
        for j in range(expected.cols):
            e = expected.get(i, j)
            g = got.get(i, j)
            if e != g:
                return (i, j, e, g)
    return None


def random_matrix(rng: random.Random, n: int, density, low=-5, high=5) -> TropicalMatrix:
    """Seeded random integer matrix; each cell is finite with the given density."""
    density = Fraction(density) if not isinstance(density, (int, float)) else density
    entries = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                entries[(i, j)] = rng.randint(low, high)
    return TropicalMatrix(n, n, entries)


def random_irreducible_matrix(rng: random.Random, n: int, density, low=-5, high=5) -> TropicalMatrix:
    """Random matrix whose digraph is strongly connected (a hidden cycle plus noise)."""
    a = random_matrix(rng, n, density, low, high)
    order = list(range(n))
    rng.shuffle(order)
    entries = dict(a.entries)
    for k, u in enumerate(order):
        v = order[(k + 1) % n]
        entries.setdefault((u, v), rng.randint(low, high))
    return TropicalMatrix(n, n, entries)
