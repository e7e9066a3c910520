"""Digraph algorithms on a square max-plus matrix.

A square matrix and a weighted digraph are one object: there is an arc
(i, j) of weight a_ij exactly when the entry is finite, so the algorithms
here read ``TropicalMatrix.entries`` as the arc list.  This module holds
the graph-side machinery: circuits and their means, the cycles of a
permutation, Karp's maximum cycle mean, the critical graph, cyclicity
classes, and principal eigenvectors.
The critical graph needs no closure: it is the tight arcs of a potential
inside their strongly connected components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tropical import (
    EPSILON,
    DimensionMismatchError,
    PositiveCircuitError,
    TropicalMatrix,
    TropicalScalar,
    _kernel_arrays,
    _kernel_result,
    _max_plus_closure,
    as_value,
    common_scale,
    kleene_star,  # noqa: F401 -- perfbench/tracing.py wraps digraph.kleene_star
    scaled_int,
)


def build_graph(a: TropicalMatrix) -> TropicalMatrix:
    """The digraph of a square matrix, which is the matrix itself: ``a``.

    Raises DimensionMismatchError when ``a`` is not square; the graph
    algorithms below run this check on their argument.
    """
    if not a.is_square:
        raise DimensionMismatchError("only square matrices define a digraph")
    return a


def tarjan_scc(n, successors):
    """Strongly connected components (iterative Tarjan).

    ``successors(u)`` yields the heads of arcs leaving u.  Components come
    out in reverse topological order of the condensation.
    """
    index = [None] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return components


def _permutation_cycles(perm):
    """The cycles of a permutation given as its list of images, each from its smallest node."""
    seen = [False] * len(perm)
    for start in range(len(perm)):
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = perm[v]
        if cycle:
            yield cycle


@dataclass(frozen=True, slots=True)
class CircuitRecord:
    """An elementary circuit: distinct nodes in cyclic order plus its weight.

    The node tuple is rotated so it starts at the smallest node, which makes
    records comparable regardless of where the cycle was entered.
    """

    nodes: tuple
    weight: object

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("circuit nodes must be distinct")
        object.__setattr__(self, "weight", as_value(self.weight))

    @classmethod
    def from_nodes(cls, weight_of, nodes):
        """Build from a node sequence (no closing repeat); weights are looked up."""
        nodes = tuple(nodes)
        start = min(range(len(nodes)), key=lambda k: nodes[k])
        nodes = nodes[start:] + nodes[:start]
        total = 0
        for k, u in enumerate(nodes):
            v = nodes[(k + 1) % len(nodes)]
            w = weight_of(u, v)
            if w is None:
                raise ValueError(f"missing arc ({u}, {v}) for circuit {nodes}")
            total = total + w
        return cls(nodes, total)

    @property
    def length(self) -> int:
        return len(self.nodes)

    def arc_pairs(self):
        ns = self.nodes
        return tuple((ns[k], ns[(k + 1) % len(ns)]) for k in range(len(ns)))

    def __str__(self):
        closed = self.nodes + (self.nodes[0],)
        return "(" + ",".join(str(v + 1) for v in closed) + ")"


def _karp_component(out, comp):
    """Maximum cycle mean inside one strongly connected component, as (weight, length).

    ``out[u]`` lists the (head, scaled weight) arcs leaving u.  The means
    (top - base) / (nc - k) are compared by cross-multiplication; None
    when the component has no arc.
    """
    pos = {v: k for k, v in enumerate(comp)}
    nc = len(comp)
    arcs = [
        (pos[u], pos[v], w)
        for u in comp
        for v, w in out[u]
        if v in pos
    ]
    if not arcs:
        return None
    # level[k][v] = best weight of a length-k walk from the component root to v
    level = [[None] * nc for _ in range(nc + 1)]
    level[0][0] = 0
    for k in range(1, nc + 1):
        prev = level[k - 1]
        cur = level[k]
        for u, v, w in arcs:
            base = prev[u]
            if base is None:
                continue
            cand = base + w
            if cur[v] is None or cand > cur[v]:
                cur[v] = cand
    top = level[nc]
    best = None  # (weight, length) with length > 0
    for v in range(nc):
        if top[v] is None:
            continue
        worst = None
        for k in range(nc):
            base = level[k][v]
            if base is None:
                continue
            num, den = top[v] - base, nc - k
            if worst is None or num * worst[1] < worst[0] * den:
                worst = (num, den)
        if worst is not None and (best is None or worst[0] * best[1] > best[0] * worst[1]):
            best = worst
    return best


def _karp_components(a: TropicalMatrix, scale):
    """Maximum cycle mean as (weight, length) in scaled ints, by the per-SCC loop; None if acyclic.

    The arcs are scaled to ints once, Karp's dynamic program runs on every
    strongly connected component (``_karp_component``) and the components'
    means are compared by cross-multiplication.
    """
    out = [[] for _ in range(a.rows)]
    for (u, v), w in a.entries.items():
        out[u].append((v, scaled_int(w, scale)))
    best = None
    for comp in tarjan_scc(a.rows, lambda u: (v for v, _ in out[u])):
        mean = _karp_component(out, comp)
        if mean is not None and (best is None or mean[0] * best[1] > best[0] * mean[1]):
            best = mean
    return best


def _min_fraction(num, den):
    """The least of num[k] / den[k] along axis 0, compared by cross-multiplication.

    ``den`` is positive.  The first and the last half are compared
    pairwise until one row is left (with an odd count the halves share the
    middle row); returns that row's (numerators, denominators).
    """
    while len(num) > 1:
        h = (len(num) + 1) // 2
        a, b, c, d = num[:h], num[-h:], den[:h], den[-h:]
        take = b * c < a * d
        num, den = np.where(take, b, a), np.where(take, d, c)
    return num[0], den[0]


def _karp_array(x, bottom):
    """Maximum cycle mean of an int64 kernel array as (weight, length); None if acyclic.

    Karp's table with a super-source s, which has an arc of weight 0 to
    every node, so every node is reachable and no SCC split is needed.
    D_k(v), the best weight of a walk of exactly k arcs ending at v
    (starting anywhere), is the best s-v walk of k + 1 arcs: D_0 = 0 and
    D_k = the max-plus product of D_(k-1) with the array, for k = 1..n.
    Karp's theorem on the n + 1 nodes with s gives the maximum cycle mean

        lambda = max over v with D_n(v) finite of
                 min over 0 <= k < n of (D_n(v) - D_k(v)) / (n - k).

    Shifting every arc by -lambda shifts each ratio by -lambda, so take
    lambda = 0.  An n-arc walk to v repeats a node, and removing its
    circuits, each of weight <= 0, leaves a k-arc walk to v with k < n: the
    inner minimum is <= 0 for every v.  Let p(v) be the best weight of an
    s-v walk, finite since no circuit is positive, and C a circuit of
    weight 0.  The best s-walk into a node w of C is a path of at most n
    arcs; continued round C to n + 1 arcs it ends at some v, and weighs
    p(w) plus C's arcs from w to v, which is p(v) (p(v) plus C's arcs from
    v back to w is at most p(w)).  So D_n(v) = p(v) >= D_k(v) for every k,
    and that v's minimum is 0.  If the graph is acyclic, D_n is bottom
    everywhere.

    With M the largest |entry|, finite D_k lie within +-kM and every
    other value within [bottom, bottom + kM]: each level's maximum starts
    at ``bottom``, and a sum with a bottom operand stays below bottom // 2,
    since nM < 2^59 under the caller's bound.  Where D_n(v) is finite so
    is every D_k(v), k < n (the last k arcs of its walk), so the columns
    with D_n finite hold no bottom.  There the differences lie within
    +-2nM and the denominators in [1, n], and every cross-product of
    ``_min_fraction``, first over k and then over v, within 2n^2 M: the
    bound the caller's ``_kernel_arrays(scale, 2 n^2, a)`` keeps below
    2^59.
    """
    n = x.shape[0]
    table = np.empty((n + 1, n), dtype=np.int64)
    table[0] = 0
    level = np.empty_like(x)
    for k in range(1, n + 1):
        np.add(x, table[k - 1][:, None], out=level)
        level.max(axis=0, initial=bottom, out=table[k])
    finite = table[n] > bottom // 2
    if not finite.any():
        return None
    table = table[:, finite]
    num = table[n] - table[:n]
    den = np.broadcast_to(np.arange(n, 0, -1)[:, None], num.shape)
    num, den = _min_fraction(num, den)
    weight, length = _min_fraction(-num, den)
    return -int(weight), int(length)


# Karp's table runs on the kernel array when at least a quarter of the
# cells, and at least _KARP_ARRAY_MIN_CELLS of them, are finite.  Below
# that the per-SCC loop wins: on seeded irreducible matrices (n 6-40) the
# two tie at 70-100 finite cells whatever the density (the array's n
# levels cost a few numpy calls each, the loop's m relaxations about
# 0.1 us each), and on the block-reducible and sparse check instances of
# the benchmark (densities 0.22 and 0.07) the array took 1.4x and 1.2x
# the loop's time, since the loop's table runs per SCC.
_KARP_ARRAY_MIN_CELLS = 100


def karp_max_cycle_mean(a: TropicalMatrix) -> TropicalScalar:
    """Maximum mean weight over all elementary circuits; bottom if acyclic.

    The entries are scaled to ints once.  Past the density gate (see
    ``_KARP_ARRAY_MIN_CELLS``) the whole matrix enters the kernel as one
    array with a bound of 2n^2 arcs and Karp's table runs on it with a
    super-source (``_karp_array``); below the gate, or when the kernel
    picks object arrays, the dynamic program runs on every strongly
    connected component (``_karp_components``).  Means are compared by
    cross-multiplication, and only the best one becomes a rational again.
    """
    n = build_graph(a).rows
    scale = common_scale(a.entries.values())
    cells = len(a.entries)
    x = None
    if cells >= _KARP_ARRAY_MIN_CELLS and 4 * cells >= n * n:
        bottom, x = _kernel_arrays(scale, 2 * n * n, a)
    if x is not None and x.dtype != object:
        best = _karp_array(x, bottom)
    else:
        best = _karp_components(a, scale)
    return EPSILON if best is None else TropicalScalar(Fraction(best[0], best[1] * scale))


@dataclass(frozen=True, slots=True)
class CriticalGraph:
    """Nodes and arcs on circuits whose mean is the rate given to ``critical_graph``."""

    nodes: frozenset
    arcs: frozenset


def critical_graph(a: TropicalMatrix, rate) -> CriticalGraph:
    """The subgraph of arcs on circuits of mean exactly ``rate``.

    ``rate`` must be at least the maximum cycle mean, else PositiveCircuitError
    (a ValueError).  Bellman-Ford on the shifted arcs, scaled to ints, gives
    p[u] = the best weight of a walk leaving u, the empty one included; then
    a circuit weighs 0 exactly when all its arcs are tight (w + p[v] == p[u]),
    so the critical arcs are the tight arcs inside the strongly connected
    components of the tight subgraph.  A visualized matrix at rate 0 settles
    in one pass: O(m).
    """
    n = build_graph(a).rows
    rate = as_value(rate)
    scale = common_scale(a.entries.values(), (rate,))
    srate = scaled_int(rate, scale)
    arcs = [(u, v, scaled_int(w, scale) - srate) for (u, v), w in a.entries.items()]
    p = [0] * n
    for _ in range(n + 1):
        settled = True
        for u, v, w in arcs:
            if w + p[v] > p[u]:
                p[u] = w + p[v]
                settled = False
        if settled:
            break
    else:
        raise PositiveCircuitError()
    tight = [(u, v) for u, v, w in arcs if w + p[v] == p[u]]
    succ = [[] for _ in range(n)]
    for u, v in tight:
        succ[u].append(v)
    comp = {v: k for k, members in enumerate(tarjan_scc(n, succ.__getitem__)) for v in members}
    critical = frozenset((u, v) for u, v in tight if comp[u] == comp[v])
    nodes = frozenset(u for u, _ in critical) | frozenset(v for _, v in critical)
    return CriticalGraph(nodes, critical)


@dataclass(frozen=True, slots=True)
class CyclicityClasses:
    """Cyclicity of a critical graph and its node classes.

    ``sigma`` is the lcm over strongly connected components of the gcd of
    circuit lengths in that component.  Two critical nodes share a class
    exactly when some path between them inside the critical graph has
    length divisible by sigma; within one component that reduces to equal
    breadth-first levels modulo the component's own gcd.  ``components``
    holds, per component, its class ids in level order: one critical step
    moves every member of a class into the next class of that tuple
    (cyclically), and the component's first node sits in its first class.
    """

    sigma: int
    classes: tuple
    components: tuple


def cyclicity_classes(cg: CriticalGraph) -> CyclicityClasses:
    """The cyclicity classes of a critical graph, by one search per component.

    Precondition: every arc of ``cg`` lies on a circuit of ``cg`` (every
    critical arc lies on a critical circuit), so no arc leaves its strongly
    connected component and a search from the smallest unseen node reaches
    exactly that node's component.
    """
    if not cg.nodes:
        raise ValueError("empty critical graph has no cyclicity")
    succ = {v: [] for v in cg.nodes}
    for u, v in cg.arcs:
        succ[u].append(v)
    level = {}
    sigma = 1
    classes = []
    components = []
    for root in sorted(cg.nodes):
        if root in level:
            continue
        level[root] = 0
        comp = [root]
        queue = [root]
        g = 0
        while queue:
            u = queue.pop()
            for v in succ[u]:
                if v in level:
                    g = math.gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    comp.append(v)
                    queue.append(v)
        sigma = math.lcm(sigma, g)
        buckets = {}
        for u in comp:
            buckets.setdefault(level[u] % g, []).append(u)
        components.append(tuple(range(len(classes), len(classes) + g)))
        for _, members in sorted(buckets.items()):
            classes.append(tuple(sorted(members)))
    return CyclicityClasses(sigma, tuple(classes), tuple(components))


def principal_eigenvectors(a: TropicalMatrix):
    """Eigenvectors for the maximum eigenvalue, one per critical node.

    Returns a list of (node, column) pairs where each column is an n-by-1
    matrix x with A otimes x = rate otimes x exactly.  The columns are those
    of the Kleene star of the rate-shifted matrix at critical positions.
    """
    return _principal_eigen(a)[2]


def _principal_eigen(a: TropicalMatrix):
    """(eigenvalue, critical graph, eigenvectors) from one Karp run and one star.

    The eigenvectors are as in ``principal_eigenvectors``; only their
    columns of the star leave the scaled-integer domain.
    """
    lam = karp_max_cycle_mean(a)
    if lam.is_epsilon:
        raise ValueError("matrix has no finite eigenvalue (acyclic graph)")
    rate = lam.value
    critical = critical_graph(a, rate)
    # The rate is a cycle mean, so |a_ij - rate| <= 2 max |a_ij|: a bound of
    # 2n arcs of A covers the shifted matrix's paths of at most n arcs.
    scale = common_scale(a.entries.values(), (rate,))
    bottom, star = _kernel_arrays(scale, 2 * a.rows, a)
    star[star != bottom] -= scaled_int(rate, scale)
    _max_plus_closure(star, bottom)
    vectors = [
        (node, _kernel_result(star[:, [node]], bottom, scale)) for node in sorted(critical.nodes)
    ]
    return rate, critical, vectors
