"""Incremental visualization of the group submatrices.

A matrix is visualized when all entries are nonpositive and the arcs of the
reference circuit are exactly zero; conjugating by a vector of path
weights achieves this.  The sweep runs backward over the groups (last
first) and inserts one node at a time: splice the new node's arcs with the
scalings accumulated so far, run one single-sink maximum-weight path
computation rooted at the new node, and fold the resulting potentials into
the running conjugation.  At every point all arc values stay nonpositive
except those incident to the newest node, which is exactly the regime where
a label-setting (Dijkstra) sweep stays correct.  That sweep,
``_layered_max_weights``, is the module's one label-setting kernel; the C/R
factors of ``maxplus.csr`` run it on layered copies of the visualized groups.

Arithmetic: the growth rates may be non-integers, so the sweep works in a
common scaled-integer domain (all entries and rates multiplied by one lcm
denominator) and divides back out when the per-group matrices are built.
This keeps everything exact while the hot loops run on plain ints.

Arc values are derived, not stored: the sweep keeps only the potentials d,
the scaled entries and the adjacency of the nodes inserted so far, and reads
the conjugated arc u -> v as a_uv - rate - d[u] + d[v] whenever it needs it.
Updating d, or moving on to the next group's rate, thus updates every arc
at once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .partition import NodePartition
from .tropical import TropicalMatrix, common_scale, scaled_int, unscaled


class InvariantViolationError(RuntimeError):
    """A runtime check on the sweep's preconditions failed."""


def _layered_max_weights(nv, layers, arcs_of, source_v, backward=False):
    """Label-setting maximum path weights over ``layers`` copies of a base graph.

    ``arcs_of(v)`` yields (head, w) for the base arcs leaving v (in-arcs
    when ``backward``).  Node (v, k) has index v * layers + k, the source is
    (source_v, 0), and each arc steps the layer by +1 (-1 when backward) mod
    ``layers``: the labels of ``maxplus.oracle._max_weight_labels`` on the
    extended graph, without its copies.  One layer is the plain graph.

    Weights are ints, nonpositive except on arcs at the source's base node;
    any other positive arc raises ``InvariantViolationError``.  A node is
    settled once and no arc relaxes into a settled node.  Returns the
    labels, None where unreachable.
    """
    size = nv * layers
    labels = [None] * size
    settled = [False] * size
    source = source_v * layers
    labels[source] = 0
    heap = [(0, source)]
    push = heapq.heappush
    pop = heapq.heappop
    step = -1 if backward else 1
    while heap:
        neg, uid = pop(heap)
        if settled[uid]:
            continue
        settled[uid] = True
        base = -neg
        v, k = divmod(uid, layers)
        k2 = (k + step) % layers
        for head, w in arcs_of(v):
            wid = head * layers + k2
            if settled[wid]:
                continue
            if w > 0 and v != source_v and head != source_v:
                arc = (head, v) if backward else (v, head)
                raise InvariantViolationError(
                    f"positive arc {arc} not incident to the root {source_v}"
                )
            cand = base + w
            cur = labels[wid]
            if cur is None or cand > cur:
                labels[wid] = cand
                push(heap, (-cand, wid))
    return labels


@dataclass(frozen=True, slots=True)
class GroupVisualization:
    """Visualized submatrix of one group: nodes, matrix, conjugation vector.

    Position k of ``matrix`` and of ``scaling`` stands for node ``nodes[k]``.
    """

    group: int
    nodes: tuple
    matrix: TropicalMatrix
    scaling: tuple


@dataclass(frozen=True, slots=True)
class VisualizationResult:
    groups: tuple

    def group(self, s: int) -> GroupVisualization:
        """1-based access, matching group numbering in the partition."""
        return self.groups[s - 1]


def visualize_all(a: TropicalMatrix, part: NodePartition) -> VisualizationResult:
    """Visualize every group submatrix in one backward sweep.

    For group s over node set V_s the result satisfies, entry for entry,
    ``matrix = diag(-d) ((-rate) A(V_s)) diag(d)`` with every entry <= 0 and
    the quasi-critical circuit's arcs exactly 0.  Nodes inside a group are
    processed in descending index order; the d vectors depend on that order
    (they are not unique), so it is fixed.
    """
    if a.rows != a.cols or a.rows != part.n:
        raise ValueError("matrix and partition sizes disagree")
    if part.r == 0:
        return VisualizationResult(())
    n = a.rows
    scale = common_scale(a.entries.values(), part.growth_rates)
    srates = [scaled_int(rate, scale) for rate in part.growth_rates]
    row_arcs = [[] for _ in range(n)]
    col_arcs = [[] for _ in range(n)]
    for (u, v), x in a.entries.items():
        w = scaled_int(x, scale)
        row_arcs[u].append((v, w))
        if u != v:
            col_arcs[v].append((u, w))

    # Arcs among the inserted nodes (self-loops included), as (other end,
    # scaled entry); the conjugated value of u -> v is w - rate - d[u] + d[v].
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    d = [0] * n
    nprime = set()
    results = []

    for s in range(part.r, 0, -1):
        rate = srates[s - 1]
        in_arcs = lambda v: ((u, w - rate - d[u] + d[v]) for u, w in in_adj[v])
        for i in sorted(part.groups[s - 1], reverse=True):
            nprime.add(i)
            for j, w in row_arcs[i]:
                if j in nprime:
                    out_adj[i].append((j, w))
                    in_adj[j].append((i, w))
            for j, w in col_arcs[i]:
                if j in nprime:
                    out_adj[j].append((i, w))
                    in_adj[i].append((j, w))
            w_lab = _layered_max_weights(n, 1, in_arcs, i, backward=True)
            reachable = [j for j in nprime if w_lab[j] is not None]
            cross_best = None
            for u in reachable:
                lift = w_lab[u] + d[u] + rate
                for v, w in out_adj[u]:
                    shifted = w - lift + d[v]
                    if w_lab[v] is not None:
                        if shifted + w_lab[v] > 0:
                            raise InvariantViolationError(
                                f"arc ({u}, {v}) stayed positive after rescaling"
                            )
                    elif cross_best is None or shifted > cross_best:
                        cross_best = shifted
            w_star = -max(0, cross_best) if cross_best is not None else 0
            for j in nprime:
                lab = w_lab[j]
                d[j] += w_star if lab is None else lab
        nodes = tuple(sorted(nprime))
        pos = {v: k for k, v in enumerate(nodes)}
        entries = {}
        for u in nodes:
            for v, w in out_adj[u]:
                val = w - rate - d[u] + d[v]
                if val > 0:
                    raise InvariantViolationError(f"visualized entry ({u}, {v}) is positive")
                entries[(pos[u], pos[v])] = unscaled(val, scale)
        matrix = TropicalMatrix(len(nodes), len(nodes), entries)
        circuit = part.quasi_critical[s - 1]
        for u, v in circuit.arc_pairs():
            if entries.get((pos.get(u), pos.get(v))) != 0:
                raise InvariantViolationError(
                    f"quasi-critical arc ({u}, {v}) is not zero after visualization"
                )
        scaling = tuple(unscaled(d[j], scale) for j in nodes)
        results.append(GroupVisualization(s, nodes, matrix, scaling))
    results.reverse()
    return VisualizationResult(tuple(results))
