"""Incremental visualization of the group submatrices.

A matrix is visualized when all entries are nonpositive and the arcs of the
reference circuit are exactly zero; conjugating by a vector of path
weights achieves this.  The sweep runs backward over the groups (last
first) and inserts one node at a time: splice the new node's arcs with the
scalings accumulated so far, run one single-sink maximum-weight path
computation rooted at the new node, and fold the resulting potentials into
the running conjugation.  At every point all arc values stay nonpositive
except those incident to the newest node, which is exactly the regime where
a label-setting (Dijkstra) sweep stays correct.

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
from .tropical import (
    DiagonalScaling,
    TropicalMatrix,
    common_scale,
    scaled_int,
    unscaled,
)


class InvariantViolationError(RuntimeError):
    """A runtime check on the sweep's preconditions failed."""


def _max_weight_to_sink(sink, in_arcs_of):
    """Label-setting maximum-weight-to-sink labels.

    ``in_arcs_of(v)`` yields (u, w) for arcs u -> v.  All arc weights must
    be nonpositive except those incident to the sink; that is asserted
    during the sweep.  Returns (reachable, labels) where labels[j] is the
    best weight of a j -> sink path (0 for the sink itself).
    """
    labels = {sink: 0}
    settled = set()
    heap = [(0, sink)]
    while heap:
        neg, v = heapq.heappop(heap)
        if v in settled or -neg < labels[v]:
            continue
        settled.add(v)
        base = labels[v]
        for u, w in in_arcs_of(v):
            if u in settled:
                continue
            if w > 0 and v != sink and u != sink:
                raise InvariantViolationError(
                    f"positive arc ({u}, {v}) not incident to the root {sink}"
                )
            cand = base + w
            if u not in labels or cand > labels[u]:
                labels[u] = cand
                heapq.heappush(heap, (-cand, u))
    return frozenset(settled), labels


@dataclass(frozen=True, slots=True)
class GroupVisualization:
    """Visualized submatrix of one group: nodes, matrix, conjugation vector.

    Position k of ``matrix`` and of ``scaling`` stands for node ``nodes[k]``.
    """

    group: int
    nodes: tuple
    matrix: TropicalMatrix
    scaling: DiagonalScaling
    processed_order: tuple


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
    (they are not unique), so it is fixed and recorded.
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
        order = tuple(sorted(part.groups[s - 1], reverse=True))
        for i in order:
            nprime.add(i)
            for j, w in row_arcs[i]:
                if j in nprime:
                    out_adj[i].append((j, w))
                    in_adj[j].append((i, w))
            for j, w in col_arcs[i]:
                if j in nprime:
                    out_adj[j].append((i, w))
                    in_adj[i].append((j, w))
            reachable, w_lab = _max_weight_to_sink(
                i, lambda v: ((u, w - rate - d[u] + d[v]) for u, w in in_adj[v])
            )
            cross_best = None
            for u in reachable:
                lift = w_lab[u] + d[u] + rate
                for v, w in out_adj[u]:
                    shifted = w - lift + d[v]
                    if v in reachable:
                        if shifted + w_lab[v] > 0:
                            raise InvariantViolationError(
                                f"arc ({u}, {v}) stayed positive after rescaling"
                            )
                    elif cross_best is None or shifted > cross_best:
                        cross_best = shifted
            w_star = -max(0, cross_best) if cross_best is not None else 0
            for j in nprime:
                d[j] += w_lab[j] if j in reachable else w_star
        nodes = part.remaining_nodes(s)
        if tuple(sorted(nprime)) != nodes:
            raise AssertionError("sweep drifted away from the partition's node sets")
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
        scaling = DiagonalScaling(tuple(unscaled(d[j], scale) for j in nodes))
        results.append(GroupVisualization(s, nodes, matrix, scaling, order))
    results.reverse()
    return VisualizationResult(tuple(results))
