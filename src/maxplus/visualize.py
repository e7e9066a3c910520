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
``_layered_max_weights``, is the module's one heap kernel; the C/R
factors of ``maxplus.csr`` run it on layered copies of the visualized groups.

Arithmetic: the growth rates may be non-integers, so the sweep works in a
common scaled-integer domain (all entries and rates multiplied by one lcm
denominator) and divides back out when the per-group matrices are built.
This keeps everything exact while the hot loops run on plain ints.

Arc values are derived, not stored: the sweep keeps only the potentials d
and the scaled entries, and reads the conjugated arc u -> v as
a_uv - rate - d[u] + d[v] whenever it needs it.  Updating d, or moving on
to the next group's rate, thus updates every arc at once.

Two sweeps give the same result, behind the "visualize" row of the
``maxplus.tropical`` gate table: the heap sweep (``_sweep_heap``), which
keeps the entries among the inserted nodes as adjacency lists, and on
dense matrices the array sweep (``_sweep_arrays``), which keeps them as
one int64 array of the kernel (``_stage_arrays``), reads each
conjugated block as one array expression and settles a whole label level
per step.  Labels are maximum path weights, so both find the same ones,
and the same d.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .partition import NodePartition
from .tropical import (
    _INT64_BOUND,
    TropicalMatrix,
    _kernel_result,
    _stage_arrays,
    common_scale,
    scaled_int,
    unscaled,
)


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

    Both sweeps read ``a`` and the growth rates scaled by the lcm of every
    denominator.  Where ``maxplus.tropical._stage_arrays`` gives ``a`` an
    int64 kernel array (the "visualize" row of its gate table and the
    kernel's bound), the array sweep runs on it, others the heap sweep;
    the array sweep hands over to the heap sweep, from the start, where its
    own int64 bound fails (see ``_sweep_arrays``).  Both give the same
    groups.
    """
    if a.rows != a.cols or a.rows != part.n:
        raise ValueError("matrix and partition sizes disagree")
    if part.r == 0:
        return VisualizationResult(())
    scale = common_scale(a.entries.values(), part.growth_rates)
    srates = [scaled_int(rate, scale) for rate in part.growth_rates]
    arrays = _stage_arrays("visualize", a, scale, 1)
    groups = None if arrays is None else _sweep_arrays(part, srates, scale, *arrays)
    return VisualizationResult(groups or _sweep_heap(a, part, srates, scale))


def _group(part, s, nodes, matrix, scaling) -> GroupVisualization:
    """Group s's visualization, once its quasi-critical arcs are checked to be 0."""
    pos = {v: k for k, v in enumerate(nodes)}
    for u, v in part.quasi_critical[s - 1].arc_pairs():
        if matrix.entries.get((pos.get(u), pos.get(v))) != 0:
            raise InvariantViolationError(
                f"quasi-critical arc ({u}, {v}) is not zero after visualization"
            )
    return GroupVisualization(s, nodes, matrix, scaling)


def _sweep_heap(a, part, srates, scale) -> tuple:
    """The groups of ``visualize_all`` by one heap sweep per inserted node.

    ``srates`` holds the growth rates scaled by ``scale``, which clears
    every entry of ``a``.  The sweep keeps the scaled arcs among the
    inserted nodes as adjacency lists and reads them through
    ``_layered_max_weights``; the crossing maximum is a loop over the
    reachable nodes' out-arcs.  Values are Python ints of any size.
    """
    n = a.rows
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
        matrix = TropicalMatrix._trusted(len(nodes), len(nodes), entries)
        scaling = tuple(unscaled(d[j], scale) for j in nodes)
        results.append(_group(part, s, nodes, matrix, scaling))
    results.reverse()
    return tuple(results)


def _sweep_arrays(part, srates, scale, bottom, w):
    """The groups of ``visualize_all`` on int64 arrays, or None past the int64 bound.

    It takes ``_sweep_heap``'s arguments but the matrix, and in its place
    the matrix's int64 kernel array ``w`` at ``scale`` (t = 1) with its
    ``bottom``, as ``_stage_arrays`` gives them.  The nodes take array
    positions in insertion order, so the inserted set is always a leading
    block.  Per inserted node, one array expression gives the conjugated
    block c[u, v] = a_uv - rate - d[u] + d[v] (bottom where a_uv is), and a
    backward label-setting sweep from the new node runs on it: each step
    settles every open node whose label is the largest open one, checks
    that no open node has a positive arc into them, and relaxes their
    columns with one ``max(axis=1)``.  All arcs but the new node's are
    nonpositive, so a settled label is final, and it is the maximum weight
    of a path to the new node: the heap sweep's label.  The "stayed
    positive" check and the crossing maximum are then masked maxima over
    the rows of the reachable nodes.

    The int64 bound: let B be the group's largest |scaled entry - rate|
    and D the largest |d| before a node is inserted into a block of k.  A
    conjugated arc lies within B + 2D.  A label telescopes: along a path
    u -> ... -> i it is the sum S_u of at most k - 1 terms a_xy - rate,
    plus d[i] - d[u], so it lies within (k - 1) B + 2D, a relaxed label
    or a crossing value within kB + 2D, and an arc after rescaling,
    a_uv - rate - S_u + S_v, within (2k - 1) B.  The new d[u] is S_u + d[i]
    or d[u] minus a crossing value, within kB + 3D, which leaves the
    group's conjugated block within (2k + 1) B + 6D.  Each insertion checks
    that (2k + 1) B + 6D < ``_INT64_BOUND`` (2^59): then every finite value
    fits, every sum with a bottom (-2^61) operand stays below half of it,
    and nothing overflows.  Where the check fails the sweep returns None,
    and the caller runs the heap sweep in Python ints.
    """
    order = [i for s in range(part.r, 0, -1) for i in sorted(part.groups[s - 1], reverse=True)]
    ids = np.array(order)
    low = bottom // 2
    w = w[np.ix_(ids, ids)]
    d = np.zeros(len(w), dtype=np.int64)
    results = []
    k = 0
    for s in range(part.r, 0, -1):
        rate = srates[s - 1]
        size = k + len(part.groups[s - 1])
        finite = w[:size, :size] != bottom
        spread = int(np.abs(w[:size, :size][finite] - rate).max(initial=0))
        for _ in part.groups[s - 1]:
            k += 1
            if (2 * k + 1) * spread + 6 * int(np.abs(d[:k]).max()) >= _INT64_BOUND:
                return None
            c = _conjugated(w, d, k, rate, finite, bottom)
            lab = _labels_to_last(c.copy(), bottom, ids[:k])
            reach = lab > low
            rows = c[reach] - lab[reach, None]
            inside = rows[:, reach] + lab[reach]
            if (inside > 0).any():
                u, v = _smallest_arc(inside > 0, ids[:k][reach], ids[:k][reach])
                raise InvariantViolationError(f"arc ({u}, {v}) stayed positive after rescaling")
            cross = rows[:, ~reach].max(initial=bottom)
            d[:k] += np.where(reach, lab, -max(0, cross) if cross > low else 0)
        c = _conjugated(w, d, k, rate, finite, bottom)
        if (c > 0).any():
            u, v = _smallest_arc(c > 0, ids, ids)
            raise InvariantViolationError(f"visualized entry ({u}, {v}) is positive")
        perm = np.argsort(ids[:k])
        nodes = tuple(ids[perm].tolist())
        matrix = _kernel_result(c[np.ix_(perm, perm)], bottom, scale)
        scaling = tuple(unscaled(x, scale) for x in d[perm].tolist())
        results.append(_group(part, s, nodes, matrix, scaling))
    results.reverse()
    return tuple(results)


def _conjugated(w, d, k, rate, finite, bottom):
    """The leading k x k block of a_uv - rate - d[u] + d[v], bottom where a_uv is."""
    c = w[:k, :k] + (d[None, :k] - d[:k, None] - rate)
    c[~finite[:k, :k]] = bottom
    return c


def _smallest_arc(mask, tails, heads):
    """The smallest (tail, head) pair of node ids over the True cells of ``mask``."""
    return min((tails[u], heads[v]) for u, v in np.argwhere(mask))


def _labels_to_last(c, bottom, ids):
    """Maximum path weights to the block's last node, settling one label level per step.

    Consumes ``c``: a settled node's row is set to bottom, so that it
    neither relaxes nor joins the positive-arc check again.  Unreachable
    nodes end below bottom // 2.  A positive arc from an open node into a
    settled one other than the source raises, with the message of
    ``_layered_max_weights``; ``ids`` names the block's nodes for it.
    """
    k = c.shape[0]
    low = bottom // 2
    top_of = np.maximum.reduce
    lab = np.full(k, bottom, dtype=np.int64)
    lab[k - 1] = 0
    c[k - 1] = bottom
    best = c[:, k - 1].copy()
    while True:
        top = top_of(best)
        if top <= low:
            return lab
        level = (best == top).nonzero()[0]
        lab[level] = top
        best[level] = bottom
        c[level] = bottom
        cols = c[:, level]
        gain = top_of(cols, axis=1)
        if top_of(gain) > 0:
            u, v = _smallest_arc(cols > 0, ids, ids[level])
            raise InvariantViolationError(
                f"positive arc ({u}, {v}) not incident to the root {ids[k - 1]}"
            )
        gain += top
        np.maximum(best, gain, out=best)
