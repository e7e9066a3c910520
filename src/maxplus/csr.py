"""CSR expansion of max-plus matrix powers.

Each group of the node partition contributes one term rate^t C S^t R: R
holds the best path weights leaving the group circuit with length divisible
by the circuit length, C the mirror image arriving at it, and S is the
circuit's cyclic permutation, so S^t reduces to an index rotation.  Summed
over groups, the terms reproduce the t-th power of the matrix exactly for
every t >= 2 n^2, no matter how large t is.  A reduced term (``reduce_term``)
indexes C and R by the cyclicity classes of the group's critical graph
instead, and S is the class permutation.

The weight queries "best path with length k mod ell" have two answers,
one readout (``_read_factors``) picking between them by a cost estimate.
On sparse groups they run on an extended graph with ell layered copies of
the node set, where every arc advances the layer by one: one Dijkstra
sweep from the circuit's anchor node (and one on the reversed graph)
yields a whole factor.  The sweep is
``maxplus.visualize._layered_max_weights``, the label-setting kernel the
visualization runs with one layer.  On dense groups the factors are rows
and columns of the Kleene star of the visualized group's ell-th power at
the circuit nodes (Sergeev and Schneider), computed on one array of the
``maxplus.tropical`` kernel: ``_max_plus_power``, then
``_max_plus_closure``.  Which of the two is cheaper also depends on the
kernel's dtype, which ``maxplus.tropical`` alone decides.

Evaluation stacks the terms of each rate class into one factor pair, so
that C S^t R summed over the class is one max-plus product.  On n >= 64 it
is the kernel's ``_max_plus_product``, on int64 or object arrays as the
kernel's bound decides, and the classes merge in two n x n arrays (each
cell's value in the frame of the class that wins it, and that class's
index), where a class's finite entry beats the holder's by more than
their rate gap, capped at -bottom; the result then leaves the
scaled-integer domain once, through ``_kernel_result`` with one shift
t * rate per class.  Below n = 64 the classes run as loops over sparse
lists into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .charpoly import characteristic_roots
from .digraph import CircuitRecord, _permutation_cycles, critical_graph, cyclicity_classes
from .partition import NodePartition, partition_nodes
from .tropical import (
    DimensionMismatchError,
    TropicalMatrix,
    _kernel_arrays,
    _kernel_result,
    _max_plus_closure,
    _max_plus_power,
    _max_plus_product,
    common_scale,
    matrix_power,
    scaled_int,
    unscaled,
)
from .visualize import (
    GroupVisualization,
    InvariantViolationError,
    _layered_max_weights,
    visualize_all,
)


# The star readout pays off when the two layered sweeps (ell * m arc
# relaxations each) cost more than the star: 1 + log2(ell) rounds, for the
# power's squarings and the closure, of V array passes over V^2 cells.
# Fitted to both readouts' times on 488 plain and reduced groups of seeded
# and benchmark matrices (2-core host): an arc of the two sweeps costs as
# much as 50 array cells, and each array pass a fixed 800 cells on top of
# its V^2.  A cell of an object array (Python ints, past the kernel's int64
# bound) counts as _OBJECT_CELL_COST int64 cells: on 43 dense groups (V
# 8-80) of [-5, 5] matrices times 10^17, the object star took 1-17 times
# the int64 star's time, more as V grows, and wherever the int64 estimate
# picked the star, the sweeps were faster or within a few percent.
_STAR_CELLS_PER_ARC = 50
_STAR_CELLS_PER_PASS = 800
_OBJECT_CELL_COST = 8


def _read_factors(a_vis: TropicalMatrix, scaling: tuple, nodes, n, layers, orbits):
    """C and R over the given orbits, in full n-space coordinates.

    ``a_vis`` is a visualized group matrix over the node ids ``nodes``,
    ``scaling`` the conjugation vector that produced it, and ``orbits`` a
    list of (positions, factor ids) pairs, where positions[k] lies k
    critical (zero-weight) steps after positions[0].  The k-th factor id of
    an orbit gets the R row of the best weights of paths from positions[0]
    with length k mod ``layers``, which are those from positions[k] with
    length divisible by ``layers``, and the C column of the mirror image,
    pushed back through the scaling.  Nodes outside the group stay at the
    bottom element.

    Two readouts give the same factors: layered sweeps (``_sweep_labels``)
    on sparse groups and the star of the ``layers``-th power
    (``_star_labels``) on dense ones, by the cost estimate above, with the
    star's cells weighed by the dtype of its kernel array.
    """
    scale = common_scale(a_vis.entries.values(), scaling)
    d = [scaled_int(v, scale) for v in scaling]
    nv = len(nodes)
    sweep_cells = _STAR_CELLS_PER_ARC * layers * a_vis.finite_count
    star_cells = nv * layers.bit_length() * (nv * nv + _STAR_CELLS_PER_PASS)
    if sweep_cells >= star_cells:
        bottom, x = _kernel_arrays(scale, nv * layers, a_vis)
        if x.dtype != object or sweep_cells >= _OBJECT_CELL_COST * star_cells:
            return _factor_pair(nodes, n, scale, d, _star_labels(x, bottom, layers, orbits))
    return _factor_pair(nodes, n, scale, d, _sweep_labels(a_vis, scale, layers, orbits))


def _factor_pair(nodes, n, scale, d, labels):
    """(C, R) from ``labels``, which yields (factor id, out, into) per factor.

    out[j] (into[j]) is the scaled best weight of the factor's paths from
    (into) the group's j-th node, or None.
    """
    r_entries = {}
    c_entries = {}
    count = 0
    for fid, out, into in labels:
        for j, orig in enumerate(nodes):
            if out[j] is not None:
                r_entries[(fid, orig)] = unscaled(out[j] - d[j], scale)
            if into[j] is not None:
                c_entries[(orig, fid)] = unscaled(d[j] + into[j], scale)
        count += 1
    # The values come from ``unscaled``, every key is in range and every
    # readout has at least one factor, so the matrices adopt their dicts.
    trusted = TropicalMatrix._trusted
    return trusted(n, count, c_entries), trusted(count, n, r_entries)


def _sweep_labels(a_vis, scale, layers, orbits):
    """``_read_factors``' labels by one forward and one backward layered sweep per orbit.

    The sweeps run from positions[0] over ``layers`` layers; layer k of
    each is the k-th factor.
    """
    nv = a_vis.rows
    out_adj = [[] for _ in range(nv)]
    in_adj = [[] for _ in range(nv)]
    for (i, j), w in a_vis.entries.items():
        sw = scaled_int(w, scale)
        out_adj[i].append((j, sw))
        in_adj[j].append((i, sw))
    for positions, ids in orbits:
        root = positions[0]
        forward = _layered_max_weights(nv, layers, out_adj.__getitem__, root)
        backward = _layered_max_weights(nv, layers, in_adj.__getitem__, root, backward=True)
        for k, fid in enumerate(ids):
            yield fid, forward[k::layers], backward[k::layers]


def _star_labels(x, bottom, layers, orbits):
    """``_read_factors``' labels from rows and columns of (A_vis^layers)^*.

    ``x`` is A_vis as a kernel array whose bound covers V * ``layers`` arcs:
    every finite value of the power's closure is a simple path of at most V
    arcs of the power.  The array then holds the power and its closure; the
    k-th factor is row and column positions[k] of the star.
    """
    star = _max_plus_power(x, layers, bottom)
    _max_plus_closure(star, bottom)
    rows = [[None if v == bottom else v for v in row] for row in star.tolist()]
    cols = list(zip(*rows))
    for positions, ids in orbits:
        for c, fid in zip(positions, ids):
            yield fid, rows[c], cols[c]


def compute_cr_pair(
    a_vis: TropicalMatrix, scaling: tuple, circuit: CircuitRecord, nodes, n: int
):
    """The C and R factors of one group, in full n-space coordinates.

    ``a_vis`` is the visualized group submatrix over the node ids ``nodes``,
    ``scaling`` the conjugation vector that produced it, and ``circuit`` the
    group's quasi-critical circuit (given in node ids; its arcs must be
    exactly 0 in ``a_vis``).  Row k of R holds the best weights of paths
    leaving the k-th circuit node with length divisible by the circuit
    length, pushed back through the scaling; columns of C mirror that on
    the reversed graph.  This is the one-orbit case of ``_read_factors``:
    the circuit's k-th node is k zero steps from its first.
    """
    pos = {v: k for k, v in enumerate(nodes)}
    for v in a_vis.entries.values():
        if v > 0:
            raise InvariantViolationError("submatrix is not visualized (positive entry)")
    for u, v in circuit.arc_pairs():
        if a_vis.entries.get((pos[u], pos[v])) != 0:
            raise InvariantViolationError(
                f"circuit arc ({u}, {v}) is not zero in the visualized submatrix"
            )
    ell = circuit.length
    orbit = ([pos[v] for v in circuit.nodes], range(ell))
    return _read_factors(a_vis, scaling, nodes, n, ell, [orbit])


def build_s(circuit: CircuitRecord) -> TropicalMatrix:
    """Cyclic-shift permutation matrix of the circuit (identity for a self-loop)."""
    ell = circuit.length
    return TropicalMatrix(ell, ell, {(k, (k + 1) % ell): 0 for k in range(ell)})


def _successor_of(s: TropicalMatrix):
    """Permutation encoded by a (0, bottom) matrix with one 0 per row and column."""
    if s.rows != s.cols:
        raise ValueError("permutation factor must be square")
    succ = [None] * s.rows
    hit_cols = set()
    for (i, j), v in s.entries.items():
        if v != 0 or succ[i] is not None or j in hit_cols:
            raise ValueError("factor is not a permutation matrix")
        succ[i] = j
        hit_cols.add(j)
    if any(x is None for x in succ):
        raise ValueError("factor is not a permutation matrix")
    return tuple(succ)


def _perm_power(succ, t: int):
    out = [0] * len(succ)
    for cycle in _permutation_cycles(succ):
        shift = t % len(cycle)
        for v, w in zip(cycle, cycle[shift:] + cycle[:shift]):
            out[v] = w
    return out


@dataclass(frozen=True, slots=True)
class CsrTerm:
    """One term rate^t C S^t R of the expansion.

    C has one column (and R one row) per circuit node, in circuit order;
    for a reduced term they are indexed by cyclicity classes instead and
    ``classes`` holds the class memberships (term nodes), one class per
    index.
    ``nodes`` (distinct node ids, the circuit's among them) and ``scaling``
    (one value per node) record the group submatrix the factors were built
    from; ``group`` is its 1-based number.
    """

    rate: object
    C: TropicalMatrix
    S: TropicalMatrix
    R: TropicalMatrix
    circuit: CircuitRecord
    group: int
    nodes: tuple
    scaling: tuple
    classes: tuple | None = None

    def __post_init__(self):
        _successor_of(self.S)  # validates the permutation structure
        if self.C.cols != self.S.rows or self.S.cols != self.R.rows:
            raise DimensionMismatchError("factor dimensions are inconsistent")
        if self.classes is not None and len(self.classes) != self.S.rows:
            raise DimensionMismatchError("a reduced term needs one class per factor index")
        if len(self.scaling) != len(self.nodes):
            raise DimensionMismatchError("scaling length must equal the node count")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("term nodes must be distinct")
        if not set(self.circuit.nodes) <= set(self.nodes):
            raise ValueError("circuit nodes must be term nodes")
        if self.classes is not None and not set().union(*self.classes) <= set(self.nodes):
            raise ValueError("class members must be term nodes")
        if self.group < 1:
            raise ValueError("groups are numbered from 1")

    @property
    def reduced(self) -> bool:
        return self.classes is not None


@dataclass(frozen=True, slots=True)
class CsrExpansion:
    """Full expansion: evaluate(t) equals the t-th power for every t >= threshold.

    Below the threshold the evaluation is still defined but may differ from
    the true power in either direction; the contract starts at
    threshold = 2 n^2.  ``source`` (when present) lets the degenerate
    acyclic case answer small-t queries by naive powering; it takes no
    part in ``==``, so an expansion equals its loaded JSON document.
    """

    n: int
    terms: tuple
    source: TropicalMatrix | None = field(default=None, compare=False)
    # (scale, merge, rate classes): everything evaluate reads, built once
    # per instance; see ``_prepare``.
    _prepared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("the matrix order must be positive")
        for before, after in zip(self.terms, self.terms[1:]):
            if before.rate < after.rate:
                raise ValueError("term rates must be weakly decreasing")
            if before.group >= after.group:
                raise ValueError("term groups must be strictly increasing")
        if len(self.terms) > self.n:
            raise ValueError("more terms than matrix order")
        for term in self.terms:
            if term.C.rows != self.n or term.R.cols != self.n:
                raise DimensionMismatchError("term factors must have the expansion's order")
            if not all(0 <= v < self.n for v in term.nodes):
                raise ValueError("term nodes must be node ids below the order")
        object.__setattr__(self, "_prepared", self._prepare())

    @property
    def threshold(self) -> int:
        return 2 * self.n * self.n

    def _prepare(self):
        """The t-independent part of evaluate, in one scaled-integer domain.

        Terms of equal rate share one class (scaled rate, factors), whose
        factors stack the terms: the C blocks side by side, the R blocks
        one under the other and one successor permutation, each term's
        block offset by the orders before it.  Scaled rates strictly
        decrease from class to class.

        With n >= 64 the factors are (successor, bottom, C array, R array)
        from ``_kernel_arrays``, and ``merge`` is the dtype and the bottom
        of the arrays that evaluate merges the classes into: object if any
        class is, with the lowest bottom of the classes.
        Otherwise ``merge`` is None and the factors are (successor, C
        columns, R rows) as per-index lists of (node, int).  On ``blocks``
        (n = 50, 28 classes) the arrays took 1.18-1.28 times as long per
        evaluation as the lists, on ``verify`` (n = 20, 3 classes)
        0.79-0.82 times.
        """
        n = self.n
        scale = common_scale(
            (term.rate for term in self.terms),
            *(term.C.entries.values() for term in self.terms),
            *(term.R.entries.values() for term in self.terms),
        )
        use_numpy = n >= 64
        classes = []
        for rate, terms in groupby(self.terms, key=lambda term: term.rate):
            succ, c_entries, r_entries = [], {}, {}
            for term in terms:
                offset = len(succ)
                succ.extend(offset + k for k in _successor_of(term.S))
                if not offset:
                    # The first term's keys are already in place; sharing
                    # them keeps a large class from doubling its memory.
                    c_entries.update(term.C.entries)
                    r_entries.update(term.R.entries)
                    continue
                c_entries.update(((i, offset + k), v) for (i, k), v in term.C.entries.items())
                r_entries.update(((offset + k, j), v) for (k, j), v in term.R.entries.items())
            order = len(succ)
            if use_numpy:
                c = TropicalMatrix._trusted(n, order, c_entries)
                r = TropicalMatrix._trusted(order, n, r_entries)
                factors = (succ, *_kernel_arrays(scale, 1, c, r))
            else:
                cols = [[] for _ in range(order)]
                rows = [[] for _ in range(order)]
                for (i, k), v in c_entries.items():
                    cols[k].append((i, scaled_int(v, scale)))
                for (k, j), v in r_entries.items():
                    rows[k].append((j, scaled_int(v, scale)))
                factors = (succ, cols, rows)
            classes.append((scaled_int(rate, scale), factors))
        merge = None
        if use_numpy and classes:
            wide = any(f[2].dtype == object for _, f in classes)
            merge = (object if wide else np.int64, min(f[1] for _, f in classes))
        return scale, merge, classes

    def evaluate(self, t: int) -> TropicalMatrix:
        """rate^t C S^t R summed over terms; t may be arbitrarily large.

        S^t is an index rotation and the rate shift is a single scalar, so
        the cost does not depend on t.  Everything else (the scaled-integer
        domain, the stacked factors in it, the permutations and the
        backend) is fixed when the expansion is built.  A call rotates and
        accumulates each rate class.  On arrays (n >= 64) the classes merge
        into two n x n arrays, each won cell's value in the frame of its
        class and that class's index, and the result leaves the domain once,
        through ``_kernel_result`` with the shifts t * rate per class.  On
        lists the classes merge into one dict, shifted per entry.
        """
        if isinstance(t, bool) or not isinstance(t, int) or t < 0:
            raise ValueError("exponent must be a nonnegative integer")
        n = self.n
        if not self.terms:
            # An acyclic matrix: every path of length >= n repeats a node,
            # so the power is all-bottom from n on.
            if t < n and self.source is not None:
                return matrix_power(self.source, t)
            return TropicalMatrix.epsilon(n)
        scale, merge, classes = self._prepared
        if merge is not None:
            dtype, bottom = merge
            val = np.full((n, n), bottom, dtype=dtype)
            win = np.full((n, n), -1, dtype=np.intp)
            for c in range(len(classes)):
                self._accumulate_numpy(c, t, val, win)
            return _kernel_result(val, bottom, scale, [t * srate for srate, _ in classes], win)
        acc = {}
        for srate, factors in classes:
            self._accumulate_python(factors, t, t * srate, acc)
        # unscaled values are normalized and the keys are in range.
        return TropicalMatrix._trusted(n, n, {key: unscaled(v, scale) for key, v in acc.items()})

    def _accumulate_python(self, factors, t, shift, acc):
        succ, cols, rows = factors
        power = _perm_power(succ, t)
        for k, col in enumerate(cols):
            row = rows[power[k]]
            if not row:
                continue
            for i, cv in col:
                base = cv + shift
                for j, rv in row:
                    key = (i, j)
                    cand = base + rv
                    cur = acc.get(key)
                    if cur is None or cand > cur:
                        acc[key] = cand

    def _accumulate_numpy(self, c, t, val, win):
        """Merge the product of rate class c at exponent t into ``val`` and ``win``.

        ``win`` holds the index of the class that won each cell, or -1, and
        ``val`` the cell's product entry in that class (without its shift
        t * rate), or the merge's bottom.  Class c takes every cell where
        its entry p is finite and either no class holds the cell or the
        class w < c that holds it has p > val + t * (s_w - s_c) (s_w > s_c).
        Each class's bottom is its own, so only finite p compete.  The gap
        is capped at -bottom of the merge, which changes no outcome: finite
        entries of classes w and c lie within +-B_w and +-B_c (their
        ``_kernel_arrays`` bounds), so p - val <= B_w + B_c, and the merge's
        bottom is below -2 * max(B_w, B_c) (-2^61 on int64, where every
        bound is below 2^59, and -4 * the largest bound on object arrays).
        The cap keeps val + gap within int64.
        """
        _, (_, bottom_m), classes = self._prepared
        s_c, (succ, bottom, cols, rows) = classes[c]
        best = _max_plus_product(cols, rows[_perm_power(succ, t)], bottom)
        # The last gap is read by the cells no class holds yet (win = -1).
        gaps = [min(t * (s_w - s_c), -bottom_m) for s_w, _ in classes[:c]] + [0]
        take = (best != bottom) & (best > val + np.array(gaps, dtype=val.dtype)[win])
        val[take] = best[take]
        win[take] = c


def expand(a: TropicalMatrix, reduce_by_cyclicity: bool = False) -> CsrExpansion:
    """CSR expansion of a square matrix: roots, partition, visualization, factors.

    Produces at most one term per partition group (so at most n), with
    weakly decreasing growth rates and validity threshold 2 n^2.  An acyclic
    matrix yields the empty expansion.  With ``reduce_by_cyclicity`` every
    term is built over the cyclicity classes of its group's critical graph
    (``reduce_term``), which can shrink the factors; the default is the
    plain quasi-critical-circuit form.
    """
    if not a.is_square:
        raise DimensionMismatchError("expansion needs a square matrix")
    n = a.rows
    mmcs = characteristic_roots(a)
    part = partition_nodes(mmcs, n)
    vis = visualize_all(a, part)
    terms = []
    for s in range(1, part.r + 1):
        gv = vis.group(s)
        if reduce_by_cyclicity:
            terms.append(reduce_term(part, gv))
            continue
        circuit = part.quasi_critical[s - 1]
        c, r = compute_cr_pair(gv.matrix, gv.scaling, circuit, gv.nodes, n)
        term = CsrTerm(
            rate=part.growth_rates[s - 1],
            C=c,
            S=build_s(circuit),
            R=r,
            circuit=circuit,
            group=s,
            nodes=gv.nodes,
            scaling=gv.scaling,
        )
        terms.append(term)
    return CsrExpansion(n=n, terms=tuple(terms), source=a)


def reduce_term(part: NodePartition, gv: GroupVisualization) -> CsrTerm:
    """The term of group ``gv.group`` over the cyclicity classes of its critical graph.

    The visualized group matrix has maximum cycle mean 0; its critical graph
    may extend beyond the quasi-critical circuit.  The reduced term has one
    factor index per cyclicity class, with the class permutation as S: R
    has, per class, the best weights of paths leaving any class member with
    length divisible by the cyclicity sigma (class members are
    interchangeable: they are linked by zero-weight critical paths of
    fitting length), and C mirrors it.  Each critical component is one orbit
    of ``_read_factors`` with sigma layers: its period divides sigma, so
    layer r of the component's root reads the class r critical steps on.
    The reduced terms sum to the plain terms for every t >= 2 n^2.  Rate
    and circuit come from ``part``, everything else from ``gv``.
    """
    cyc = cyclicity_classes(critical_graph(gv.matrix, 0))
    orbits = [([cyc.classes[k][0] for k in ids], ids) for ids in cyc.components]
    c, r = _read_factors(gv.matrix, gv.scaling, gv.nodes, part.n, cyc.sigma, orbits)
    count = len(cyc.classes)
    shift = {(ids[k - 1], ids[k]): 0 for ids in cyc.components for k in range(len(ids))}
    return CsrTerm(
        rate=part.growth_rates[gv.group - 1],
        C=c,
        S=TropicalMatrix(count, count, shift),
        R=r,
        circuit=part.quasi_critical[gv.group - 1],
        group=gv.group,
        nodes=gv.nodes,
        scaling=gv.scaling,
        classes=tuple(tuple(gv.nodes[m] for m in members) for members in cyc.classes),
    )
