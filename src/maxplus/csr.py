"""CSR expansion of max-plus matrix powers.

Each group of the node partition contributes one term rate^t C S^t R: R
holds the best path weights leaving the group circuit with length divisible
by the circuit length, C the mirror image arriving at it, and S is the
circuit's cyclic permutation, so S^t reduces to an index rotation.  Summed
over groups, the terms reproduce the t-th power of the matrix exactly for
every t >= 2 n^2, no matter how large t is.  A reduced term (``reduce_term``)
indexes C and R by the cyclicity classes of the group's critical graph
instead, and S is the class permutation.

The weight queries "best path with length k mod ell" are labels of the
paper's layered graph: ell copies of the group's node set, where every arc
advances the layer by one.  One sweep from the circuit's anchor node (and
one on the reversed graph) yields a whole factor.  One readout
(``_read_factors``) runs it on one of two backends, by the "cr" row of the
gate table in ``maxplus.tropical``: on sparse groups the label-setting
heap sweep ``maxplus.visualize._layered_max_weights``, the kernel the
visualization runs with one layer; on dense ones a layered Bellman-Ford
sweep on one int64 array of the ``maxplus.tropical`` kernel, one
vector-matrix max per layer step, until a step changes nothing
(``_array_labels``).

Evaluation enters every term into the kernel once, as one stacked factor
pair with a rate class per column, so that the sum over terms is one
``_max_plus_product`` at every n, on int64 or object arrays as the
kernel's bound decides.  Each class's columns are shifted by its rate
gap to the class before it, capped at 2B + 1 where B bounds every class
product; a capped gap puts every value of the later classes below every
value of the earlier ones, so the capped gaps split the classes into runs
with disjoint value bands.  The result leaves the scaled-integer domain
once, through ``_kernel_result`` with one correction per run, and
``np.searchsorted`` over the bands tells each cell's run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charpoly import characteristic_roots
from .digraph import CircuitRecord, _permutation_cycles, critical_graph, cyclicity_classes
from .partition import NodePartition, partition_nodes
from .tropical import (
    DimensionMismatchError,
    TropicalMatrix,
    _INT64_BOUND,
    _kernel_arrays,
    _kernel_result,
    _max_plus_product,
    _stage_arrays,
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


_NOT_VISUALIZED = "submatrix is not visualized (positive entry)"


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
    bottom element.  A positive entry of ``a_vis`` raises
    ``InvariantViolationError`` on either backend.

    Both backends read the labels of the paper's layered graph, ``layers``
    copies of the group in which every arc steps the layer by one: the
    heap sweeps of ``_sweep_labels``, or, on groups to which
    ``maxplus.tropical._stage_arrays`` gives an int64 kernel array (the
    "cr" row of its gate table, over ``layers`` copies, and the kernel's
    bound), the layered Bellman-Ford sweep of ``_array_labels``.  That
    sweep stops at the first layer step that changes nothing, which comes
    within V * ``layers`` steps, and every value it forms is the weight of
    a walk of at most V * ``layers`` arcs, the bound the kernel array is
    built with (derived there).  Labels are maximum path weights, so both
    backends give the same factors.
    """
    scale = common_scale(a_vis.entries.values(), scaling)
    d = [scaled_int(v, scale) for v in scaling]
    arrays = _stage_arrays("cr", a_vis, scale, len(nodes) * layers, layers)
    if arrays is not None:
        return _array_factors(*arrays, d, nodes, n, scale, layers, orbits)
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
        if sw > 0:
            raise InvariantViolationError(_NOT_VISUALIZED)
        out_adj[i].append((j, sw))
        in_adj[j].append((i, sw))
    for positions, ids in orbits:
        root = positions[0]
        forward = _layered_max_weights(nv, layers, out_adj.__getitem__, root)
        backward = _layered_max_weights(nv, layers, in_adj.__getitem__, root, backward=True)
        for k, fid in enumerate(ids):
            yield fid, forward[k::layers], backward[k::layers]


def _array_labels(x, bottom, layers, roots):
    """Layered Bellman-Ford labels from each root, on a stack of kernel arrays.

    ``x`` has shape (S, V, V): S visualized groups as kernel arrays (every
    entry <= 0 or bottom).  The result lab has shape (layers, S, len(roots),
    V): lab[k, s, o, v] is the maximum weight of a walk roots[o] -> v of
    x[s] whose length is k mod ``layers``, or bottom.  Layer 0 starts with
    0 at the roots; step i relaxes layer i - 1 into layer i (mod
    ``layers``) by one vector-matrix max for every array and root at once,
    and the sweep stops at the first step that changes nothing.

    A step changes only the layer it relaxes into, so that layer is the
    only one not relaxed since its last change: the stop is a fixed point,
    every layer dominating the relaxation of the one before it.  By
    induction on i, after step i every walk of at most i arcs is dominated
    at its layer, and every label is the weight of a walk of at most i
    arcs.  The arcs are <= 0, so a best walk to a layered node can be taken
    without repeating a layered node: at most V * layers - 1 arcs.  The
    labels are final after step V * layers - 1 and the next step changes
    nothing, so the sweep ends within V * layers steps, and a sweep that
    does not raises ``InvariantViolationError``.  Every finite label and
    candidate is the weight of a walk of at most V * layers arcs: the
    bound of ``_kernel_arrays(scale, V * layers, a_vis)``.  A sum with a
    bottom operand is at most bottom (entries and labels are <= 0), so
    the maximum with the old label resets it.
    """
    nv = x.shape[-1]
    lab = np.full((layers, len(x), len(roots), nv), bottom, dtype=x.dtype)
    lab[0, :, range(len(roots)), roots] = 0
    x = x[:, None]
    k = 0
    for _ in range(nv * layers):
        k1 = (k + 1) % layers
        cand = (lab[k][..., None] + x).max(axis=2)
        if not (cand > lab[k1]).any():
            return lab
        np.maximum(lab[k1], cand, out=lab[k1])
        k = k1
    raise InvariantViolationError("layered labels did not settle within V * layers steps")


def _array_factors(bottom, x, d, nodes, n, scale, layers, orbits):
    """``_read_factors``' (C, R) by ``_array_labels`` on ``x``, the int64 kernel array of the group.

    One sweep runs on the array and on its transpose: the forward labels
    are the R rows, and the transpose's layer k is layer -k of the mirror
    image, the C columns.  The labels minus (plus) the scaled ``d`` go
    into n-space arrays that leave the domain through ``_kernel_result``.
    Finite labels lie above bottom // 2, so shifted by at most D = max |d|
    they stay above bottom - D, the arrays' bottom; they are int64 while
    D < 2^59, which keeps every value within 2^60 and the bottom above
    -2^62.
    """
    if (x > 0).any():
        raise InvariantViolationError(_NOT_VISUALIZED)
    roots = [positions[0] for positions, _ in orbits]
    lab = _array_labels(np.stack((x, x.T)), bottom, layers, roots)
    out, into = lab[:, 0], lab[:, 1]
    reach = max(map(abs, d))
    shift = np.array(d, dtype=object if reach >= _INT64_BOUND else np.int64)
    low = bottom - reach
    count = sum(len(ids) for _, ids in orbits)
    r = np.full((count, n), low, dtype=shift.dtype)
    c = np.full((n, count), low, dtype=shift.dtype)
    cols = np.array(nodes)
    for o, (_, ids) in enumerate(orbits):
        k = np.arange(len(ids))
        rows, cells = out[k, o], into[-k % layers, o]
        r[np.ix_(ids, cols)] = np.where(rows != bottom, rows - shift, low)
        c[np.ix_(cols, ids)] = np.where(cells != bottom, cells + shift, low).T
    return _kernel_result(c, low, scale), _kernel_result(r, low, scale)


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
    # The stacked factors and everything else evaluate reads, built once
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

        Every term enters the kernel once, in one stacked pair: the C
        blocks side by side, the R blocks one under the other, one
        successor permutation, each term's block offset by the orders
        before it, and the rate class of each column.  Terms of equal rate
        form one class; the scaled rates s_0 > s_1 > ... of the L classes
        strictly decrease.  B is max |C| + max |R| over the scaled arrays,
        a bound on every finite entry of every class product.

        ``_accumulate_numpy`` shifts class c's columns by g_c, and
        |g_c| <= (L - 1)(2B + 1) (each gap is capped there), so the shifted
        product's finite entries lie within K = B + (L - 1)(2B + 1) =
        (2L - 1)B + L - 1, which is L - 1 at B = 0.  The arrays come from
        one ``_kernel_arrays`` call that counts the shift as 2L - 1 arcs
        more, bound 2L * B: that covers K once B >= L - 1, and below it
        K < 2L^2, far inside int64, which the kernel picks there anyway
        (2L * B < 2L^2).  So the arrays are int64 with K < 2^59, or object
        with K <= 2L * B and the bottom at -8L * B.

        Returns None without terms, else (scale, scaled rates, class per
        column, B, successor, bottom, C array, R array).
        """
        if not self.terms:
            return None
        scale = common_scale(
            (term.rate for term in self.terms),
            *(term.C.entries.values() for term in self.terms),
            *(term.R.entries.values() for term in self.terms),
        )
        succ, c_entries, r_entries, classes, rates = [], {}, {}, [], []
        for term in self.terms:
            offset = len(succ)
            succ.extend(offset + k for k in _successor_of(term.S))
            if not rates or term.rate != rates[-1]:
                rates.append(term.rate)
            classes.extend([len(rates) - 1] * (len(succ) - offset))
            if not offset:
                # The first term's keys are already in place; sharing
                # them keeps a large term from doubling its memory.
                c_entries.update(term.C.entries)
                r_entries.update(term.R.entries)
                continue
            c_entries.update({(i, offset + k): v for (i, k), v in term.C.entries.items()})
            r_entries.update({(offset + k, j): v for (k, j), v in term.R.entries.items()})
        n, order = self.n, len(succ)
        c = TropicalMatrix._trusted(n, order, c_entries)
        r = TropicalMatrix._trusted(order, n, r_entries)
        bottom, c, r = _kernel_arrays(scale, 2 * len(rates), c, r)
        big = sum(int(np.abs(x[x != bottom]).max(initial=0)) for x in (c, r))
        rates = [scaled_int(rate, scale) for rate in rates]
        return scale, rates, np.array(classes, dtype=np.intp), big, succ, bottom, c, r

    def evaluate(self, t: int) -> TropicalMatrix:
        """rate^t C S^t R summed over terms; t may be arbitrarily large.

        S^t is an index rotation and the rate shifts are scalars, so the
        cost does not depend on t.  Everything else (the scaled-integer
        domain, the stacked factors in it, the permutation and the kernel
        dtype) is fixed when the expansion is built.  A call is one kernel
        product over every rate class (``_accumulate_numpy``), and the
        result leaves the domain once, through ``_kernel_result`` with one
        correction per run of classes.
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
        scale, *_, bottom, _, _ = self._prepared
        out, corrections, runs = self._accumulate_numpy(t)
        return _kernel_result(out, bottom, scale, corrections, runs)

    # Unused by evaluate: the tests' list twin, kept as perfbench/tracing.py pins it.
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

    def _accumulate_numpy(self, t):
        """The stacked product at exponent t: (out, corrections, runs) for ``_kernel_result``.

        Class c's product P_c = C_c S^t R_c enters shifted by g_c, where
        g_0 = 0 and g_c = g_{c-1} + max(t (s_c - s_{c-1}), -(2B + 1)), so
        out is the max over c of P_c + g_c: one ``_max_plus_product`` of
        the shifted C columns and the R rows rotated by S^t.  A gap that is
        not capped is exact, so along a run of classes joined by exact
        gaps g_c = t s_c - (t s_f - g_f), f the run's first class, and the
        run's correction t s_f - g_f turns P_c + g_c into t s_c + P_c, the
        term sum's entry.

        The split.  Finite entries of P_c lie within +-B, so the shifted
        values of a run from class f to class l lie in [g_l - B, g_f + B]
        (g decreases).  At a capped gap from l to the next run's first
        class f', g_f' = g_l - (2B + 1), so every value of the later run is
        at most g_l - B - 1: strictly below every value of the earlier run.
        Unshifted, the later run lies lower still, since t (s_l - s_f')
        exceeds 2B + 1.  So on every cell the first run with a finite entry
        holds the maximum, in out and in the term sum alike: no tie spans
        two runs, and ties inside a run are between exact sums.  The runs'
        bands are disjoint, so a finite value v lies in the run whose band
        holds it; ``np.searchsorted`` counts the later runs' upper edges
        g_f' + B below v, which indexes the corrections listed from the
        last run first.  With one run, ``runs`` is None and the search is
        skipped; with every shift 0 (one class, or t = 0) so is the add.

        The bottom.  C's bottom cells are shifted too, to within K - B
        below the bottom (K the bound of ``_prepare``).  A sum with a bottom
        operand is then at most bottom + B, below bottom // 2 (bottom is
        -2^61 with K < 2^59, or -8L * B with K <= 2L * B), and two bottoms
        sum to no less than 2 * bottom - K, within int64 on int64 arrays.
        Finite sums lie within +-K, above bottom // 2, so the product's
        reset leaves exactly the finite entries.
        """
        _, rates, classes, big, succ, bottom, c, r = self._prepared
        cap = -(2 * big + 1)
        shifts, firsts = [0], [0]
        for k in range(1, len(rates)):
            gap = t * (rates[k] - rates[k - 1])
            if gap < cap:
                gap = cap
                firsts.append(k)
            shifts.append(shifts[-1] + gap)
        if shifts[-1]:
            c = c + np.array(shifts, dtype=c.dtype)[classes]
        out = _max_plus_product(c, r[_perm_power(succ, t)], bottom)
        corrections = [t * rates[k] - shifts[k] for k in reversed(firsts)]
        runs = None
        if len(firsts) > 1:
            edges = np.array([shifts[k] + big for k in reversed(firsts[1:])], dtype=out.dtype)
            runs = np.searchsorted(edges, out)
        return out, corrections, runs


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
