"""Characteristic polynomial of a max-plus matrix: evaluation, roots, MMCS.

The characteristic polynomial chi(t) = det(A oplus t I) is a convex
piecewise-linear function of t.  Evaluating it at a fixed t is a maximum
weight assignment problem on the matrix whose diagonal is lifted to
max(a_ii, t); the optimal permutations decompose into a multi-circuit (the
nontrivial cycles plus diagonal picks realized by a_ii) and "t picks".
Breakpoints of chi are the finite roots; the maximal multi-circuit sequence
(MMCS) collects, per root interval, a multi-circuit that attains chi on the
whole interval.

Roots are found by supporting-line intersection on the convex function,
which costs about two evaluations per breakpoint.  The assignment runs on
lexicographic weights (exact rational weight first, then the count of
t-realized diagonal picks) so the shortest and longest attaining
multi-circuits come out exactly, with no perturbation constants.
``chi_eval`` solves both.  The search solves only the long one: its left
tangent is the one line an evaluation needs, and a root's right slope is
the next supporting line found above it.

A permutation of finite weight cannot leave a diagonal block of the
Frobenius normal form, so chi of a reducible matrix is the max-plus
product of its strongly connected components' chi: the roots are the
union of theirs, the multiplicities add, and a circuit-free node only adds
to the epsilon multiplicity (the factorisation behind the essential-terms
algorithms of Burkard & Butkovic, 2003, and Gassner & Klinz, 2010).  When
every component holds fewer than half of the nodes, the search runs on
each component with a circuit, and each root found is then solved once at full
size, which gives its witness and its lengths: the p full-size solves are
the same runs the whole search makes at its roots, so the MMCS does not
depend on the path.  Witnesses are not put together from the components'
own, which can pick other tied multi-circuits than the full solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .assignment import max_assignment
from .digraph import CircuitRecord, _permutation_cycles, tarjan_scc
from .tropical import (
    DimensionMismatchError,
    TropicalMatrix,
    as_value,
    common_scale,
    scaled_int,
    unscaled,
)


@dataclass(frozen=True, slots=True)
class MultiCircuit:
    """A set of node-disjoint elementary circuits with summed length/weight."""

    circuits: tuple

    def __post_init__(self):
        seen = set()
        for c in self.circuits:
            for v in c.nodes:
                if v in seen:
                    raise ValueError("multi-circuit members must be node-disjoint")
                seen.add(v)
        object.__setattr__(
            self, "circuits", tuple(sorted(self.circuits, key=lambda c: c.nodes))
        )

    @classmethod
    def empty(cls):
        return cls(())

    @property
    def total_length(self) -> int:
        return sum(c.length for c in self.circuits)

    @property
    def total_weight(self):
        return as_value(sum(c.weight for c in self.circuits))

    def __str__(self):
        return "{" + ", ".join(str(c) for c in self.circuits) + "}"


@dataclass(frozen=True, slots=True)
class ChiEvaluation:
    """chi evaluated at one point, with the shortest/longest attaining multi-circuits."""

    n: int
    lam: object
    value: object
    min_length: int
    max_length: int
    witness_min: MultiCircuit
    witness_max: MultiCircuit

    def __post_init__(self):
        for wit in (self.witness_min, self.witness_max):
            attained = wit.total_weight + self.lam * (self.n - wit.total_length)
            if attained != self.value:
                raise ValueError("witness does not attain the evaluated value")
        if self.witness_min.total_length != self.min_length:
            raise ValueError("min-length witness has the wrong length")
        if self.witness_max.total_length != self.max_length:
            raise ValueError("max-length witness has the wrong length")


@dataclass(frozen=True, slots=True)
class Mmcs:
    """Finite roots of chi (descending) with multiplicities and the MMCS.

    ``multicircuits[k]`` attains chi on the whole closed interval between
    root k+1 and root k (the 0th entry is the empty multi-circuit, optimal
    above the largest root).  The lengths increase strictly along the
    sequence, and the multiplicity of root k is the jump in attaining
    length.
    """

    roots: tuple
    epsilon_multiplicity: int
    multicircuits: tuple

    def __post_init__(self):
        p = len(self.roots)
        if len(self.multicircuits) != p + 1:
            raise ValueError("inconsistent MMCS arity")
        if any(self.roots[k] <= self.roots[k + 1] for k in range(p - 1)):
            raise ValueError("roots must be strictly decreasing")
        if self.multicircuits[0].total_length != 0:
            raise ValueError("the 0th multi-circuit must be empty")
        if any(jump <= 0 for jump in self.multiplicities):
            raise ValueError("multi-circuit lengths must increase strictly")

    @property
    def p(self) -> int:
        return len(self.roots)

    @property
    def multiplicities(self) -> tuple:
        """The multiplicity of each root: the jump in multi-circuit length across it."""
        lengths = [mc.total_length for mc in self.multicircuits]
        return tuple(lengths[k + 1] - lengths[k] for k in range(self.p))


def _scaled_entries(a):
    """The entries of ``a`` in its own scaled-integer domain, once per matrix.

    Returns ``(scale, off, diag)``: ``off[i]`` lists the off-diagonal cells
    of row i as ``(j, scaled value * (n + 1))``, ready for the primary
    place of the lexicographic costs, and ``diag[i]`` is the scaled a_ii or
    None.
    """
    n = a.rows
    scale = common_scale(a.entries.values())
    off = [[] for _ in range(n)]
    diag = [None] * n
    for (i, j), v in a.entries.items():
        if i == j:
            diag[i] = scaled_int(v, scale)
        else:
            off[i].append((j, scaled_int(v, scale) * (n + 1)))
    return scale, off, diag


def _at(entries, lam):
    """``(scale, lam_s, off, diag)``: ``_scaled_entries`` and ``lam`` in one domain."""
    scale, off, diag = entries
    den = common_scale((lam,))
    factor = den // math.gcd(scale, den)
    if factor > 1:
        scale *= factor
        off = [[(j, c * factor) for j, c in row] for row in off]
        diag = [None if d is None else d * factor for d in diag]
    return scale, scaled_int(lam, scale), off, diag


def _lexicographic_costs(off, diag, lam_s, want_max_length):
    """Sparse integer rows encoding (weight, +-t-pick count) lexicographically.

    ``is_loop[i]`` tells whether a diagonal pick at i is the self-loop
    circuit rather than a ``lam`` pick: a loop above ``lam`` always is, a tie
    a_ii == lam only for the long witness.  The secondary bonus rewards
    loops and arcs when ``want_max_length`` and ``lam`` picks otherwise, so
    an assignment's total is (n + 1) times its scaled weight plus its
    multi-circuit's length (long) or its number of ``lam`` picks (short).
    """
    n = len(diag)
    k = n + 1
    rows = []
    is_loop = [False] * n
    for i in range(n):
        sv = diag[i]
        is_loop[i] = sv is not None and (sv > lam_s or (sv == lam_s and want_max_length))
        primary = lam_s if sv is None else max(sv, lam_s)
        row = [(j, c + 1) for j, c in off[i]] if want_max_length else list(off[i])
        row.append((i, primary * k + (1 if is_loop[i] == want_max_length else 0)))
        rows.append(row)
    return rows, is_loop


def _witness_from_perm(a, perm, is_loop):
    """Cycles of the permutation; a fixed point is a self-loop or a lam pick per ``is_loop``."""
    weight_of = lambda u, v: a.entries.get((u, v))
    return MultiCircuit(
        tuple(
            CircuitRecord.from_nodes(weight_of, cycle)
            for cycle in _permutation_cycles(perm)
            if len(cycle) > 1 or is_loop[cycle[0]]
        )
    )


def _run(off, diag, lam_s, want_max_length):
    """One lexicographic assignment: ``(scaled value, count, perm, is_loop)``.

    The certified total decodes to the scaled value and the secondary
    count: the multi-circuit's length (long run) or its number of ``lam``
    picks (short run).
    """
    rows, is_loop = _lexicographic_costs(off, diag, lam_s, want_max_length)
    total, perm = max_assignment(rows)
    return *divmod(total, len(diag) + 1), perm, is_loop


def chi_eval(a: TropicalMatrix, lam) -> ChiEvaluation:
    """Evaluate chi at ``lam`` and report the extreme attaining multi-circuits.

    Solved as two lexicographic assignments on the lifted matrix (diagonal
    raised to max(a_ii, lam)), both from scratch: one maximizing and one
    minimizing the number of diagonal picks realized by ``lam``.  A tie
    a_ii == lam counts as a lam pick for the short witness and as a
    self-loop circuit for the long one, which is exactly what happens at a
    breakpoint.
    """
    if not a.is_square:
        raise DimensionMismatchError("chi is defined for square matrices")
    lam = as_value(lam)
    n = a.rows
    scale, lam_s, off, diag = _at(_scaled_entries(a), lam)
    runs = []
    for want_max_length in (False, True):
        value_s, count, perm, is_loop = _run(off, diag, lam_s, want_max_length)
        runs.append((_witness_from_perm(a, perm, is_loop), value_s, count))
    (witness_min, short_s, lam_picks), (witness_max, long_s, max_length) = runs
    if short_s != long_s:
        raise AssertionError("lexicographic runs disagree on the primary optimum")
    return ChiEvaluation(
        n=n,
        lam=lam,
        value=unscaled(short_s, scale),
        min_length=n - lam_picks,
        max_length=max_length,
        witness_min=witness_min,
        witness_max=witness_max,
    )


def _line(value, lam, slope):
    """The line of the given slope through (lam, value): ``(slope, intercept)``."""
    return slope, as_value(value - lam * slope)


def _evaluate(entries, lam):
    """chi at ``lam`` from ``chi_eval``'s long run: ``(value, max_length, perm, is_loop)``."""
    scale, lam_s, off, diag = _at(entries, lam)
    value_s, max_length, perm, is_loop = _run(off, diag, lam_s, True)
    return unscaled(value_s, scale), max_length, perm, is_loop


def _search_breakpoints(entries, lo, lo_line, hi, hi_line):
    """Supporting-line intersection over the convex evaluation.

    Works through an explicit stack of open intervals, left halves first,
    so the depth of the search never reaches Python's call stack.  Each
    interval carries a supporting line of chi at its lower end and the
    piece of chi left of its upper end; an evaluation splits it at its
    left tangent.  Returns each breakpoint found with its min length and
    ``_evaluate`` result.
    """
    n = len(entries[2])
    evaluations = {}
    found = {}
    stack = [(lo, lo_line, hi, hi_line)]
    while stack:
        lo, left, hi, right = stack.pop()
        (s_lo, b_lo), (s_hi, b_hi) = left, right
        if s_lo == s_hi:
            if b_lo != b_hi:
                raise AssertionError("parallel distinct supporting lines")
            continue
        lam = as_value(Fraction(b_lo - b_hi, s_hi - s_lo))
        if lam == lo:
            # chi follows the upper line from lo on, so lo is a breakpoint.
            if lo not in evaluations:
                raise AssertionError("bracketing points must not be breakpoints")
            found[lo] = (n - s_hi, evaluations[lo])
            continue
        if not (lo < lam < hi):
            raise AssertionError("line intersection escaped the search interval")
        evaluation = _evaluate(entries, lam)
        value, max_length = evaluation[:2]
        if value == b_lo + lam * s_lo:
            # chi is the lines' maximum between the ends: lam is the one breakpoint.
            if max_length != n - s_lo:
                raise AssertionError("a terminal intersection disagrees with its left line")
            found[lam] = (n - s_hi, evaluation)
            continue
        evaluations[lam] = evaluation
        tangent = _line(value, lam, n - max_length)
        stack.append((lam, tangent, hi, right))
        stack.append((lo, left, lam, tangent))
    return found


def _brackets(a):
    """Points strictly below and above every finite root of chi (see ``characteristic_roots``)."""
    n = a.rows
    values = list(a.entries.values())
    lo = as_value(min(0, n * min(values)) - max(0, n * max(values)) - 1)
    return lo, as_value(max(values) + 1)


def _mmcs(n, found):
    """The ``Mmcs`` of the breakpoints ``found``, each with its min length and long witness."""
    roots = tuple(sorted(found, reverse=True))
    multicircuits = [MultiCircuit.empty()]
    for lam in roots:
        min_length, witness = found[lam]
        if min_length != multicircuits[-1].total_length:
            raise AssertionError("adjacent root intervals disagree on lengths")
        multicircuits.append(witness)
    return Mmcs(roots, n - multicircuits[-1].total_length, tuple(multicircuits))


def _search(a, entries):
    """The breakpoints of chi of ``a`` by ``_search_breakpoints`` between its brackets."""
    n = a.rows
    lo, hi = _brackets(a)
    value, max_length, _, _ = _evaluate(entries, lo)
    # Above every entry each circuit loses to lam picks: chi(hi) = n * hi,
    # attained only by the empty multi-circuit, whose line is (n, 0).
    return _search_breakpoints(entries, lo, _line(value, lo, n - max_length), hi, (n, 0))


def _small_components(off):
    """The strongly connected components of the arcs in ``off`` if each has fewer than n / 2 nodes.

    Otherwise None, as for an irreducible support.  If every node u > 0
    has an arc to a lower node, all reach node 0, and a forward search
    from node 0 that stops once all n are reached settles irreducibility;
    on dense rows both take O(n) steps.  Other supports go to Tarjan's
    algorithm, O(n + m).

    The bound keeps the split from costing more than the whole search, 2p
    solves of size n.  The split makes p of them, plus about 2p solves of
    components, each of size at most n_max, the largest component; with a
    solve's cost at least linear in its size, those cost at most
    2p * n_max / n full solves, fewer than p while n_max < n / 2.
    Measured on two sparse irreducible components with 24-28 roots, the
    split took 1.04 of the whole search's time at sizes 40 + 40 and 1.27
    at 72 + 8, and on the benchmark's ten dense 5 x 5 blocks 0.62.
    """
    n = len(off)
    if all(any(j < u for j, _ in off[u]) for u in range(1, n)):
        seen, stack = {0}, [0]
        while stack and len(seen) < n:
            for j, _ in off[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == n:
            return None
    components = tarjan_scc(n, lambda u: [j for j, _ in off[u]])
    return components if 2 * max(map(len, components)) < n else None


def _split_search(a, entries, components):
    """The breakpoints of chi of a reducible ``a``: one search per component, one solve per root.

    Each component with a circuit is searched as its own submatrix, in its
    own scaled domain; a circuit-free one (a single node without its loop)
    is only lam picks.  A root's multiplicity is the sum of its components'
    jumps, and its evaluation is the full-size ``_evaluate``, so its min
    length is that run's max length minus the summed jump.
    """
    where = [None] * a.rows
    for k, nodes in enumerate(components):
        for local, v in enumerate(nodes):
            where[v] = (k, local)
    blocks = [{} for _ in components]
    for (i, j), v in a.entries.items():
        (k, li), (kj, lj) = where[i], where[j]
        if k == kj:
            blocks[k][(li, lj)] = v
    jumps = {}
    for nodes, block in zip(components, blocks):
        if block:
            sub = TropicalMatrix._trusted(len(nodes), len(nodes), block)
            for lam, (min_length, evaluation) in _search(sub, _scaled_entries(sub)).items():
                jumps[lam] = jumps.get(lam, 0) + evaluation[1] - min_length
    found = {}
    for lam, jump in jumps.items():
        evaluation = _evaluate(entries, lam)
        found[lam] = (evaluation[1] - jump, evaluation)
    return found


def characteristic_roots(a: TropicalMatrix) -> Mmcs:
    """All finite roots of chi with multiplicities, plus the MMCS.

    The search evaluates chi at supporting-line intersections, starting from
    an interval that strictly brackets every root.  The largest root is the
    maximum cycle mean, so max entry + 1 bounds it above; below, a root is a
    slope (w2 - w1) / (l2 - l1) between envelope vertices, and multi-circuit
    weights lie in [min(0, n*min_entry), max(0, n*max_entry)], which gives a
    strict lower bound.  (Roots can fall below the smallest entry, so a
    bracket of entry values alone would not be safe.)  A matrix with no
    finite entries has no finite roots, and the MMCS degenerates to the
    empty multi-circuit.

    Each evaluation runs one cold assignment, ``chi_eval``'s long run, at
    every root too, so each root's witness is ``chi_eval``'s
    ``witness_max``.  Past ``lo``, an evaluation finds a new piece of chi
    (at most p besides the top one) or a root: at most 2p + 1 assignments,
    where ``chi_eval`` at every point would make 4p.  The entries are
    scaled once per matrix, and witnesses are decoded, and checked against
    the value they attain, at the roots only.

    A reducible matrix has chi the product of its components' chi, so when
    every component holds fewer than half of the nodes the roots are
    searched per component (``_split_search``): at most 2p_k + 1 assignments of
    size n_k for a component with p_k roots, then exactly p of size n, one
    per root.  The witnesses come only from those full-size solves, the
    same deterministic run the whole search makes at a root; a witness put
    together from the components' could pick another of the tied
    multi-circuits.
    """
    if not a.is_square:
        raise DimensionMismatchError("roots are defined for square matrices")
    n = a.rows
    if not a.entries:
        return Mmcs((), n, (MultiCircuit.empty(),))
    entries = _scaled_entries(a)
    components = _small_components(entries[1])
    found = _search(a, entries) if components is None else _split_search(a, entries, components)
    roots = {}
    for lam, (min_length, (value, max_length, perm, is_loop)) in found.items():
        witness = _witness_from_perm(a, perm, is_loop)
        attained = witness.total_weight + lam * (n - witness.total_length)
        if (attained, witness.total_length) != (value, max_length):
            raise AssertionError("witness does not attain the evaluated value")
        roots[lam] = (min_length, witness)
    return _mmcs(n, roots)
