"""Seeded inputs for the benchmark workloads.

Each generator returns an ``Instance``: the matrix as text in the library's
file format (the only thing handed to the library) and the benchmark's own
copy of the finite entries, row by row, which the output checks use so
that they never depend on the library's parser or data structures.

A workload has a main instance, on which ``expand`` and the ``evaluate``
stream run, and a check instance of the same family, on which the
``--reduce``, ``verify`` and ``eigen`` commands run (see ``inputs`` for how
the seed enters).  The naive power in ``verify`` is cubic in n
with a log(2 n^2) factor, so the check instance is kept small except on
the ``verify`` workload, where it is the main one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WIDE = 10**6


@dataclass(frozen=True)
class Instance:
    n: int
    text: str
    rows: tuple  # rows[i] is a tuple of (j, value) over the finite entries of row i


def _instance(n, entries, sparse):
    rows = [[] for _ in range(n)]
    for (i, j), v in sorted(entries.items()):
        rows[i].append((j, v))
    if sparse:
        lines = [f"{n} {len(entries)}"]
        lines += [f"{i + 1} {j + 1} {_token(v)}" for (i, j), v in sorted(entries.items())]
    else:
        lines = [str(n)]
        for i in range(n):
            row = dict(rows[i])
            lines.append(" ".join(_token(row[j]) if j in row else "." for j in range(n)))
    return Instance(n, "\n".join(lines) + "\n", tuple(tuple(r) for r in rows))


def _token(v):
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def dense(rng: random.Random, n: int) -> Instance:
    """Every entry uniform in [-5, 5]: one root, a dozen or more groups."""
    entries = {(i, j): rng.randint(-5, 5) for i in range(n) for j in range(n)}
    return _instance(n, entries, sparse=False)


def sparse_wide(rng: random.Random, n: int, density=0.02) -> Instance:
    """Irreducible sparse matrix with entries within +-10^6: many roots, one SCC.

    Same family as ``maxplus.oracle.random_irreducible_matrix``: random
    cells at the given density plus a hidden Hamiltonian cycle through a
    shuffled node order.
    """
    entries = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                entries[(i, j)] = rng.randint(-WIDE, WIDE)
    order = list(range(n))
    rng.shuffle(order)
    for k, u in enumerate(order):
        entries.setdefault((u, order[(k + 1) % n]), rng.randint(-WIDE, WIDE))
    return _instance(n, entries, sparse=True)


def blocks(rng: random.Random, n: int, size=5) -> Instance:
    """Dense size x size diagonal blocks plus about n/2 forward coupling arcs.

    Every block is one SCC, and the coupling arcs only run from a block to
    a later one, so the matrix has n/size SCCs and is block upper
    triangular up to the node order.
    """
    if n % size or n < 2 * size:
        raise ValueError(f"blocks needs n a multiple of {size}, at least {2 * size}")
    count = n // size
    entries = {}
    for b in range(count):
        base = b * size
        for i in range(size):
            for j in range(size):
                entries[(base + i, base + j)] = rng.randint(-WIDE, WIDE)
    for _ in range(n // 2):
        src = rng.randrange(count - 1)
        dst = rng.randrange(src + 1, count)
        key = (src * size + rng.randrange(size), dst * size + rng.randrange(size))
        entries[key] = rng.randint(-WIDE, WIDE)
    return _instance(n, entries, sparse=True)


def rational(rng: random.Random, n: int) -> Instance:
    """Dense entries p/q, p in [-20, 20], q in {1, 2, 3, 4, 6}: exact rationals everywhere."""
    entries = {
        (i, j): Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6)))
        for i in range(n)
        for j in range(n)
    }
    return _instance(n, entries, sparse=False)


@dataclass(frozen=True)
class Workload:
    name: str
    family: object
    sparse: bool  # text format handed to the parser
    relabel: bool  # whether the seed relabels the nodes (see ``inputs``)
    n: int
    check_n: int | None  # None: the check instance is the main instance
    toy_n: int
    toy_check_n: int | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense", dense, False, False, 80, 24, 12, 8),
        Workload("sparse-wide", sparse_wide, True, True, 80, 24, 16, 8),
        Workload("blocks", blocks, True, True, 50, 25, 20, 10),
        Workload("verify", rational, False, True, 20, None, 8, None),
    )
}


def relabel(inst: Instance, perm, sparse) -> Instance:
    """The same matrix with node i renamed perm[i]."""
    entries = {(perm[i], perm[j]): v for i, row in enumerate(inst.rows) for j, v in row}
    return _instance(inst.n, entries, sparse)


def inputs(workload: Workload, seed: int, toy: bool = False):
    """The (main, check) instances of a run; the same seed gives the same text.

    The matrices are fixed representatives of the workload's family, drawn
    with a generator seeded by the workload's name, because fresh draws
    from the sparse family differ by a factor of 3 in root count and
    expand time.  The seed relabels the nodes of the main instance, which
    keeps its roots, its term count and its factor sizes.  On ``dense`` it
    does not: its many tied weight-5 arcs let the labelling pick between 7
    and 11 terms and move ``evaluate`` time by 50%, so there the labelling
    is fixed and the seed only draws the query stream and the rows it
    checks.  A separate check instance keeps its labelling too, because on
    ``sparse-wide`` the labelling moves the eigenvector time by 30%.
    """
    n = workload.toy_n if toy else workload.n
    check_n = workload.toy_check_n if toy else workload.check_n
    main = workload.family(random.Random(f"{workload.name}/main"), n)
    if workload.relabel:
        main = relabel(main, _permutation(random.Random(f"{workload.name}/{seed}"), n), workload.sparse)
    if check_n is None:
        return main, main
    return main, workload.family(random.Random(f"{workload.name}/check"), check_n)


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def query_stream(seed: int, n: int, threshold: int, pairs: int):
    """(t, t+1) exponent pairs: half just above the threshold, half up to 10^18.

    Each pair also names the row the output check samples.
    """
    rng = random.Random(f"stream/{seed}/{n}")
    out = []
    for k in range(pairs):
        if k % 2 == 0:
            t = threshold + rng.randrange(n * n)
        else:
            t = rng.randrange(10**17, 10**18)
        out.append((t, rng.randrange(n)))
    return out
